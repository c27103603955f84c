//! A stored measurement must not vouch for a different workload.
//!
//! A measurement record certifies conformance against one golden model.
//! The same module measured as a Table II design (checked against the
//! 8×8 IDCT) and as a matrix cell (checked against its kernel's model)
//! must therefore land under different store keys: otherwise a cell's
//! record answers the IDCT measurement of a design that is not an IDCT,
//! and hc-serve's `/v1/measure` reports it as conforming.
//!
//! This test binary is its own process, so it can point the
//! process-global store at a scratch directory before anything opens it.

use hc_core::entries::Design;
use hc_core::matrix::{cell_design, measure_cell};
use hc_core::measure::try_measure;
use hc_core::persist;
use hc_core::tool::ToolId;

#[test]
fn kernel_cell_record_does_not_answer_an_idct_measurement() {
    let dir = std::env::temp_dir().join(format!("hc-workload-key-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = hc_obs::Config::from_env();
    cfg.store_dir = Some(dir.to_string_lossy().into_owned());
    hc_obs::config::set_override(cfg);
    assert!(persist::store().is_some(), "store opens from the override");

    let spec = hc_kernels::dct8();
    let cell = cell_design(&spec, ToolId::Verilog);
    // The same module under a label outside the matrix naming scheme is
    // an ordinary design, measured against the IDCT.
    let as_idct = Design {
        label: "verilog:dct8".into(),
        ..cell.clone()
    };

    let before = try_measure(&as_idct, 2);
    assert!(
        before.is_err(),
        "a forward DCT is not bit-exact vs the IDCT"
    );

    let m = measure_cell(&spec, &cell, 2);
    assert!(m.q > 0.0, "the cell conforms to its own golden model");

    let after = try_measure(&as_idct, 2);
    assert!(
        after.is_err(),
        "the dct8 cell's record answered an IDCT measurement: {after:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
