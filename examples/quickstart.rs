//! Quickstart: elaborate the baseline Verilog IDCT, stream a coefficient
//! block through its AXI-Stream interface, check it against the golden
//! model, and print a synthesis report for the virtual UltraScale+ device.
//!
//! Run with: `cargo run --release --example quickstart`

use hls_vs_hc::axi::StreamHarness;
use hls_vs_hc::idct::{fixed, reference, Block};
use hls_vs_hc::rtl::passes::optimize;
use hls_vs_hc::synth::{synthesize, Device, SynthOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = hls_vs_hc::obs::trace::flush_on_exit();
    // 1. Elaborate real Verilog source (crates/verilog/designs/*.v) into
    //    the shared RTL IR.
    let module = hls_vs_hc::verilog::designs::initial_design()?;
    println!(
        "elaborated `{}`: {} nodes, {} registers",
        module.name(),
        module.nodes().len(),
        module.regs().len()
    );

    // 2. Stream a block through the AXI-Stream wrapper in simulation.
    let mut coeffs = Block::zero();
    coeffs[(0, 0)] = 480; // DC
    coeffs[(0, 1)] = -120; // a little horizontal detail
    coeffs[(1, 0)] = 60;
    let mut harness = StreamHarness::new(module.clone())?;
    let (outputs, timing) = harness.run(&[coeffs.0], 200);
    println!(
        "latency = {} cycles, periodicity = {} cycles (paper: 17 / 8)",
        timing.latency, timing.periodicity
    );

    // 3. Compare hardware output with the golden fixed-point model and
    //    the ideal double-precision IDCT.
    let hw = Block(outputs[0]);
    assert_eq!(hw, fixed::idct2d(&coeffs), "hardware must be bit-exact");
    let ideal = reference::idct_f64(&coeffs);
    let worst = hw
        .iter()
        .zip(ideal.iter())
        .map(|(a, b)| (a - b).abs())
        .max()
        .unwrap_or(0);
    println!("bit-exact with the fixed-point model; |err| vs ideal <= {worst}");

    // 4. Synthesize for the virtual XCVU9P, with and without DSP blocks.
    let mut m = module;
    optimize(&mut m);
    let device = Device::xcvu9p();
    let full = synthesize(&m, &device, &SynthOptions::default());
    let nodsp = synthesize(&m, &device, &SynthOptions::no_dsp());
    println!("{full}");
    println!(
        "normalized area (maxdsp=0): A = {} (LUT* {} + FF* {})",
        nodsp.area.normalized(),
        nodsp.area.lut,
        nodsp.area.ff
    );
    Ok(())
}
