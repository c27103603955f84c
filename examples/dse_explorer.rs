//! Design-space exploration with one knob: sweep the XLS-like pipeline
//! stage count (the paper's Fig. 1 XLS series) and print the
//! performance/area/quality curve, marking the sweet spot.
//!
//! Run with: `cargo run --release --example dse_explorer`

use hls_vs_hc::core::entries::{dse_points, Design};
use hls_vs_hc::core::measure::measure;
use hls_vs_hc::core::tool::ToolId;

fn main() {
    let _trace = hls_vs_hc::obs::trace::flush_on_exit();
    println!("XLS-like stage sweep (the paper tried 19 XLS configurations):\n");
    println!(
        "{:<14} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "config", "fmax,MHz", "P,MOPS", "T_L", "A*", "Q"
    );
    let points: Vec<Design> = dse_points(ToolId::Dslx);
    let mut best: Option<(String, f64)> = None;
    for design in &points {
        let m = measure(design, 2);
        println!(
            "{:<14} {:>9.2} {:>9.2} {:>8} {:>8} {:>8.0}",
            m.label,
            m.fmax_mhz,
            m.throughput_mops,
            m.latency,
            m.area_nodsp.normalized(),
            m.q
        );
        if best.as_ref().map(|(_, q)| m.q > *q).unwrap_or(true) {
            best = Some((m.label.clone(), m.q));
        }
    }
    if let Some((label, q)) = best {
        println!("\nbest quality: {label} (Q = {q:.0})");
        println!(
            "the paper found the same shape: quality rises with fmax until the \
             pipeline registers dominate the area, peaking at 8 stages."
        );
    }
}
