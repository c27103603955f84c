//! A miniature of the paper's whole experiment: measure two tools'
//! optimized designs (hand-written Verilog vs. push-button + optimized
//! HLS) and print who wins on quality, by how much, and why.
//!
//! Run with: `cargo run --release --example tool_shootout`

use hls_vs_hc::core::entries::{verilog_entry, vivado_hls_entry};
use hls_vs_hc::core::measure::measure;
use hls_vs_hc::core::metrics;

fn main() {
    let _trace = hls_vs_hc::obs::trace::flush_on_exit();
    let verilog = verilog_entry();
    let vhls = vivado_hls_entry();

    println!("measuring four design points (synthesis + cycle-accurate simulation)...\n");
    let v_init = measure(&verilog.initial, 3);
    let v_opt = measure(&verilog.optimized, 3);
    let h_init = measure(&vhls.initial, 2);
    let h_opt = measure(&vhls.optimized, 3);

    let line = |name: &str, m: &hls_vs_hc::core::measure::Measurement| {
        println!(
            "{name:<28} {:>7.2} MHz  {:>7.2} MOPS  T_L={:<4} T_P={:<4} A*={:<7} Q={:.0}",
            m.fmax_mhz,
            m.throughput_mops,
            m.latency,
            m.periodicity,
            m.area_nodsp.normalized(),
            m.q
        );
    };
    line("Verilog, initial", &v_init);
    line("Verilog, optimized", &v_opt);
    line("Vivado-HLS-like, push-button", &h_init);
    line("Vivado-HLS-like, optimized", &h_opt);

    println!();
    println!(
        "push-button HLS throughput is {:.0}x below hand-written RTL (paper: ~18x)",
        v_init.throughput_mops / h_init.throughput_mops
    );
    println!(
        "after PIPELINE + ARRAY_PARTITION + INLINE it reaches the adapter ceiling \
         (T_P = {}), closing most of the gap",
        h_opt.periodicity
    );
    println!(
        "controllability C_Q = {:.1}%  |  automation alpha = {:.1}%  |  flexibility F_Q = {:.1}",
        metrics::controllability(h_opt.q, v_opt.q),
        metrics::automation(h_opt.loc, v_opt.loc),
        metrics::flexibility(h_opt.q, h_init.q, vhls.delta_loc),
    );
    println!(
        "\nthe paper's conclusion in one line: a few pragmas take C from unusable to \
         competitive, but the architecture ceiling still belongs to explicit RTL/HC."
    );
}
