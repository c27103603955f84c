//! §III-B: runs the IEEE Std 1180-1990 procedure (10 000 blocks per range
//! and sign by default) and prints the accuracy statistics against their
//! thresholds.
//!
//! Two measurement paths share one statistics implementation:
//!
//! * default — the golden fixed-point Chen-Wang IDCT in software;
//! * `--rtl [blocks]` — the Verilog `opt_rowcol` design simulated through
//!   the lane-batched AXI-Stream harness, the standard's blocks fanned
//!   across simulation lanes. The design is bit-exact with the golden
//!   model, so both paths print identical numbers for equal block counts.
//!
//! Beware reduced block counts: the (-300, 300) range sits right at the
//! `omse` threshold and only passes near the standard's 10 000 blocks.
use hc_idct::fixed;
use hc_idct::ieee1180::{measure_all, measure_all_batched, AccuracyStats, STANDARD_BLOCKS};

fn print_run(runs: &[((i32, i32), bool, AccuracyStats)]) -> bool {
    let mut all_ok = true;
    for ((l, h), neg, s) in runs {
        let ok = s.is_compliant();
        all_ok &= ok;
        println!(
            "range (-{l:3},{h:3}) sign={} : ppe={} pmse={:.4} omse={:.5} pme={:.4} ome={:.5}  {}",
            if *neg { "-" } else { "+" },
            s.ppe,
            s.pmse,
            s.omse,
            s.pme,
            s.ome,
            if ok { "PASS" } else { "FAIL" }
        );
    }
    all_ok
}

fn main() -> std::process::ExitCode {
    let _trace = hc_obs::trace::flush_on_exit();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rtl = args.first().is_some_and(|a| a == "--rtl");
    let blocks: usize = args
        .get(usize::from(rtl))
        .and_then(|s| s.parse().ok())
        .unwrap_or(STANDARD_BLOCKS);

    let runs = if rtl {
        println!("IEEE Std 1180-1990 compliance, Verilog opt_rowcol via lane-batched RTL sim");
        println!(
            "{blocks} blocks per run; thresholds: ppe<=1 pmse<=0.06 omse<=0.02 pme<=0.015 ome<=0.0015\n",
        );
        let module = hc_verilog::designs::opt_rowcol().expect("parses");
        measure_all_batched(hc_bench::rtl_idct_batched(module), blocks)
    } else {
        println!("IEEE Std 1180-1990 compliance, fixed-point Chen-Wang IDCT");
        println!(
            "{blocks} blocks per run; thresholds: ppe<=1 pmse<=0.06 omse<=0.02 pme<=0.015 ome<=0.0015\n",
        );
        measure_all(fixed::idct2d, blocks)
    };
    let all_ok = print_run(&runs);
    println!(
        "\noverall: {}",
        if all_ok { "COMPLIANT" } else { "NOT COMPLIANT" }
    );
    if all_ok {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
