//! Regenerates Table II: measures the initial and optimized designs of all
//! seven tools and prints the full evaluation (text to stdout, CSV to
//! `table2.csv` if writable).
fn main() {
    let _trace = hc_obs::trace::flush_on_exit();
    let nblocks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let tools = hc_core::entries::all_tools();
    let rows = hc_core::measure::measure_all(&tools, nblocks);
    println!("TABLE II: HLS/HC TOOLS EVALUATION RESULTS\n");
    print!("{}", hc_core::report::table2(&rows));
    let csv = hc_core::report::table2_csv(&rows);
    if std::fs::write("table2.csv", &csv).is_ok() {
        println!("\n(CSV written to table2.csv)");
    }
}
