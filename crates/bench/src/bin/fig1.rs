//! Regenerates Fig. 1: the design-space exploration scatter over every
//! configuration of every tool (ASCII plot + CSV).
fn main() {
    let _trace = hc_obs::trace::flush_on_exit();
    let nblocks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let points = hc_bench::fig1_points(nblocks);
    println!("{}", hc_core::report::fig1_ascii(&points));
    let measurements: Vec<_> = points.iter().map(|(_, m)| m.clone()).collect();
    let front = hc_core::dse::pareto_front(&measurements);
    println!("Pareto front (max performance, min area):");
    for &i in &front {
        let (id, m) = &points[i];
        println!(
            "  {:?} {:<16} P={:8.2} MOPS  A*={:7}  Q={:.0}",
            id,
            m.label,
            m.throughput_mops,
            m.area_nodsp.normalized(),
            m.q
        );
    }
    let csv = hc_core::report::fig1_csv(&points);
    if std::fs::write("fig1.csv", &csv).is_ok() {
        println!("(CSV written to fig1.csv)");
    }
}
