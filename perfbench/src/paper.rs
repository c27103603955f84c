//! `paper_cold`: regenerate Table II, Fig. 1 and the kernel matrix from
//! source with a cold front-half cache, as a user of the reproduction does.

use std::time::{Duration, Instant};

use hc_core::entries::{all_tools, dse_points, Design};
use hc_core::matrix::{matrix_cells, measure_cell};
use hc_core::measure::{measure, measure_all, Measurement};
use hc_core::par::{adaptive_chunk, parallel_map, parallel_map_chunked};
use hc_core::tool::{table1_rows, ToolId};
use hc_core::{cache, report};
use hc_kernels::KernelSpec;

use crate::common::{
    calibrated, configure, median, process_cpu, secs, set_tracing, thread_cpu, Calib, Report,
    RunArgs, WORKERS,
};
use crate::spans;

const TABLE2_NBLOCKS: usize = 3;
const FIG1_NBLOCKS: usize = 2;
const MATRIX_NBLOCKS: usize = 2;
/// Setup repetitions (Table II regenerations that warm the process).
const SETUP_REPS: usize = 5;
const MIN_REPS: usize = 3;
/// One calibration unit this often while a repetition runs.
const CAL_EVERY: Duration = Duration::from_millis(50);

const TABLE2_CSV: &str = include_str!("../reference/table2.expected.csv");
const FIG1_CSV: &str = include_str!("../reference/fig1.expected.csv");
const MATRIX_CSV: &str = include_str!("../reference/matrix.expected.csv");

/// `(T_L, T_P, Q)` of one design point.
type Figures = (u64, u64, f64);

/// One untraced repetition's outputs.
struct Rep {
    wall: f64,
    /// CPU seconds of all workers.
    cpu: f64,
    /// CPU seconds of the slowest single design point of the Fig. 1 sweep
    /// and the matrix.
    straggler: f64,
    table2: String,
    fig1: String,
    /// `kernel,tool,T_L,T_P,Q` lines in registry order.
    matrix: Vec<String>,
    /// `(label, T_L, T_P, Q)` of every design point in pipeline order.
    figures: Vec<(String, Figures)>,
    /// Front-half cache misses (not deterministic with 2 workers).
    misses: u64,
}

fn figs(m: &Measurement) -> Figures {
    (m.latency, m.periodicity, m.q)
}

fn matrix_line(spec: &KernelSpec, tool: ToolId, m: &Measurement) -> String {
    format!(
        "{},{},{},{},{}",
        spec.id,
        hc_core::matrix::tool_slug(tool),
        m.latency,
        m.periodicity,
        m.q
    )
}

/// Table II through `measure_all`, from freshly built designs.
fn table2() -> (String, Vec<(String, Figures)>) {
    let rows = measure_all(&all_tools(), TABLE2_NBLOCKS);
    let figures = rows
        .iter()
        .flat_map(|r| [&r.initial, &r.optimized])
        .map(|m| (m.label.clone(), figs(m)))
        .collect();
    (report::table2_csv(&rows), figures)
}

/// One full repetition: cache cleared, every design built from source.
fn rep() -> Rep {
    cache::clear();
    let start = Instant::now();
    let cpu = process_cpu();
    let (table2, mut figures) = table2();

    // Fig. 1 as `hc_bench::fig1_points` runs it, on a freshly built work
    // list instead of the process-lifetime one.
    let work: Vec<(ToolId, Design)> = table1_rows()
        .iter()
        .flat_map(|t| dse_points(t.id).into_iter().map(move |d| (t.id, d)))
        .collect();
    let probe = Instant::now();
    let _ = measure(&work[0].1, FIG1_NBLOCKS);
    let chunk = adaptive_chunk(work.len(), secs(probe));
    let points = parallel_map_chunked(&work, chunk, |(id, d)| {
        let t = thread_cpu();
        let m = measure(d, FIG1_NBLOCKS);
        (*id, m, thread_cpu() - t)
    });
    let mut straggler = points.iter().map(|p| p.2).fold(0.0, f64::max);
    let fig1_points: Vec<(ToolId, Measurement)> =
        points.iter().map(|(id, m, _)| (*id, m.clone())).collect();
    let fig1 = report::fig1_csv(&fig1_points);
    figures.extend(fig1_points.iter().map(|(_, m)| (m.label.clone(), figs(m))));

    // The kernel matrix, as `measure_kernel_matrix` sweeps it.
    let mut matrix = Vec::new();
    for spec in hc_kernels::kernels() {
        let cells = matrix_cells(&spec);
        let measured = parallel_map(&cells, |(_, d)| {
            let t = thread_cpu();
            let m = measure_cell(&spec, d, MATRIX_NBLOCKS);
            (m, thread_cpu() - t)
        });
        for ((tool, _), (m, t)) in cells.iter().zip(&measured) {
            straggler = straggler.max(*t);
            matrix.push(matrix_line(&spec, *tool, m));
            figures.push((m.label.clone(), figs(m)));
        }
    }
    let (wall, cpu) = (secs(start), process_cpu() - cpu);
    Rep {
        wall,
        cpu,
        misses: cache::stats().1,
        straggler,
        table2,
        fig1,
        matrix,
        figures,
    }
}

/// Checks one repetition's artifacts line by line against the committed
/// `table2.csv` / `fig1.csv` and the recorded matrix figures.
fn check_rep(r: &mut Report, rep: &Rep) {
    check_lines(r, "table2.csv", &rep.table2, TABLE2_CSV);
    check_lines(r, "fig1.csv", &rep.fig1, FIG1_CSV);
    let expected: Vec<&str> = MATRIX_CSV.lines().skip(1).collect();
    r.check(rep.matrix.len() == expected.len(), || {
        format!(
            "matrix: {} cells, expected {}",
            rep.matrix.len(),
            expected.len()
        )
    });
    for (got, want) in rep.matrix.iter().zip(&expected) {
        r.check(got == want, || {
            format!("matrix: got {got}, recorded {want}")
        });
    }
}

fn check_lines(r: &mut Report, what: &str, got: &str, want: &str) {
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    r.check(
        g.len() == w.len() && got.ends_with('\n') == want.ends_with('\n'),
        || format!("{what}: {} lines, committed {}", g.len(), w.len()),
    );
    for (i, (a, b)) in g.iter().zip(&w).enumerate().skip(1) {
        r.check(a == b, || {
            format!("{what} line {}: got {a:?}, committed {b:?}", i + 1)
        });
    }
}

pub fn run(args: &RunArgs) -> Report {
    if args.trace {
        return run_traced(args);
    }
    configure(WORKERS, None, None);
    let mut r = Report::default();

    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        cache::clear();
        let cpu = process_cpu();
        // A regeneration takes about 0.2 s of CPU: sample more densely.
        let ((csv, _), cal) = calibrated(CAL_EVERY / 5, table2);
        setup.push(cal.scale(process_cpu() - cpu - cal.total_s()));
        check_lines(&mut r, "table2.csv", &csv, TABLE2_CSV);
    }

    let start = Instant::now();
    let mut reps: Vec<(Rep, Calib)> = Vec::new();
    while reps.len() < MIN_REPS || secs(start) < args.seconds {
        let (mut x, cal) = calibrated(CAL_EVERY, rep);
        x.cpu -= cal.total_s();
        reps.push((x, cal));
    }
    for (x, _) in &reps {
        check_rep(&mut r, x);
    }
    let walls: Vec<f64> = reps.iter().map(|(x, _)| x.wall).collect();
    let cal_walls: Vec<f64> = reps.iter().map(|(x, c)| c.scale(x.wall)).collect();
    let stragglers: Vec<f64> = reps.iter().map(|(x, c)| c.scale(x.straggler)).collect();
    let points = reps[0].0.figures.len() as f64;
    let per_cpu_s: Vec<f64> = reps.iter().map(|(x, c)| points / c.scale(x.cpu)).collect();
    let units: Vec<f64> = reps.iter().map(|(_, c)| c.unit_s() * 1e3).collect();
    r.put("primary_ms", median(&cal_walls) * 1e3, "ms");
    r.put("secondary_ms", median(&stragglers) * 1e3, "ms");
    r.put("rate_per_s", median(&per_cpu_s), "1/s");
    r.put("setup_s", median(&setup), "s");
    r.put("peak_rss_mb", crate::common::peak_rss_mb(), "MB");
    r.note(format!(
        "paper_s = {} s wall  ({} repetitions, {points} design points each; {} s calibrated)",
        median(&walls),
        reps.len(),
        median(&cal_walls)
    ));
    r.note(format!(
        "straggler_s = {} s (calibrated CPU time of the slowest design point)",
        median(&stragglers)
    ));
    r.note(format!(
        "design points per calibrated CPU second = {} (both workers)",
        median(&per_cpu_s)
    ));
    r.note(format!(
        "repetition walls (s): {walls:?}; calibration unit (ms): {units:?}; set-up (calibrated s): {setup:?}"
    ));
    let misses: Vec<u64> = reps.iter().map(|(x, _)| x.misses).collect();
    r.note(format!(
        "front-half cache misses per repetition ({WORKERS} workers): {misses:?}"
    ));
    r
}

/// Runs `measure` or `measure_cell` inside a `core.measure` span.
fn measured(f: impl FnOnce() -> Measurement) -> (String, Figures) {
    let _span = hc_obs::span("core.measure");
    let m = f();
    (m.label.clone(), figs(&m))
}

/// The traced repetition: the same calls as [`rep`], made one after
/// another on this thread so every span nests under `bench.rep`. Returns
/// the figures in the same order as [`rep`].
fn traced_rep() -> Vec<(String, Figures)> {
    cache::clear();
    let _root = hc_obs::span("bench.rep");
    let mut figures = Vec::new();
    for t in spans::build(2, all_tools) {
        for d in [&t.initial, &t.optimized] {
            figures.push(measured(|| measure(d, TABLE2_NBLOCKS)));
        }
    }
    for t in table1_rows() {
        for d in spans::build(1, || dse_points(t.id)) {
            figures.push(measured(|| measure(&d, FIG1_NBLOCKS)));
        }
    }
    for spec in hc_kernels::kernels() {
        for (_, d) in spans::build(1, || matrix_cells(&spec)) {
            figures.push(measured(|| measure_cell(&spec, &d, MATRIX_NBLOCKS)));
        }
    }
    figures
}

/// The traced run: one untraced single-worker repetition for reference,
/// then traced repetitions until the time is up (at least two, whose
/// counters must agree exactly).
fn run_traced(args: &RunArgs) -> Report {
    configure(1, None, None);
    let mut r = Report::default();
    let start = Instant::now();
    let reference = rep();
    check_rep(&mut r, &reference);

    let path = spans::trace_path(&args.workload, args.seed);
    set_tracing(Some(path.clone()));
    let mut selfs = Vec::new();
    let mut counts = Vec::new();
    let (mut walls, mut stragglers) = (Vec::new(), Vec::new());
    let mut first = None;
    while selfs.len() < 2 || secs(start) < args.seconds {
        spans::take();
        let t = Instant::now();
        let figures = traced_rep();
        walls.push(secs(t));
        let events = spans::take();
        r.check(figures == reference.figures, || {
            "the traced repetition measured other T_L/T_P/Q than the untraced one".to_owned()
        });
        let c = spans::counts(&events);
        r.check(c.cache_misses == cache::stats().1, || {
            format!(
                "front_half spans saw {} misses, hc_core::cache counted {}",
                c.cache_misses,
                cache::stats().1
            )
        });
        counts.push(c);
        stragglers.push(
            spans::durations(&events, "core.measure")
                .into_iter()
                .fold(0.0, f64::max),
        );
        selfs.push(spans::self_times(&events));
        first.get_or_insert(events);
    }
    set_tracing(None);
    for c in &counts[1..] {
        r.check(*c == counts[0], || {
            format!(
                "traced counters differ between repetitions: {c:?} vs {:?}",
                counts[0]
            )
        });
    }
    r.check(counts[0].cache_misses == reference.misses, || {
        format!(
            "traced front-half misses {} != untraced single-worker {}",
            counts[0].cache_misses, reference.misses
        )
    });

    // Per span name, the median self time over the repetitions.
    let mut st = spans::SelfTimes::new();
    for name in selfs.iter().flat_map(|s| s.keys()).copied() {
        let xs: Vec<f64> = selfs.iter().map(|s| spans::self_s(s, name)).collect();
        st.insert(name, (median(&xs), 0));
    }
    spans::put_layers(&mut r, &st, &counts[0]);
    r.put("core.straggler_s", median(&stragglers), "s");
    let wall = median(&walls);
    r.put("obs.wall_s", wall, "s");
    r.put("obs.unattributed_s", spans::self_s(&st, "bench.rep"), "s");
    r.put("obs.trace_overhead", wall / reference.wall, "ratio");
    let attributed: f64 = st
        .iter()
        .filter(|(k, _)| **k != "bench.rep")
        .map(|(_, v)| v.0)
        .sum();
    r.note(format!(
        "traced repetition (median of {}): wall {wall:.3} s = layer self times {attributed:.3} s \
         + unattributed {:.3} s; untraced 1-worker repetition {:.3} s",
        selfs.len(),
        spans::self_s(&st, "bench.rep"),
        reference.wall
    ));
    for (name, (s, _)) in &st {
        r.note(format!("  self {name}: {s:.4} s"));
    }
    spans::write(&path, &first.unwrap_or_default());
    r
}
