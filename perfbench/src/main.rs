//! The repository's regression benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_cold|sim_stream|serve_mixed|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process (`all` re-runs this binary once
//! per workload). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! See `perfbench/README.md`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux CPU clocks and builds for 64-bit Linux only");

mod common;
mod paper;
mod serve;
mod spans;
mod stream;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use common::{Report, RunArgs};

const WORKLOADS: [&str; 3] = ["paper_cold", "sim_stream", "serve_mixed"];

/// End-to-end metrics every untraced run reports.
const END_TO_END: [&str; 5] = [
    "primary_ms",
    "secondary_ms",
    "rate_per_s",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports (0 where the workload does
/// not exercise the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.build_s", "s"),
    ("frontend.designs", "count"),
    ("verilog.parse_s", "s"),
    ("verilog.elaborate_s", "s"),
    ("rtl.optimize_s", "s"),
    ("rtl.nodes_in", "count"),
    ("rtl.nodes_out", "count"),
    ("rtl.iterations", "count"),
    ("synth.synthesize_s", "s"),
    ("synth.calls", "count"),
    ("sim.engine_build_s", "s"),
    ("sim.simulate_s", "s"),
    ("sim.step_s", "s"),
    ("sim.scalar_s", "s"),
    ("sim.lane_cycles", "count"),
    ("sim.tape_instrs", "count"),
    ("sim.jit_code_bytes", "count"),
    ("sim.jit_cones_fallback", "count"),
    ("axi.run_s", "s"),
    ("axi.overhead_s", "s"),
    ("core.measure_s", "s"),
    ("core.front_half_s", "s"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.straggler_s", "s"),
    ("store.front_hits", "count"),
    ("store.measure_hits", "count"),
    ("store.misses", "count"),
    ("store.records", "count"),
    ("store.live_bytes", "count"),
    ("serve.synth_hot.p50_ms", "ms"),
    ("serve.synth_hot.p99_ms", "ms"),
    ("serve.synth_hot.service_ms", "ms"),
    ("serve.synth_hot.wait_ms", "ms"),
    ("serve.synth_cold.p50_ms", "ms"),
    ("serve.synth_cold.p99_ms", "ms"),
    ("serve.synth_cold.service_ms", "ms"),
    ("serve.synth_cold.wait_ms", "ms"),
    ("serve.measure.p50_ms", "ms"),
    ("serve.measure.p99_ms", "ms"),
    ("serve.measure.service_ms", "ms"),
    ("serve.measure.wait_ms", "ms"),
    ("serve.dse.p50_ms", "ms"),
    ("serve.dse.p99_ms", "ms"),
    ("serve.dse.service_ms", "ms"),
    ("serve.dse.wait_ms", "ms"),
    ("serve.rejected_429", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.backlog_max", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.wall_s", "s"),
    ("obs.unattributed_s", "s"),
];

/// Where traces and the serve workload's store go (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let internal = args.workload == "serve_setup";
    if args.workload != "all" && !internal && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Runs every workload in a child process of its own and merges the
/// results: metrics are prefixed with the workload name.
fn run_all(args: &RunArgs) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut merged = Report::default();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines = text.lines().collect::<Vec<_>>();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("[{w}] {l}");
        }
        if !out.status.success() {
            return Err(format!("{w} exited with {}", out.status));
        }
        let parsed = hc_serve::Json::parse(last).map_err(|e| format!("{w}: {e}"))?;
        merged.attempted += parsed
            .get("attempted")
            .and_then(hc_serve::Json::as_u64)
            .unwrap_or(0);
        merged.failed += parsed
            .get("failed")
            .and_then(hc_serve::Json::as_u64)
            .unwrap_or(1);
        if let Some(hc_serve::Json::Obj(ms)) = parsed.get("metrics") {
            for (name, m) in ms {
                let value = m
                    .get("value")
                    .and_then(hc_serve::Json::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(hc_serve::Json::as_str).unwrap_or("");
                merged.put(&format!("{w}.{name}"), value, unit);
            }
        }
    }
    Ok(merged)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    // A stray HC_* variable silently selects another engine tier, cache
    // or store; the benchmark sets its configuration explicitly instead.
    let stray: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HC_"))
        .collect();
    if !stray.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it first",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }

    if args.workload == "serve_setup" {
        // One timed cold start of hc-serve, for serve_mixed's set-up figure.
        println!("{}", serve::setup_probe());
        return ExitCode::SUCCESS;
    }

    let report = if args.workload == "all" {
        match run_all(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let workers = if args.trace && args.workload != "serve_mixed" {
            1
        } else {
            common::WORKERS
        };
        println!("{}", common::fingerprint(&args, workers));
        let mut r = match args.workload.as_str() {
            "paper_cold" => paper::run(&args),
            "sim_stream" => stream::run(&args),
            _ => serve::run(&args),
        };
        if args.trace {
            for (name, unit) in PER_LAYER {
                if !r.metrics.contains_key(*name) {
                    r.put(name, 0.0, unit);
                }
            }
            r.metrics
                .retain(|k, _| PER_LAYER.iter().any(|(n, _)| n == k));
        } else {
            for name in END_TO_END {
                assert!(
                    r.metrics.contains_key(name),
                    "{} did not report {name}",
                    args.workload
                );
            }
            r.metrics.retain(|k, _| END_TO_END.contains(&k.as_str()));
        }
        r
    };
    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "failed_share = {} ({} of {} checked outputs)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for (name, m) in &report.metrics {
        println!("{name} = {} {}", m.value, m.unit);
    }
    println!("{}", report.json());
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} output checks failed",
            report.failed, report.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
