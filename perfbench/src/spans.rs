//! Per-layer figures from the program's own `hc_obs` spans.
//!
//! A traced run arms `hc_obs` tracing in-process, through the config
//! override (no `HC_*` variable), and calls the program's public functions
//! as the untraced run does. The program already opens a span at each of
//! its layer boundaries; the benchmark wraps its own calls in `hc_obs`
//! spans too. A span's self time is its duration minus the time covered by
//! the spans nested inside it on the same thread.
//!
//! | metric | spans (P = the program's, B = the benchmark's) |
//! |---|---|
//! | `frontend.build_s` | B `frontend.build` around `all_tools`, `dse_points`, `matrix_cells` |
//! | `verilog.parse_s`, `verilog.elaborate_s` | P `parse`, `elaborate` |
//! | `core.front_half_s` | P `front_half` (hash, memo and store lookup) |
//! | `rtl.optimize_s` | P `optimize` |
//! | `synth.synthesize_s` | P `synthesize` |
//! | `sim.engine_build_s` | P `lower`, `tapeopt`, `native_compile`, `native_batched_compile`; B `sim.engine_build` around engine constructors |
//! | `sim.simulate_s` | P `simulate`: the harness run inside `measure`/`measure_cell` |
//! | `core.measure_s` | B `core.measure` around `measure`/`measure_cell` (stimulus, golden model, Q) |
//! | `axi.run_s`, `sim.step_s`, `sim.scalar_s` | B `axi.run`, `sim.step`, `sim.scalar` on `sim_stream` |

use std::collections::BTreeMap;

use hc_obs::trace::{ArgValue, Event};

use crate::common::Report;

/// Per span name: `(self seconds, count)`.
pub type SelfTimes = BTreeMap<&'static str, (f64, u64)>;

/// Self time and count per span name. Spans nest by containment on their
/// thread; with timestamps in whole microseconds a child may seem to end
/// a microsecond after its parent, so only its start decides nesting.
pub fn self_times(events: &[Event]) -> SelfTimes {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| {
        let e = &events[i];
        (e.tid, e.ts_us, std::cmp::Reverse(e.dur_us))
    });
    let mut own: Vec<u64> = events.iter().map(|e| e.dur_us).collect();
    let mut stack: Vec<usize> = Vec::new();
    let mut tid = None;
    for i in order {
        let e = &events[i];
        if tid != Some(e.tid) {
            stack.clear();
            tid = Some(e.tid);
        }
        let end = |j: usize| events[j].ts_us + events[j].dur_us;
        while stack.last().is_some_and(|&p| e.ts_us >= end(p)) {
            stack.pop();
        }
        if let Some(&p) = stack.last() {
            own[p] = own[p].saturating_sub(e.dur_us.min(end(p) - e.ts_us));
        }
        stack.push(i);
    }
    let mut out = SelfTimes::new();
    for (e, us) in events.iter().zip(own) {
        let slot = out.entry(e.name).or_default();
        slot.0 += us as f64 * 1e-6;
        slot.1 += 1;
    }
    out
}

/// Self seconds of one span name (0 when absent).
pub fn self_s(st: &SelfTimes, name: &str) -> f64 {
    st.get(name).map_or(0.0, |v| v.0)
}

/// Number of spans with this name.
pub fn count(events: &[Event], name: &str) -> u64 {
    events.iter().filter(|e| e.name == name).count() as u64
}

/// Sum of a counter attached to spans with this name.
pub fn sum_arg(events: &[Event], name: &str, key: &str) -> u64 {
    events
        .iter()
        .filter(|e| e.name == name)
        .flat_map(|e| &e.args)
        .filter(|(k, _)| *k == key)
        .map(|(_, v)| match v {
            ArgValue::U(n) => *n,
            ArgValue::I(n) => (*n).max(0) as u64,
            _ => 0,
        })
        .sum()
}

/// Durations in seconds of every span with this name.
pub fn durations(events: &[Event], name: &str) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.dur_us as f64 * 1e-6)
        .collect()
}

/// The work counters the program's spans carry. Deterministic on one
/// worker; the traced runs check that two repetitions agree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub designs: u64,
    pub nodes_in: u64,
    pub nodes_out: u64,
    pub iterations: u64,
    pub synth_calls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub tape_instrs: u64,
    pub jit_code_bytes: u64,
    pub jit_cones_fallback: u64,
}

pub fn counts(events: &[Event]) -> Counts {
    let compiles = ["native_compile", "native_batched_compile"];
    let front_halves = count(events, "front_half");
    let hits = sum_arg(events, "front_half", "hit");
    // A store answer is neither a hit nor a miss, as in `hc_core::cache`.
    let store_hits = sum_arg(events, "front_half", "store_hit");
    Counts {
        designs: sum_arg(events, "frontend.build", "designs"),
        nodes_in: sum_arg(events, "optimize", "nodes_before"),
        nodes_out: sum_arg(events, "optimize", "nodes_after"),
        iterations: sum_arg(events, "optimize", "iterations"),
        synth_calls: count(events, "synthesize"),
        cache_hits: hits,
        cache_misses: front_halves - hits - store_hits,
        tape_instrs: sum_arg(events, "tapeopt", "instrs_post"),
        jit_code_bytes: compiles
            .iter()
            .map(|c| sum_arg(events, c, "bytes_emitted"))
            .sum(),
        jit_cones_fallback: compiles
            .iter()
            .map(|c| sum_arg(events, c, "fallback_cones"))
            .sum(),
    }
}

/// Reports the layer times of one span set and its counters.
pub fn put_layers(r: &mut Report, st: &SelfTimes, c: &Counts) {
    let engine: f64 = [
        "sim.engine_build",
        "lower",
        "tapeopt",
        "native_compile",
        "native_batched_compile",
    ]
    .iter()
    .map(|n| self_s(st, n))
    .sum();
    r.put("frontend.build_s", self_s(st, "frontend.build"), "s");
    r.put("frontend.designs", c.designs as f64, "count");
    r.put("verilog.parse_s", self_s(st, "parse"), "s");
    r.put("verilog.elaborate_s", self_s(st, "elaborate"), "s");
    r.put("rtl.optimize_s", self_s(st, "optimize"), "s");
    r.put("rtl.nodes_in", c.nodes_in as f64, "count");
    r.put("rtl.nodes_out", c.nodes_out as f64, "count");
    r.put("rtl.iterations", c.iterations as f64, "count");
    r.put("synth.synthesize_s", self_s(st, "synthesize"), "s");
    r.put("synth.calls", c.synth_calls as f64, "count");
    r.put("sim.engine_build_s", engine, "s");
    r.put("sim.simulate_s", self_s(st, "simulate"), "s");
    r.put("sim.tape_instrs", c.tape_instrs as f64, "count");
    r.put("sim.jit_code_bytes", c.jit_code_bytes as f64, "count");
    r.put(
        "sim.jit_cones_fallback",
        c.jit_cones_fallback as f64,
        "count",
    );
    r.put("core.measure_s", self_s(st, "core.measure"), "s");
    r.put("core.front_half_s", self_s(st, "front_half"), "s");
    r.put("core.cache.hits", c.cache_hits as f64, "count");
    r.put("core.cache.misses", c.cache_misses as f64, "count");
}

/// Runs a frontend constructor inside a `frontend.build` span that
/// records how many designs it built.
pub fn build<T>(designs_per_item: u64, f: impl FnOnce() -> Vec<T>) -> Vec<T> {
    let mut span = hc_obs::span("frontend.build");
    let built = f();
    span.attach("designs", built.len() as u64 * designs_per_item);
    built
}

/// Runs `f` with tracing disarmed (for the benchmark's own instruments,
/// whose engine builds must not count as the workload's), then re-arms it.
pub fn untraced<R>(f: impl FnOnce() -> R) -> R {
    let armed = hc_obs::config::config().trace.clone();
    crate::common::set_tracing(None);
    let out = f();
    crate::common::set_tracing(armed);
    out
}

/// Takes the recorded events and starts a fresh set.
pub fn take() -> Vec<Event> {
    let events = hc_obs::trace::events();
    hc_obs::trace::clear();
    events
}

/// Where a traced run writes its Chrome trace.
pub fn trace_path(workload: &str, seed: u64) -> String {
    crate::out_dir()
        .join(format!("trace-{workload}-seed{seed}.json"))
        .to_string_lossy()
        .into_owned()
}

/// Writes events as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn write(path: &str, events: &[Event]) {
    let written = std::fs::create_dir_all(crate::out_dir())
        .and_then(|()| std::fs::write(path, hc_obs::trace::to_chrome_json(events)));
    match written {
        Ok(()) => eprintln!("perfbench: wrote {} spans to {path}", events.len()),
        Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
    }
}
