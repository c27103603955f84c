//! Performance snapshot: writes `BENCH_sim.json` so the simulation and
//! sweep performance trajectory is tracked across PRs.
//!
//! Measures five things:
//!
//! 1. **Simulation throughput** (cycles/sec) of the interpreted and the
//!    compiled backend pushing the same 64 blocks through the Verilog
//!    initial design's AXI-Stream interface. Each figure is the best of
//!    3 timed repetitions (min wall-clock per cycle), so scheduler noise
//!    biases the record high-watermark rather than smearing it.
//! 2. **Tape backend optimizer effect**: the same compiled run with
//!    `HC_NO_TAPE_OPT`-equivalent options, the resulting `tapeopt_speedup`,
//!    and the optimizer's [`TapeOptReport`](hc_sim::TapeOptReport)
//!    (fused/forwarded/removed instruction counts, slot compaction, cone
//!    count and the cones actually skipped during the measured run).
//! 3. **Batched throughput** of the lane-batched engine on the same 64
//!    blocks, counted in *lane-cycles* per second (each lane's cycle is a
//!    full simulated cycle of an independent stimulus stream, so
//!    lane-cycles/sec is directly comparable to the scalar figures).
//!    Measured twice: the vector-JIT tier as built by default
//!    (per-cone AVX2 codegen over the lane store) and an interpreted
//!    A/B twin built under an `HC_NO_NATIVE_BATCHED` override. Both
//!    engines are additionally timed *engine-level* (direct per-lane
//!    stimulus + step, no AXI protocol), which isolates the component
//!    the JIT replaces; that ratio is
//!    `native_batched_speedup_vs_batched` (the figure ci.sh gates),
//!    while the harness-level ratio lands in
//!    `native_batched_harness_speedup`. The detected SIMD tier and
//!    per-design vector-cone/fallback counts are recorded alongside.
//! 4. **Native (per-cone JIT) throughput** on the same stream, with a
//!    native-off A/B twin (the identical engine built under an
//!    `HC_NO_NATIVE` override, i.e. the tape interpreter inside the same
//!    wrapper) and the resulting `native_speedup_vs_compiled`.
//! 5. **Tape shrink** per Table II design: the IR pass pipeline's
//!    instruction counts (pre/post `hc_rtl::passes::optimize`) plus the
//!    tape optimizer's per-design report.
//! 6. **Fig. 1 sweep wall-clock**: the legacy cold per-point pipeline run
//!    serially vs the memoized + chunked parallel driver, with per-point
//!    p50/p90 seconds (the raw 70-element array was pure noise in diffs),
//!    the chunk size the scheduler picked, the front-half cache hit/miss
//!    counts of the timed run, and the worker count the pool actually used
//!    (`HC_THREADS` honored).
//! 7. **Warm start**: the wall-clock of the *first* sweep of the process
//!    (`fig1_first_sweep_seconds`) plus the persistent store tier's
//!    hit/miss deltas across it (`store_front_hit_rate`, `store`). With
//!    `HC_STORE_DIR` pointing at a populated store this is the cost a
//!    second process actually pays; run perfsnap twice against the same
//!    directory to A/B cold vs warm (ci.sh gates on it).
//! 8. **Idle register rows**: the share of register rows the batched
//!    engines skipped because their enable group was idle, over the
//!    matrix, the first Fig. 1 sweep and a Table II regeneration
//!    (`reg_rows_skipped_share`).
//!
//! Usage: `cargo run -p hc-bench --release --bin perfsnap [nblocks]`
//! (`nblocks` sizes the sweep simulation effort; default 2).

use std::time::{Duration, Instant};

use hc_axi::{BatchedStreamHarness, StreamHarness};
use hc_idct::generator::BlockGen;
use hc_sim::{EngineOptions, NativeBatchedReport, NativeBatchedSimulator, TapeOptReport};

/// Share of register rows the batched engines (both tiers) skipped as idle
/// while `phase` ran. Engines flush their counts when dropped, so `phase`
/// must drop every engine it builds.
fn reg_rows_skipped_share(phase: impl FnOnce()) -> f64 {
    let counts = || {
        let get = |name: &str| hc_obs::metrics::counter_named(name).get();
        let tiers = ["sim.batched", "sim.native_batched"];
        let rows: u64 = tiers.iter().map(|t| get(&format!("{t}.reg_rows"))).sum();
        let skipped: u64 = tiers
            .iter()
            .map(|t| get(&format!("{t}.reg_rows_skipped")))
            .sum();
        (rows, skipped)
    };
    let (rows0, skipped0) = counts();
    phase();
    let (rows, skipped) = counts();
    let skipped = skipped - skipped0;
    skipped as f64 / (rows - rows0 + skipped).max(1) as f64
}

/// Best cycles/sec over 3 timed repetitions (after one warmup rep). The
/// closure streams one batch through an already-built engine and returns the
/// cycles it simulated — construction is excluded, so the figure is pure
/// steady-state throughput. Each repetition accumulates runs until ~0.3 s;
/// taking the best rep (minimum elapsed-per-cycle) discards interference
/// from the rest of the machine instead of averaging it in.
fn rate<F: FnMut() -> u64>(mut run_batch: F) -> f64 {
    run_batch();
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut cycles = 0u64;
        let mut elapsed = Duration::ZERO;
        while elapsed < Duration::from_millis(300) {
            let start = Instant::now();
            cycles += run_batch();
            elapsed += start.elapsed();
        }
        best = best.max(cycles as f64 / elapsed.as_secs_f64());
    }
    best
}

/// Formats the *static* half of a [`TapeOptReport`] as a JSON object —
/// everything the optimizer decided at construction. The runtime
/// `cones_skipped` counter is deliberately excluded: it measures how many
/// cone evaluations activity gating elided *during whatever run the engine
/// happened to do*, so folding it into this object made the top-level
/// report (observed over the timed streaming run) disagree with the
/// per-design `tape[]` entries (engines that never stepped, always 0).
/// The main run's figure is emitted separately as
/// `cones_skipped_runtime`.
fn report_json(r: &TapeOptReport) -> String {
    format!(
        "{{\"instrs_pre\": {}, \"instrs_post\": {}, \"fused\": {}, \
         \"forwarded\": {}, \"cse\": {}, \"strength_reduced\": {}, \
         \"dead_removed\": {}, \
         \"narrow_slots_pre\": {}, \"narrow_slots_post\": {}, \
         \"wide_slots_pre\": {}, \"wide_slots_post\": {}, \
         \"cones\": {}}}",
        r.instrs_pre,
        r.instrs_post,
        r.fused,
        r.forwarded,
        r.cse,
        r.strength_reduced,
        r.dead_removed,
        r.narrow_slots_pre,
        r.narrow_slots_post,
        r.wide_slots_pre,
        r.wide_slots_post,
        r.cones,
    )
}

/// The `"store"` section: the persistent tier's hit/miss deltas over the
/// first sweep plus the on-disk log's own stats (or `{"enabled": false}`
/// when `HC_STORE_DIR` is unset).
fn store_json(enabled: bool, front: (u64, u64), measure: (u64, u64)) -> String {
    let Some(store) = hc_core::persist::store() else {
        return "{\"enabled\": false}".to_owned();
    };
    let s = store.stats();
    format!(
        "{{\"enabled\": {enabled}, \"front_hits\": {}, \"front_misses\": {}, \
         \"measure_hits\": {}, \"measure_misses\": {}, \
         \"segments\": {}, \"records\": {}, \"live_bytes\": {}, \
         \"dead_bytes\": {}, \"compactions\": {}}}",
        front.0,
        front.1,
        measure.0,
        measure.1,
        s.segments,
        s.records,
        s.live_bytes,
        s.dead_bytes,
        s.compactions,
    )
}

fn main() {
    let _trace = hc_obs::trace::flush_on_exit();
    let nblocks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);

    let module = hc_verilog::designs::initial_design().expect("parses");
    let blocks = BlockGen::new(3, -2048, 2047).take_blocks(64);
    let inputs: Vec<[[i32; 8]; 8]> = blocks.iter().map(|b| b.0).collect();
    let budget = 2000 * (inputs.len() as u64 + 4);
    let lanes = hc_axi::lanes_for_blocks(inputs.len());

    println!("simulating 64 blocks on the Verilog initial design...");
    let mut ih = StreamHarness::new(module.clone()).expect("validates");
    let ihz = rate(|| {
        let before = ih.simulator_mut().cycle();
        let n = ih.run(&inputs, budget).0.len();
        assert_eq!(n, inputs.len());
        ih.simulator_mut().cycle() - before
    });
    let mut ch = StreamHarness::compiled(module.clone()).expect("validates");
    let chz = rate(|| {
        let before = ch.simulator_mut().cycle();
        let n = ch.run(&inputs, budget).0.len();
        assert_eq!(n, inputs.len());
        ch.simulator_mut().cycle() - before
    });
    let mut rh = StreamHarness::compiled_with_options(module.clone(), EngineOptions::no_tape_opt())
        .expect("validates");
    let chz_raw = rate(|| {
        let before = rh.simulator_mut().cycle();
        let n = rh.run(&inputs, budget).0.len();
        assert_eq!(n, inputs.len());
        rh.simulator_mut().cycle() - before
    });
    // Native (per-cone JIT) A/B: the same harness type twice, once as
    // built by default (JIT where the target supports it) and once under a
    // temporary HC_NO_NATIVE override — the decision is taken at engine
    // construction, so restoring the config right after build keeps the
    // override window minimal. Off x86-64 both figures are the interpreted
    // tape and the speedup reads ~1.0 (ci.sh skips the gate there).
    let mut nh = StreamHarness::native(module.clone()).expect("validates");
    let nhz = rate(|| {
        let before = nh.simulator_mut().cycle();
        let n = nh.run(&inputs, budget).0.len();
        assert_eq!(n, inputs.len());
        nh.simulator_mut().cycle() - before
    });
    let native_report = nh.simulator_mut().native_report();
    let baseline_cfg = (*hc_obs::config()).clone();
    let mut off_cfg = baseline_cfg.clone();
    off_cfg.no_native = true;
    hc_obs::config::set_override(off_cfg);
    let mut oh = StreamHarness::native(module.clone()).expect("validates");
    hc_obs::config::set_override(baseline_cfg);
    let nhz_off = rate(|| {
        let before = oh.simulator_mut().cycle();
        let n = oh.run(&inputs, budget).0.len();
        assert_eq!(n, inputs.len());
        oh.simulator_mut().cycle() - before
    });
    let mut bh = BatchedStreamHarness::new(module.clone(), lanes).expect("validates");
    let bhz = rate(|| {
        let sim = bh.simulator_mut();
        let before: u64 = (0..sim.lanes()).map(|lane| sim.cycle(lane)).sum();
        let n = bh.run_blocks(&inputs, budget).0.len();
        assert_eq!(n, inputs.len());
        let sim = bh.simulator_mut();
        let after: u64 = (0..sim.lanes()).map(|lane| sim.cycle(lane)).sum();
        after - before
    });
    let nb_report = bh.simulator_mut().native_batched_report();
    let nb_active = bh.simulator_mut().vector_active();
    // Vector-JIT A/B: the identical batched harness built under a
    // temporary HC_NO_NATIVE_BATCHED override, i.e. the interpreted
    // batched engine (AVX2 lane kernels and all) inside the same
    // wrapper. Off AVX2 hosts both figures are interpreted and the
    // speedup reads ~1.0 (ci.sh skips the gate there).
    let baseline_cfg = (*hc_obs::config()).clone();
    let mut off_cfg = baseline_cfg.clone();
    off_cfg.no_native_batched = true;
    hc_obs::config::set_override(off_cfg);
    let mut obh = BatchedStreamHarness::new(module.clone(), lanes).expect("validates");
    hc_obs::config::set_override(baseline_cfg);
    let bhz_off = rate(|| {
        let sim = obh.simulator_mut();
        let before: u64 = (0..sim.lanes()).map(|lane| sim.cycle(lane)).sum();
        let n = obh.run_blocks(&inputs, budget).0.len();
        assert_eq!(n, inputs.len());
        let sim = obh.simulator_mut();
        let after: u64 = (0..sim.lanes()).map(|lane| sim.cycle(lane)).sum();
        after - before
    });
    // Engine-level lane throughput: the same two engines driven directly
    // (fresh stimulus on every lane, eval + step, no AXI protocol or
    // harness bookkeeping), isolating the component the vector JIT
    // replaces. This ratio is the CI gate: the harness-level figures
    // above fold in protocol simulation that both engines pay equally,
    // which dilutes the ratio and makes it noisy around a threshold.
    let mut evjit = NativeBatchedSimulator::new(module.clone(), lanes).expect("validates");
    let baseline_cfg = (*hc_obs::config()).clone();
    let mut off_cfg = baseline_cfg.clone();
    off_cfg.no_native_batched = true;
    hc_obs::config::set_override(off_cfg);
    let mut einterp = NativeBatchedSimulator::new(module.clone(), lanes).expect("validates");
    hc_obs::config::set_override(baseline_cfg);
    let engine_rate = |sim: &mut NativeBatchedSimulator, salt: u64| {
        let mut stim = salt;
        rate(|| {
            for _ in 0..256 {
                stim = stim.wrapping_add(0x9e3779b97f4a7c15);
                for lane in 0..lanes {
                    sim.set_u64(lane, "s_axis_tdata", stim ^ lane as u64);
                }
                sim.step();
            }
            256 * lanes as u64
        })
    };
    let ebhz = engine_rate(&mut evjit, 1);
    let ebhz_off = engine_rate(&mut einterp, 2);
    #[cfg(target_arch = "x86_64")]
    let simd_tier = if std::arch::is_x86_feature_detected!("avx2") && !hc_obs::config().no_simd {
        "avx2"
    } else {
        "scalar"
    };
    #[cfg(not(target_arch = "x86_64"))]
    let simd_tier = "scalar";
    // The measured design's optimizer report, with the cones-skipped
    // counter observed over the whole timed streaming run above.
    let main_report = ch
        .simulator_mut()
        .tape_opt_report()
        .expect("tape optimizer is on by default");
    let tapeopt_speedup = chz / chz_raw;
    println!("  interpreted:        {ihz:12.0} cycles/sec");
    println!(
        "  compiled (raw tape): {chz_raw:11.0} cycles/sec  ({:.1}x)",
        chz_raw / ihz
    );
    println!(
        "  compiled (tape opt): {chz:11.0} cycles/sec  ({:.1}x, {tapeopt_speedup:.2}x vs raw)",
        chz / ihz
    );
    let native_speedup = nhz / chz;
    println!(
        "  native (cone JIT):  {nhz:12.0} cycles/sec  ({native_speedup:.2}x vs compiled; \
         {} cones compiled, {} fallback, {} code bytes)",
        native_report.cones_compiled, native_report.cones_fallback, native_report.code_bytes
    );
    println!("  native off (A/B):   {nhz_off:12.0} cycles/sec");
    let nb_harness_speedup = bhz / bhz_off;
    let native_batched_speedup = ebhz / ebhz_off;
    println!(
        "  batched ({lanes:2} lanes): {bhz_off:12.0} lane-cycles/sec  ({:.1}x vs compiled)",
        bhz_off / chz
    );
    println!(
        "  vector JIT batched: {bhz:12.0} lane-cycles/sec  ({nb_harness_speedup:.2}x vs \
         batched; {} cones compiled, {} fallback, {} code bytes, {simd_tier} tier)",
        nb_report.cones_compiled, nb_report.cones_fallback, nb_report.code_bytes
    );
    println!(
        "  engine-level:       {ebhz:12.0} lane-cycles/sec vs {ebhz_off:.0} interpreted \
         ({native_batched_speedup:.2}x, the gated figure)"
    );
    println!(
        "  tape opt: {} -> {} instrs, {} fused, {} slots -> {}, {} cones ({} skipped)",
        main_report.instrs_pre,
        main_report.instrs_post,
        main_report.fused,
        main_report.narrow_slots_pre,
        main_report.narrow_slots_post,
        main_report.cones,
        main_report.cones_skipped
    );

    println!("optimization pass pipeline (compiled tape, pre/post)...");
    let mut tape_rows: Vec<(String, usize, usize, TapeOptReport, NativeBatchedReport)> = Vec::new();
    for tool in hc_core::entries::all_tools() {
        for design in [&tool.initial, &tool.optimized] {
            let sim = hc_sim::CompiledSimulator::new(design.module.clone())
                .expect("Table II designs validate");
            let pre = sim.tape_stats().0;
            let report = sim
                .tape_opt_report()
                .expect("tape optimizer is on by default");
            let post = hc_sim::CompiledSimulator::with_options(
                design.module.clone(),
                hc_sim::EngineOptions::optimized(),
            )
            .expect("Table II designs validate")
            .tape_stats()
            .0;
            // The vector-cone split is a compile-time decision, so a
            // minimal 4-lane build is enough to record it per design.
            let vjit = hc_sim::NativeBatchedSimulator::new(design.module.clone(), 4)
                .expect("Table II designs validate")
                .native_batched_report();
            println!(
                "  {:24} {pre:5} -> {post:5} instrs (IR, -{:.0}%), tape opt {} -> {} ({} fused), \
                 vjit {}/{} cones",
                design.label,
                100.0 * (pre.saturating_sub(post)) as f64 / pre.max(1) as f64,
                report.instrs_pre,
                report.instrs_post,
                report.fused,
                vjit.cones_compiled,
                vjit.cones_compiled + vjit.cones_fallback,
            );
            tape_rows.push((design.label.clone(), pre, post, report, vjit));
        }
    }
    let tapeopt_fused_min = tape_rows
        .iter()
        .map(|(_, _, _, r, _)| r.fused)
        .min()
        .unwrap_or(0);
    let tape_json = tape_rows
        .iter()
        .map(|(label, pre, post, report, vjit)| {
            format!(
                "{{\"design\": \"{label}\", \"tape_pre\": {pre}, \"tape_post\": {post}, \
                 \"tapeopt\": {}, \"vjit_cones_compiled\": {}, \"vjit_cones_fallback\": {}}}",
                report_json(report),
                vjit.cones_compiled,
                vjit.cones_fallback,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");

    println!("kernel x frontend matrix (nblocks = {nblocks})...");
    // Every registry kernel across all seven frontends: measure_cell
    // asserts golden agreement, so a cell only lands here (with
    // "agreement": true) if it was bit-exact; ci.sh gates on all
    // kernels x frontends being present and agreeing.
    let mut matrix_entries: Vec<String> = Vec::new();
    let mut matrix_rows = Vec::new();
    let matrix_idle = reg_rows_skipped_share(|| {
        for spec in hc_bench::kernels::kernels() {
            matrix_rows.push(hc_core::matrix::measure_kernel_matrix(
                &spec,
                nblocks.max(2),
            ));
        }
    });
    for rows in &matrix_rows {
        for row in rows {
            let m = &row.measurement;
            println!(
                "  {:26} {:9.1} MOPS  Q {:10.3}  T_P {:4}  alpha {:6.1}%  C_Q {:6.1}%",
                m.label, m.throughput_mops, m.q, m.periodicity, row.automation, row.controllability
            );
            matrix_entries.push(format!(
                "\"{}\": {{\"throughput_mops\": {:.2}, \"q\": {:.4}, \
                 \"periodicity\": {}, \"latency\": {}, \"loc\": {}, \
                 \"automation\": {:.1}, \"controllability\": {:.1}, \
                 \"agreement\": true}}",
                m.label,
                m.throughput_mops,
                m.q,
                m.periodicity,
                m.latency,
                m.loc,
                row.automation,
                row.controllability,
            ));
        }
    }
    let matrix_json = matrix_entries.join(",\n    ");

    println!("fig. 1 sweep (nblocks = {nblocks})...");
    // The first sweep of the process is the warm-start probe: with
    // HC_STORE_DIR set and a populated store, every front half and
    // measurement comes off disk, so this wall-clock (and the store-tier
    // hit rate across it) is what a "second process" actually pays. It
    // doubles as the warmup for the steady-state comparison below: the
    // timed parallel run measures the in-memory driver, the serial
    // baseline deliberately runs the legacy cold pipeline per point.
    let tier = hc_core::persist::tier_counters();
    let (front_hits_0, front_misses_0) = (tier.front_hits.get(), tier.front_misses.get());
    let (meas_hits_0, meas_misses_0) = (tier.measure_hits.get(), tier.measure_misses.get());
    let start = Instant::now();
    let fig1_idle = reg_rows_skipped_share(|| {
        hc_bench::fig1_points(nblocks);
    });
    let first_sweep_time = start.elapsed();
    let front_hits = tier.front_hits.get() - front_hits_0;
    let front_misses = tier.front_misses.get() - front_misses_0;
    let meas_hits = tier.measure_hits.get() - meas_hits_0;
    let meas_misses = tier.measure_misses.get() - meas_misses_0;
    let store_front_hit_rate = front_hits as f64 / (front_hits + front_misses).max(1) as f64;
    let store_on = hc_core::persist::store().is_some();
    println!(
        "  first sweep:            {:8.2} s  (store {}, front {front_hits} hit / \
         {front_misses} miss, measure {meas_hits} hit / {meas_misses} miss)",
        first_sweep_time.as_secs_f64(),
        if store_on { "on" } else { "off" },
    );
    // After the first sweep, which must stay the process's first look at
    // the store; this regeneration only re-simulates.
    let table2_idle = reg_rows_skipped_share(|| {
        hc_core::measure::measure_all(&hc_core::entries::all_tools(), 3);
    });
    println!(
        "  idle register rows skipped: Table II {:.1}%, matrix {:.1}%, Fig. 1 {:.1}%",
        100.0 * table2_idle,
        100.0 * matrix_idle,
        100.0 * fig1_idle
    );
    let start = Instant::now();
    let serial = hc_bench::fig1_points_serial(nblocks);
    let serial_time = start.elapsed();
    hc_core::cache::reset_stats();
    let start = Instant::now();
    let (parallel, chunk) = hc_bench::fig1_points_timed(nblocks);
    let parallel_time = start.elapsed();
    let (cache_hits, cache_misses) = hc_core::cache::stats();
    assert_eq!(serial.len(), parallel.len());
    // Both drivers must emit the sweep in the same stable order, or the
    // per-point trajectories stop being comparable across runs.
    for ((_, s), (_, p, _)) in serial.iter().zip(&parallel) {
        assert_eq!(s.label, p.label, "sweep order diverged");
    }
    let sweep_speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    let threads = hc_core::par::worker_count(parallel.len());
    println!(
        "  serial (cold pipeline): {:8.2} s",
        serial_time.as_secs_f64()
    );
    println!(
        "  parallel (memoized):    {:8.2} s  ({sweep_speedup:.2}x on {threads} workers, \
         chunk {chunk}, {cache_hits} cache hits / {cache_misses} misses)",
        parallel_time.as_secs_f64()
    );

    let point_secs: Vec<f64> = parallel.iter().map(|(_, _, s)| *s).collect();
    let point_mean = point_secs.iter().sum::<f64>() / point_secs.len().max(1) as f64;
    let point_max = point_secs.iter().copied().fold(0.0f64, f64::max);
    let point_p50 = hc_bench::percentile(&point_secs, 50.0);
    let point_p90 = hc_bench::percentile(&point_secs, 90.0);

    let json = format!(
        "{{\n  \"design\": \"verilog_initial\",\n  \"blocks\": 64,\n  \
         \"interpreted_cycles_per_sec\": {ihz:.0},\n  \
         \"compiled_cycles_per_sec\": {chz:.0},\n  \
         \"compiled_raw_tape_cycles_per_sec\": {chz_raw:.0},\n  \
         \"tapeopt_speedup\": {tapeopt_speedup:.2},\n  \
         \"tapeopt_fused_min\": {tapeopt_fused_min},\n  \
         \"tapeopt\": {main_rep},\n  \
         \"cones_skipped_runtime\": {skipped},\n  \
         \"sim_speedup\": {sim:.2},\n  \
         \"native_cycles_per_sec\": {nhz:.0},\n  \
         \"native_off_cycles_per_sec\": {nhz_off:.0},\n  \
         \"native_speedup_vs_compiled\": {native_speedup:.2},\n  \
         \"native_cones_compiled\": {ncc},\n  \
         \"native_cones_fallback\": {ncf},\n  \
         \"native_code_bytes\": {ncb},\n  \
         \"batched_lanes\": {lanes},\n  \
         \"simd_tier\": \"{simd_tier}\",\n  \
         \"batched_lane_cycles_per_sec\": {bhz_off:.0},\n  \
         \"batched_speedup_vs_compiled\": {bs:.2},\n  \
         \"native_batched_lane_cycles_per_sec\": {bhz:.0},\n  \
         \"native_batched_harness_speedup\": {nb_harness_speedup:.2},\n  \
         \"batched_engine_lane_cycles_per_sec\": {ebhz_off:.0},\n  \
         \"native_batched_engine_lane_cycles_per_sec\": {ebhz:.0},\n  \
         \"native_batched_speedup_vs_batched\": {native_batched_speedup:.2},\n  \
         \"native_batched_active\": {nb_active},\n  \
         \"native_batched_cones_compiled\": {nbc},\n  \
         \"native_batched_cones_fallback\": {nbf},\n  \
         \"native_batched_code_bytes\": {nbb},\n  \
         \"fig1_nblocks\": {nblocks},\n  \
         \"fig1_points\": {points},\n  \
         \"fig1_serial_seconds\": {st:.3},\n  \
         \"fig1_parallel_seconds\": {pt:.3},\n  \
         \"fig1_first_sweep_seconds\": {fst:.3},\n  \
         \"store_front_hit_rate\": {store_front_hit_rate:.4},\n  \
         \"store\": {store_section},\n  \
         \"fig1_speedup\": {sweep_speedup:.2},\n  \
         \"fig1_chunk_size\": {chunk},\n  \
         \"cache_hits\": {cache_hits},\n  \
         \"cache_misses\": {cache_misses},\n  \
         \"fig1_point_seconds_mean\": {point_mean:.4},\n  \
         \"fig1_point_seconds_p50\": {point_p50:.4},\n  \
         \"fig1_point_seconds_p90\": {point_p90:.4},\n  \
         \"fig1_point_seconds_max\": {point_max:.4},\n  \
         \"tape\": [\n    {tape_json}\n  ],\n  \
         \"matrix\": {{\n    {matrix_json}\n  }},\n  \
         \"reg_rows_skipped_share\": {{\"table2\": {table2_idle:.4}, \"fig1\": {fig1_idle:.4}, \
         \"matrix\": {matrix_idle:.4}}},\n  \
         \"metrics\": {metrics},\n  \
         \"threads\": {threads}\n}}\n",
        main_rep = report_json(&main_report),
        skipped = main_report.cones_skipped,
        sim = chz / ihz,
        ncc = native_report.cones_compiled,
        ncf = native_report.cones_fallback,
        ncb = native_report.code_bytes,
        bs = bhz_off / chz,
        nbc = nb_report.cones_compiled,
        nbf = nb_report.cones_fallback,
        nbb = nb_report.code_bytes,
        points = serial.len(),
        st = serial_time.as_secs_f64(),
        pt = parallel_time.as_secs_f64(),
        fst = first_sweep_time.as_secs_f64(),
        store_section = store_json(
            store_on,
            (front_hits, front_misses),
            (meas_hits, meas_misses)
        ),
        metrics = hc_obs::metrics::snapshot_json(),
    );
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("(written to BENCH_sim.json)");
}
