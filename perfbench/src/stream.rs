//! `sim_stream`: engines built once (the set-up), then a long seeded block
//! stream through the 16-lane batched AXI harness on every AXI design of
//! Table II and the kernel matrix, plus a scalar-tier part: the dataflow
//! stream kernels on `NativeSimulator` and one `StreamHarness::native` run.
//!
//! Only the simulation calls are timed, in CPU time of the simulating
//! thread (see [`thread_cpu`]), calibrated by one calibration unit after
//! every design (see [`Calib`]); stimulus generation and the bit-exact
//! check of every output block happen outside the timed region.

use std::time::Instant;

use hc_axi::{
    pack_elems, pack_elems_n, unpack_elems_n, BatchedStreamHarness, MatrixWrapperSpec,
    StreamHarness,
};
use hc_core::cache;
use hc_core::entries::{all_tools, Design, DesignInterface};
use hc_core::matrix::{matrix_cells, wrapper_spec};
use hc_idct::generator::BlockGen;
use hc_kernels::KernelSpec;
use hc_rtl::Module;
use hc_sim::{EngineOptions, NativeBatchedSimulator, NativeSimulator};

use crate::common::{
    configure, median, process_cpu, secs, set_tracing, thread_cpu, Calib, Report, Rng, RunArgs,
    WORKERS,
};
use crate::spans;

const LANES: usize = 16;
/// Streaming cycles per lane aimed at in one harness run.
const BATCHED_CYCLES: u64 = 256;
/// Element-cycles aimed at in one scalar-kernel run: a kernel consuming
/// a 256-element block per cycle gets 128 cycles, a 64-element one 512.
const SCALAR_WORK: u64 = 512 * 64;
/// Left out of the stream: its shortest run (one block per lane, about
/// 9.5k cycles) took 80% of a round, so rounds measured this one design.
/// It stays in `paper_cold`, where it is the straggler.
const LEFT_OUT: &str = "matrix.idct16.hls_bambu";
const SETUP_REPS: usize = 3;
const MIN_ROUNDS: usize = 3;
/// The scalar AXI harness run: the Verilog initial IDCT design.
const HARNESS_BLOCKS: usize = 256;
/// Calibration units around each set-up build.
const SETUP_CAL_UNITS: usize = 20;

const TABLE2_CSV: &str = include_str!("../reference/table2.expected.csv");
const MATRIX_CSV: &str = include_str!("../reference/matrix.expected.csv");

/// What a design computes, for stimulus and golden outputs.
#[derive(Clone)]
enum Kernel {
    Idct,
    Matrix(KernelSpec),
}

impl Kernel {
    fn stimulus(&self, n: usize, seed: u64) -> Vec<Vec<i32>> {
        match self {
            Kernel::Idct => BlockGen::new(seed, -2048, 2047)
                .take_blocks(n)
                .iter()
                .map(|b| b.0.iter().flatten().copied().collect())
                .collect(),
            Kernel::Matrix(spec) => spec.stimulus(n, seed),
        }
    }

    fn golden(&self, block: &[i32]) -> Vec<i32> {
        match self {
            Kernel::Idct => {
                let mut m = [[0i32; 8]; 8];
                for (i, v) in block.iter().enumerate() {
                    m[i / 8][i % 8] = *v;
                }
                hc_idct::fixed::idct2d(&hc_idct::Block(m))
                    .0
                    .iter()
                    .flatten()
                    .copied()
                    .collect()
            }
            Kernel::Matrix(spec) => spec.golden(block),
        }
    }

    fn wrapper(&self) -> MatrixWrapperSpec {
        match self {
            Kernel::Idct => MatrixWrapperSpec::idct(),
            Kernel::Matrix(spec) => wrapper_spec(spec),
        }
    }

    /// Input word of one stream-kernel cycle and the output decoder.
    fn stream_words(&self, module: &Module, blocks: &[Vec<i32>]) -> Vec<hc_bits::Bits> {
        match self {
            Kernel::Idct => {
                let blocks: Vec<hc_idct::Block> = blocks
                    .iter()
                    .map(|b| hc_idct::Block::from_fn(|r, c| b[r * 8 + c]))
                    .collect();
                idct_stream_words(module, &blocks)
            }
            Kernel::Matrix(spec) => blocks
                .iter()
                .map(|b| hc_axi::pack_elems_n(b, spec.in_width))
                .collect(),
        }
    }

    fn stream_decode(&self, word: &hc_bits::Bits) -> Vec<i32> {
        match self {
            Kernel::Idct => unpack_elems_n(word, 9, 64),
            Kernel::Matrix(spec) => unpack_elems_n(word, spec.out_width, spec.elems()),
        }
    }
}

/// One design of the stream: its source-built form plus the recorded
/// periodicity that sizes its runs.
struct Item {
    label: String,
    kernel: Kernel,
    design: Design,
    periodicity: u64,
}

/// Every design of Table II and the kernel matrix, built from source.
fn build_items() -> (Vec<Item>, Vec<Item>) {
    let table2_tp: Vec<u64> = TABLE2_CSV
        .lines()
        .skip(1)
        .map(|l| {
            l.split(',')
                .nth(8)
                .and_then(|v| v.parse().ok())
                .unwrap_or(1)
        })
        .collect();
    let matrix_tp: Vec<u64> = MATRIX_CSV
        .lines()
        .skip(1)
        .map(|l| {
            l.split(',')
                .nth(3)
                .and_then(|v| v.parse().ok())
                .unwrap_or(1)
        })
        .collect();
    let mut items: Vec<Item> = spans::build(2, all_tools)
        .into_iter()
        .flat_map(|t| [t.initial, t.optimized])
        .zip(&table2_tp)
        .map(|(d, tp)| Item {
            label: format!("table2.{}", d.label),
            kernel: Kernel::Idct,
            design: d,
            periodicity: *tp,
        })
        .collect();
    let mut tp = matrix_tp.iter();
    for spec in hc_kernels::kernels() {
        items.extend(
            spans::build(1, || matrix_cells(&spec))
                .into_iter()
                .map(|(_, d)| Item {
                    label: d.label.clone(),
                    kernel: Kernel::Matrix(spec.clone()),
                    design: d,
                    periodicity: *tp.next().expect("one recorded T_P per cell"),
                }),
        );
    }
    items
        .into_iter()
        .filter(|i| i.label != LEFT_OUT)
        .partition(|i| matches!(i.design.interface, DesignInterface::Axis))
}

/// A batched design ready to stream.
struct Batched {
    item: Item,
    harness: BatchedStreamHarness,
    blocks_per_run: usize,
    /// Engine-only twin for the traced run's `sim.step` replay.
    twin: Option<NativeBatchedSimulator>,
}

/// A scalar stream kernel ready to drive.
struct Scalar {
    item: Item,
    sim: NativeSimulator,
    blocks_per_run: usize,
}

struct Engines {
    batched: Vec<Batched>,
    scalar: Vec<Scalar>,
    harness: StreamHarness<NativeSimulator>,
}

fn optimized(module: &Module) -> Module {
    cache::front_half(module).module.as_ref().clone()
}

/// Runs an engine constructor inside a `sim.engine_build` span.
fn engine<T>(f: impl FnOnce() -> T) -> T {
    let _span = hc_obs::span("sim.engine_build");
    f()
}

/// Builds every engine from source: frontends, the front half through
/// `hc_core::cache::front_half`, engine construction and JIT. With
/// `twins`, also the engine-only replay twins of the traced run, built
/// untraced because they are the benchmark's instrument, not its work.
fn build_engines(twins: bool) -> Engines {
    let (axis, stream) = build_items();
    let mut batched = Vec::new();
    for item in axis {
        let module = optimized(&item.design.module);
        let harness = engine(|| {
            BatchedStreamHarness::with_spec(module.clone(), LANES, item.kernel.wrapper())
        })
        .expect("designs validate");
        let twin = twins.then(|| {
            spans::untraced(|| {
                NativeBatchedSimulator::with_options(module, LANES, EngineOptions::default())
                    .expect("designs validate")
            })
        });
        let per_lane = (BATCHED_CYCLES / item.periodicity.max(1)).clamp(1, 128) as usize;
        batched.push(Batched {
            item,
            harness,
            blocks_per_run: per_lane * LANES,
            twin,
        });
    }
    let mut scalar = Vec::new();
    for item in stream {
        let module = optimized(&item.design.module);
        let sim = engine(|| NativeSimulator::new(module)).expect("kernels validate");
        let elems = match &item.kernel {
            Kernel::Idct => 64,
            Kernel::Matrix(spec) => spec.elems() as u64,
        };
        let blocks_per_run =
            (SCALAR_WORK / (elems * item.periodicity.max(1))).clamp(1, 4096) as usize;
        scalar.push(Scalar {
            item,
            sim,
            blocks_per_run,
        });
    }
    let verilog = spans::build(1, || {
        vec![hc_verilog::designs::initial_design().expect("shipped sources parse")]
    });
    let verilog = optimized(&verilog[0]);
    let harness = engine(|| StreamHarness::native(verilog)).expect("validates");
    Engines {
        batched,
        scalar,
        harness,
    }
}

/// One round's timed figures.
#[derive(Clone, Copy, Default)]
struct Round {
    batched_s: f64,
    lane_cycles: u64,
    scalar_s: f64,
    scalar_cycles: u64,
    /// Sum of `ln(lane-cycles/s)` over the batched designs (for the
    /// geometric mean, which weighs every design equally).
    ln_rate_sum: f64,
    /// Host speed during the round: one unit after every design.
    cal: Calib,
}

fn design_seed(seed: u64, design: usize, round: usize) -> u64 {
    Rng::new(seed, (design as u64) << 32 | round as u64).next_u64()
}

/// Streams one round through every engine; checks every output block.
/// With tracing armed, each harness run is followed by its engine-only
/// replay on the twin.
fn round(e: &mut Engines, seed: u64, n: usize, r: &mut Report) -> Round {
    let mut out = Round::default();
    for (i, b) in e.batched.iter_mut().enumerate() {
        let blocks = b
            .item
            .kernel
            .stimulus(b.blocks_per_run, design_seed(seed, i, n));
        let per_lane = b.blocks_per_run / LANES;
        let budget = 4000 * (per_lane as u64 + 4);
        let sim = b.harness.simulator_mut();
        let before: u64 = (0..LANES).map(|l| sim.cycle(l)).sum();
        let t = thread_cpu();
        let mut span = hc_obs::span("axi.run");
        let (outputs, _) = b.harness.run_blocks_flat(&blocks, budget);
        let sim = b.harness.simulator_mut();
        let cycles: u64 = (0..LANES).map(|l| sim.cycle(l)).sum::<u64>() - before;
        span.attach("lane_cycles", cycles);
        drop(span);
        let dt = thread_cpu() - t;
        out.batched_s += dt;
        out.lane_cycles += cycles;
        out.ln_rate_sum += (cycles as f64 / dt).ln();
        out.cal.sample(1);
        if let (true, Some(twin)) = (hc_obs::trace::enabled(), b.twin.as_mut()) {
            replay(twin, &b.item.kernel, &blocks, cycles / LANES as u64);
        }
        r.check(
            outputs.len() == blocks.len() && b.harness.protocol_errors.is_empty(),
            || {
                format!(
                    "{}: {} of {} blocks, protocol errors {:?}",
                    b.item.label,
                    outputs.len(),
                    blocks.len(),
                    b.harness.protocol_errors
                )
            },
        );
        for (k, (blk, o)) in blocks.iter().zip(&outputs).enumerate() {
            r.check(*o == b.item.kernel.golden(blk), || {
                format!("{} round {n}: block {k} not bit-exact", b.item.label)
            });
        }
    }
    let base = e.batched.len();
    for (i, s) in e.scalar.iter_mut().enumerate() {
        let blocks = s
            .item
            .kernel
            .stimulus(s.blocks_per_run, design_seed(seed, base + i, n));
        let words = s.item.kernel.stream_words(s.sim.module(), &blocks);
        let before = s.sim.cycle();
        let t = thread_cpu();
        let outputs = {
            let _span = hc_obs::span("sim.scalar");
            drive_stream(&mut s.sim, &words, blocks.len(), &s.item.kernel)
        };
        out.scalar_s += thread_cpu() - t;
        out.scalar_cycles += s.sim.cycle() - before;
        out.cal.sample(1);
        r.check(outputs.len() == blocks.len(), || {
            format!("{}: lost blocks", s.item.label)
        });
        for (k, (blk, o)) in blocks.iter().zip(&outputs).enumerate() {
            r.check(*o == s.item.kernel.golden(blk), || {
                format!("{} round {n}: block {k} not bit-exact", s.item.label)
            });
        }
    }
    let blocks = Kernel::Idct.stimulus(HARNESS_BLOCKS, design_seed(seed, usize::MAX >> 1, n));
    let before = e.harness.simulator_mut().cycle();
    let t = thread_cpu();
    let (outputs, _) = {
        let _span = hc_obs::span("sim.scalar");
        e.harness
            .run_flat(&blocks, 4000 * (HARNESS_BLOCKS as u64 + 4))
    };
    out.scalar_s += thread_cpu() - t;
    out.scalar_cycles += e.harness.simulator_mut().cycle() - before;
    out.cal.sample(1);
    r.check(outputs.len() == blocks.len(), || {
        "StreamHarness::native lost blocks".to_owned()
    });
    for (k, (blk, o)) in blocks.iter().zip(&outputs).enumerate() {
        r.check(*o == Kernel::Idct.golden(blk), || {
            format!("StreamHarness::native round {n}: block {k} not bit-exact")
        });
    }
    out
}

/// Resets a raw-stream kernel (`in_data`/`in_valid` → `out_data`/
/// `out_valid`), then feeds one word per cycle (zeros after the stimulus)
/// until `n` outputs were collected or a 2000-cycle drain budget ran out.
fn drive_stream(
    sim: &mut NativeSimulator,
    words: &[hc_bits::Bits],
    n: usize,
    kernel: &Kernel,
) -> Vec<Vec<i32>> {
    sim.set_u64("rst", 1);
    sim.set_u64("in_valid", 0);
    sim.step();
    sim.set_u64("rst", 0);
    sim.set_u64("in_valid", 1);
    let zero = hc_bits::Bits::zero(words[0].width());
    let mut outputs = Vec::with_capacity(n);
    for cycle in 0..words.len() + 2_000 {
        sim.set("in_data", words.get(cycle).unwrap_or(&zero).clone());
        if sim.get("out_valid").to_bool() {
            outputs.push(kernel.stream_decode(&sim.get("out_data")));
        }
        sim.step();
        if outputs.len() >= n {
            break;
        }
    }
    outputs
}

/// The IDCT stream kernels' input words: one 768-bit matrix per cycle, or
/// (96-bit `in_data`) one 8-element row per cycle.
fn idct_stream_words(module: &Module, blocks: &[hc_idct::Block]) -> Vec<hc_bits::Bits> {
    let row_mode = module.input_named("in_data").expect("stream port").width == 96;
    if row_mode {
        return blocks
            .iter()
            .flat_map(|b| (0..8).map(move |r| pack_elems(b.row(r), 12)))
            .collect();
    }
    blocks
        .iter()
        .map(|b| {
            let flat: Vec<i32> = b.0.iter().flatten().copied().collect();
            pack_elems_n(&flat, 12)
        })
        .collect()
}

/// Engine-level replay of one harness run: the same number of cycles on
/// an engine-only twin, every lane fed the run's beat words back to back
/// with valid and ready held high — the simulation work without the AXI
/// driver, monitor and protocol checker.
fn replay(twin: &mut NativeBatchedSimulator, kernel: &Kernel, blocks: &[Vec<i32>], cycles: u64) {
    let spec = kernel.wrapper();
    let (rows, cols) = (spec.rows as usize, spec.cols as usize);
    let beats: Vec<hc_bits::Bits> = blocks
        .iter()
        .flat_map(|b| {
            (0..rows).map(move |r| pack_elems_n(&b[r * cols..(r + 1) * cols], spec.in_elem_width))
        })
        .collect();
    let per_lane = beats.len() / LANES;
    let tdata = twin.in_port("s_axis_tdata");
    let tvalid = twin.in_port("s_axis_tvalid");
    let tready = twin.in_port("m_axis_tready");
    let _span = hc_obs::span("sim.step");
    for lane in 0..LANES {
        twin.set_port_u64(lane, tvalid, 1);
        twin.set_port_u64(lane, tready, 1);
    }
    for c in 0..cycles as usize {
        for lane in 0..LANES {
            let beat = &beats[lane * per_lane + c % per_lane.max(1)];
            twin.set_port(lane, tdata, beat);
        }
        twin.step();
    }
}

pub fn run(args: &RunArgs) -> Report {
    if args.trace {
        return run_traced(args);
    }
    configure(WORKERS, None, None);
    let mut r = Report::default();
    let mut setup = Vec::new();
    let mut engines = None;
    for _ in 0..SETUP_REPS {
        cache::clear();
        drop(engines.take());
        let mut cal = Calib::default();
        cal.sample(SETUP_CAL_UNITS / 2);
        let cpu = process_cpu();
        engines = Some(build_engines(false));
        let spent = process_cpu() - cpu;
        cal.sample(SETUP_CAL_UNITS / 2);
        setup.push(cal.scale(spent));
    }
    let mut e = engines.expect("built");
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || secs(start) < args.seconds {
        let n = rounds.len();
        rounds.push(round(&mut e, args.seed, n, &mut r));
    }
    let raw_batched: Vec<f64> = rounds.iter().map(|x| x.batched_s).collect();
    let batched: Vec<f64> = rounds.iter().map(|x| x.cal.scale(x.batched_s)).collect();
    let scalar: Vec<f64> = rounds.iter().map(|x| x.cal.scale(x.scalar_s)).collect();
    let lane_rate: Vec<f64> = rounds
        .iter()
        .map(|x| x.lane_cycles as f64 / x.batched_s)
        .collect();
    let designs = e.batched.len() as f64;
    let typical: Vec<f64> = rounds
        .iter()
        .map(|x| (x.ln_rate_sum / designs).exp() / x.cal.scale(1.0))
        .collect();
    let scalar_rate: Vec<f64> = rounds
        .iter()
        .map(|x| x.scalar_cycles as f64 / x.scalar_s)
        .collect();
    let units: Vec<f64> = rounds.iter().map(|x| x.cal.unit_s() * 1e3).collect();
    r.put("primary_ms", median(&batched) * 1e3, "ms");
    r.put("secondary_ms", median(&scalar) * 1e3, "ms");
    r.put("rate_per_s", median(&typical), "1/s");
    r.put("setup_s", median(&setup), "s");
    r.put("peak_rss_mb", crate::common::peak_rss_mb(), "MB");
    r.note(format!(
        "sim_batched_mlcps = {} M lane-cycles/s  ({} lanes, {} designs, {} lane-cycles per round, {} rounds)",
        median(&lane_rate) / 1e6,
        LANES,
        e.batched.len(),
        rounds[0].lane_cycles,
        rounds.len()
    ));
    r.note(format!(
        "typical design: {} lane-cycles per calibrated second (geometric mean over the batched designs)",
        median(&typical)
    ));
    r.note(format!(
        "sim_scalar_mcps = {} M cycles/s  ({} stream kernels + 1 StreamHarness::native, {} cycles per round)",
        median(&scalar_rate) / 1e6,
        e.scalar.len(),
        rounds[0].scalar_cycles
    ));
    r.note(format!(
        "batched round CPU (ms): raw {}, calibrated {}; calibration unit (ms) per round: {units:?}",
        median(&raw_batched) * 1e3,
        median(&batched) * 1e3
    ));
    r
}

/// The traced run: the set-up traced once, then untraced rounds (the
/// overhead baseline) followed by traced rounds with the engine-level
/// replay after every harness run.
fn run_traced(args: &RunArgs) -> Report {
    let path = spans::trace_path(&args.workload, args.seed);
    configure(1, None, Some(path.clone()));
    let mut r = Report::default();
    spans::take();
    let mut e = {
        let _root = hc_obs::span("bench.setup");
        build_engines(true)
    };
    let setup_events = spans::take();
    set_tracing(None);
    let start = Instant::now();
    let mut plain = Vec::new();
    while plain.len() < 3 || secs(start) < args.seconds / 3.0 {
        let n = plain.len();
        plain.push(round(&mut e, args.seed, n, &mut r));
    }
    set_tracing(Some(path.clone()));
    let mut traced = Vec::new();
    let mut round_events = Vec::new();
    while traced.len() < 3 || secs(start) < args.seconds {
        let n = plain.len() + traced.len();
        let x = {
            let _root = hc_obs::span("bench.round");
            round(&mut e, args.seed, n, &mut r)
        };
        traced.push(x);
        round_events.push(spans::take());
    }
    set_tracing(None);
    let selfs: Vec<spans::SelfTimes> = round_events
        .iter()
        .map(|ev| spans::self_times(ev))
        .collect();
    let per_round = |name: &str| {
        median(
            &selfs
                .iter()
                .map(|s| spans::self_s(s, name))
                .collect::<Vec<_>>(),
        )
    };
    spans::put_layers(
        &mut r,
        &spans::self_times(&setup_events),
        &spans::counts(&setup_events),
    );
    let step = per_round("sim.step");
    let axi = per_round("axi.run");
    r.put("sim.step_s", step, "s");
    r.put("sim.scalar_s", per_round("sim.scalar"), "s");
    r.put("axi.run_s", axi, "s");
    r.put("axi.overhead_s", axi - step, "s");
    let lane_cycles: Vec<u64> = round_events
        .iter()
        .map(|ev| spans::sum_arg(ev, "axi.run", "lane_cycles"))
        .collect();
    r.check(lane_cycles.iter().all(|c| *c == lane_cycles[0]), || {
        format!("lane-cycles per round differ between traced rounds: {lane_cycles:?}")
    });
    r.put("sim.lane_cycles", lane_cycles[0] as f64, "count");
    let walls: Vec<f64> = round_events
        .iter()
        .flat_map(|ev| spans::durations(ev, "bench.round"))
        .collect();
    r.put("obs.wall_s", median(&walls), "s");
    r.put("obs.unattributed_s", per_round("bench.round"), "s");
    let traced_batched: Vec<f64> = traced.iter().map(|x| x.batched_s).collect();
    let plain_batched: Vec<f64> = plain.iter().map(|x| x.batched_s).collect();
    r.put(
        "obs.trace_overhead",
        median(&traced_batched) / median(&plain_batched),
        "ratio",
    );
    let mut events = setup_events;
    events.extend(round_events.swap_remove(0));
    spans::write(&path, &events);
    r
}
