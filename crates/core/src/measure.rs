//! §III-C procedure: synthesize, simulate, measure.
//!
//! One pipeline serves Table II, Fig. 1, the kernel matrix
//! ([`crate::matrix`]) and hc-serve: each names its stimulus and golden
//! model as a `Workload`, and `measure_with` does the rest.

use crate::entries::{Design, DesignInterface, ToolEntry};
use crate::metrics;
use crate::par::parallel_map;
use crate::tool::ToolId;
use hc_axi::{
    lanes_for_blocks, pack_elems_n, unpack_elems_n, BatchedStreamHarness, MatrixWrapperSpec,
    PcieLink,
};
use hc_bits::Bits;
use hc_idct::generator::BlockGen;
use hc_idct::{fixed, Block};
use hc_rtl::passes::optimize;
use hc_sim::NativeSimulator;
use hc_synth::{synthesize, Device, SynthOptions};

/// The workload id of Table II and Fig. 1 (the 8×8 IDCT), as it appears
/// in measurement store keys next to the matrix kernels' ids.
pub(crate) const IDCT_WORKLOAD: &str = "idct8";

/// Stimulus seed of every workload: all designs measured on one workload
/// see the same deterministic blocks.
pub(crate) const STIM_SEED: u64 = 7;

/// AXIS cycle budget per block (plus four blocks of slack) for one lane of
/// the batched harness; the deepest registry pipeline fits well inside.
const AXIS_CYCLES_PER_BLOCK: u64 = 4_000;

/// Cycles a stream kernel keeps running after its last input word, so the
/// deepest registry pipeline (the 16×16 transform's auto-pipelined mac
/// trees) drains.
const STREAM_FLUSH_CYCLES: u64 = 2_000;

/// What a design is measured on: the wrapper geometry it streams through,
/// the row-major stimulus blocks it is fed and the golden model every
/// output block must match bit for bit.
pub(crate) struct Workload<'a> {
    /// Short id naming the golden model in measurement store keys.
    pub(crate) id: &'a str,
    /// Block geometry and element widths.
    pub(crate) geometry: MatrixWrapperSpec,
    /// Row-major input blocks (at least two, so `T_P` is measurable).
    pub(crate) blocks: Vec<Vec<i32>>,
    /// The exact fixed-point reference for one block.
    pub(crate) golden: &'a dyn Fn(&[i32]) -> Vec<i32>,
}

/// The Table II / Fig. 1 workload: `nblocks` (at least 2) deterministic
/// IDCT coefficient blocks, checked against the fixed-point IDCT.
fn idct_workload(nblocks: usize) -> Workload<'static> {
    fn golden(block: &[i32]) -> Vec<i32> {
        fixed::idct2d(&Block::from_fn(|r, c| block[r * 8 + c]))
            .iter()
            .collect()
    }
    Workload {
        id: IDCT_WORKLOAD,
        geometry: MatrixWrapperSpec::idct(),
        blocks: BlockGen::new(STIM_SEED, -2048, 2047)
            .take_blocks(nblocks.max(2))
            .iter()
            .map(|b| b.iter().collect())
            .collect(),
        golden: &golden,
    }
}

/// Everything measured for one design point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Design label (configuration).
    pub label: String,
    /// Maximum clock frequency, MHz.
    pub fmax_mhz: f64,
    /// Minimum clock period, ns.
    pub t_clk_ns: f64,
    /// Latency `T_L`, cycles (including I/O transmission).
    pub latency: u64,
    /// Periodicity `T_P`, cycles between operation starts.
    pub periodicity: u64,
    /// Throughput `P`, MOPS.
    pub throughput_mops: f64,
    /// Area with default synthesis (DSPs allowed).
    pub area: hc_synth::AreaReport,
    /// Area with `maxdsp=0` (the normalization run).
    pub area_nodsp: hc_synth::AreaReport,
    /// Quality `Q = P / A` (OPS per normalized area unit).
    pub q: f64,
    /// Lines of code including configuration (`L`).
    pub loc: usize,
}

/// One Table II column pair (a tool's initial and optimized designs) plus
/// the derived cross-metrics.
#[derive(Clone, Debug)]
pub struct ToolRow {
    /// Which tool.
    pub id: ToolId,
    /// The initial design's measurement.
    pub initial: Measurement,
    /// The optimized design's measurement.
    pub optimized: Measurement,
    /// Changed lines between them (`ΔL`).
    pub delta_loc: usize,
    /// Degree of automation α, percent, for (initial, optimized).
    pub automation: (f64, f64),
    /// Controllability `C_Q`, percent (vs. the Verilog optimum).
    pub controllability: f64,
    /// Flexibility `F_Q`.
    pub flexibility: f64,
}

/// Measures one design point on the Table II / Fig. 1 workload:
/// optimizes the netlist, synthesizes twice (default and `maxdsp=0`),
/// simulates the stream interface against the golden fixed-point IDCT
/// and derives throughput and quality. Use [`measure_uncached`] for the
/// cold-pipeline baseline.
///
/// # Panics
///
/// Panics if the design is not bit-exact with the golden fixed-point IDCT
/// on the sample blocks — measurement implies conformance.
pub fn measure(design: &Design, nblocks: usize) -> Measurement {
    measure_with(design, &idct_workload(nblocks))
}

/// The §III-C procedure on one design and workload, shared by every
/// experiment.
///
/// The optimize + synthesize front-half is memoized through
/// [`crate::cache::front_half`], keyed on the module's structural hash —
/// sweep points sharing a module (Fig. 1 revisits the Table II designs
/// under many parameters) compute it once. The persistent store also
/// memoizes whole measurements, keyed by the front-half key plus
/// everything else the result depends on (stimulus size, workload,
/// interface model). `label` and `loc` are design metadata, not derived
/// from the module, so they come from the live design, never from disk.
pub(crate) fn measure_with(design: &Design, workload: &Workload<'_>) -> Measurement {
    let front = crate::cache::front_half(&design.module);

    let stored = crate::persist::store().map(|store| {
        let (nblocks, id) = (workload.blocks.len(), workload.id);
        let key = crate::persist::measure_key(front.key, nblocks, id, &design.interface);
        (store, key)
    });
    if let Some((store, key)) = &stored {
        let tier = crate::persist::tier_counters();
        if let Some(mut m) = crate::persist::load_measurement_in(store, key) {
            tier.measure_hits.inc();
            m.label = design.label.clone();
            m.loc = design.loc;
            return m;
        }
        tier.measure_misses.inc();
    }

    let module = front.module.as_ref().clone();
    let m = back_half(design, workload, module, &front.full, &front.nodsp);
    if let Some((store, key)) = &stored {
        crate::persist::save_measurement_in(store, key, &m);
    }
    m
}

/// [`measure`] for callers that must survive a failing design — hc-serve
/// turns the error into a structured JSON response instead of dying.
///
/// The measurement path asserts its invariants by panicking (lost
/// blocks, bit-exactness against the golden model, protocol violations):
/// the right behavior for a batch sweep, fatal for a long-running server
/// fed arbitrary client designs. This wrapper catches the panic, restores
/// the hook, and returns the payload as the error string. The underlying
/// state is panic-safe: the front-half cache completes every mutation
/// before control leaves the shard lock.
///
/// # Errors
///
/// The panic payload of the failed measurement, stringified.
pub fn try_measure(design: &Design, nblocks: usize) -> Result<Measurement, String> {
    let design = design.clone();
    quiet_catch(move || measure(&design, nblocks))
}

/// Runs a measurement closure with panics caught, printing suppressed and
/// the payload stringified — the shared probe machinery behind
/// [`try_measure`] and [`crate::matrix::try_measure_cell`].
pub(crate) fn quiet_catch(f: impl FnOnce() -> Measurement) -> Result<Measurement, String> {
    use std::cell::Cell;
    use std::sync::Once;

    thread_local! {
        static SUPPRESS_PANIC_PRINT: Cell<bool> = const { Cell::new(false) };
    }
    // The default hook prints "thread panicked at ..." plus a backtrace for
    // every caught probe — log spam for a server fed bad designs. Swapping
    // hooks per call would race (two overlapping probes can leak the silent
    // hook process-wide), so install a delegating hook exactly once and
    // gate the suppression through a thread-local only this probe sets.
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_PRINT.with(Cell::get) {
                prev(info);
            }
        }));
    });

    SUPPRESS_PANIC_PRINT.with(|f| f.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    SUPPRESS_PANIC_PRINT.with(|f| f.set(false));
    result.map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "measurement failed (non-string panic payload)".to_owned())
    })
}

/// The legacy cold pipeline: clone, optimize, synthesize twice and
/// simulate, sharing nothing across points. This is what every sweep did
/// before the memo cache existed; the fig1 benchmark keeps it as its
/// serial baseline so `fig1_speedup` measures the end-to-end win of the
/// cached + chunked driver over the old per-point pipeline.
///
/// # Panics
///
/// As [`measure`].
pub fn measure_uncached(design: &Design, nblocks: usize) -> Measurement {
    let mut module = design.module.clone();
    optimize(&mut module);
    let device = Device::xcvu9p();
    let full = synthesize(&module, &device, &SynthOptions::default());
    let nodsp = synthesize(&module, &device, &SynthOptions::no_dsp());
    back_half(design, &idct_workload(nblocks), module, &full, &nodsp)
}

/// Simulates the (already optimized) module on the workload, asserts
/// every output block against the golden model, and assembles the
/// [`Measurement`] from the two synthesis reports.
fn back_half(
    design: &Design,
    workload: &Workload<'_>,
    module: hc_rtl::Module,
    full: &hc_synth::SynthReport,
    nodsp: &hc_synth::SynthReport,
) -> Measurement {
    let fmax = full.timing.fmax_mhz();
    let blocks = &workload.blocks;
    let label = design.label.as_str();

    let mut span = hc_obs::span("simulate").with("design", label);
    span.attach("blocks", blocks.len());
    let (outputs, latency, periodicity) = match design.interface {
        DesignInterface::Axis => {
            // Blocks are independent stimuli, so they ride the lane-batched
            // engine: one contiguous chunk per lane, lane 0's chunk starting
            // at reset so its T_L/T_P equal the scalar harness figures (the
            // root equivalence suite pins this against the interpreted
            // oracle).
            let lanes = lanes_for_blocks(blocks.len());
            let mut harness = BatchedStreamHarness::with_spec(module, lanes, workload.geometry)
                .expect("measured designs validate");
            let budget = AXIS_CYCLES_PER_BLOCK * (blocks.len() as u64 + 4);
            let (outputs, timing) = harness.run_blocks_flat(blocks, budget);
            assert!(
                harness.protocol_errors.is_empty(),
                "{label}: AXI-Stream protocol violation"
            );
            (outputs, timing.latency, timing.periodicity)
        }
        DesignInterface::Stream { .. } => drive_stream(module, workload),
    };
    assert_eq!(outputs.len(), blocks.len(), "{label}: lost blocks");
    for (i, (b, o)) in blocks.iter().zip(&outputs).enumerate() {
        assert_eq!(*o, (workload.golden)(b), "{label}: block {i} not bit-exact");
    }
    span.attach("latency", latency);
    span.attach("periodicity", periodicity);
    drop(span);

    let throughput_mops = match design.interface {
        DesignInterface::Axis => fmax / periodicity as f64,
        DesignInterface::Stream { bits_per_op } => {
            let pcie = PcieLink::gen3_x16().ops_per_second(bits_per_op) / 1e6;
            pcie.min(fmax / periodicity as f64)
        }
    };
    let q = metrics::quality(throughput_mops, nodsp.area.normalized());

    Measurement {
        label: design.label.clone(),
        fmax_mhz: fmax,
        t_clk_ns: full.timing.t_clk_ns,
        latency,
        periodicity,
        throughput_mops,
        area: full.area,
        area_nodsp: nodsp.area,
        q,
        loc: design.loc,
    }
}

/// Drives a MaxJ-style `in_data`/`in_valid` → `out_data`/`out_valid`
/// kernel with the workload's blocks; returns the output blocks plus
/// (latency, periodicity). A kernel whose `in_data` is exactly one row
/// wide (the MaxJ IDCT row kernel) takes one row per cycle, every other
/// one a whole block per cycle; `out_data` always carries a whole block.
///
/// Runs on the native (per-cone JIT) engine — stream kernels are
/// single-stimulus, so they can't ride the lane-batched engine the AXIS
/// designs use, and the JIT is the fastest single-stream tier. Off
/// x86-64 (or under `HC_NO_NATIVE=1`) it degrades to the tape
/// interpreter with identical results.
fn drive_stream(module: hc_rtl::Module, workload: &Workload<'_>) -> (Vec<Vec<i32>>, u64, u64) {
    let g = workload.geometry;
    let in_width = module.input_named("in_data").expect("stream port").width;
    let word_elems = if in_width == g.in_row_width() {
        g.cols as usize
    } else {
        g.elems()
    };
    let words: Vec<Bits> = workload
        .blocks
        .iter()
        .flat_map(|b| b.chunks(word_elems))
        .map(|w| pack_elems_n(w, g.in_elem_width))
        .collect();

    let mut sim = NativeSimulator::new(module).expect("kernel validates");
    sim.set_u64("rst", 1);
    sim.set_u64("in_valid", 0);
    sim.step();
    sim.set_u64("rst", 0);
    sim.set_u64("in_valid", 1);

    let zero = Bits::zero(in_width);
    let mut out_cycles: Vec<u64> = Vec::new();
    let mut outputs: Vec<Vec<i32>> = Vec::new();
    for cycle in 0..(words.len() as u64 + STREAM_FLUSH_CYCLES) {
        let word = words.get(cycle as usize).unwrap_or(&zero);
        sim.set("in_data", word.clone());
        if sim.get("out_valid").to_bool() {
            out_cycles.push(cycle);
            let word = sim.get("out_data");
            outputs.push(unpack_elems_n(&word, g.out_elem_width, g.elems()));
        }
        sim.step();
        if outputs.len() >= workload.blocks.len() {
            break;
        }
    }
    let latency = out_cycles.first().map_or(0, |c| c + 1);
    let periodicity = match out_cycles[..] {
        [.., prev, last] => last - prev,
        _ => 1,
    };
    (outputs, latency, periodicity)
}

/// Measures every tool's initial and optimized designs and derives the
/// cross-tool metrics of Table II. `nblocks` controls simulation effort.
///
/// The 2×N design points are independent, so they fan out across the
/// available cores; results are reassembled in tool order, making the
/// output identical to a serial run.
pub fn measure_all(tools: &[ToolEntry], nblocks: usize) -> Vec<ToolRow> {
    let designs: Vec<&Design> = tools
        .iter()
        .flat_map(|t| [&t.initial, &t.optimized])
        .collect();
    let points = parallel_map(&designs, |d| measure(d, nblocks));
    let measured: Vec<(Measurement, Measurement)> = points
        .chunks_exact(2)
        .map(|pair| (pair[0].clone(), pair[1].clone()))
        .collect();
    let verilog_idx = tools
        .iter()
        .position(|t| t.info.id == ToolId::Verilog)
        .expect("the Verilog baseline is part of every run");
    let verilog_best_q = measured[verilog_idx].1.q;
    let verilog_loc = (measured[verilog_idx].0.loc, measured[verilog_idx].1.loc);

    tools
        .iter()
        .zip(measured)
        .map(|(t, (initial, optimized))| {
            let automation = (
                metrics::automation(initial.loc, verilog_loc.0),
                metrics::automation(optimized.loc, verilog_loc.1),
            );
            let controllability = metrics::controllability(optimized.q, verilog_best_q);
            let flexibility = metrics::flexibility(optimized.q, initial.q, t.delta_loc);
            ToolRow {
                id: t.info.id,
                initial,
                optimized,
                delta_loc: t.delta_loc,
                automation,
                controllability,
                flexibility,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_measure_reports_bad_designs_instead_of_dying() {
        // A module without the AXIS contract can't be driven: measure()
        // panics, try_measure returns the payload as an error.
        let mut m = hc_rtl::Module::new("not_an_idct");
        let a = m.input("a", 8);
        m.output("y", a);
        let bad = Design {
            label: "bad".into(),
            module: m,
            interface: DesignInterface::Axis,
            loc: 1,
        };
        let err = try_measure(&bad, 2).expect_err("a portless design cannot measure");
        assert!(!err.is_empty());
        // The path stays healthy afterwards: a real design still measures.
        let good = Design {
            label: "good".into(),
            module: hc_verilog::designs::initial_design().expect("parses"),
            interface: DesignInterface::Axis,
            loc: 1,
        };
        let meas = try_measure(&good, 2).expect("the Verilog initial design measures");
        assert!(meas.throughput_mops > 0.0);
    }
}
