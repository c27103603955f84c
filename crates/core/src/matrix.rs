//! The kernel × frontend benchmark matrix: every registry kernel
//! ([`hc_kernels::kernels`]) crossed with every Table I frontend.
//!
//! The paper's Table II fixes the workload (one 8×8 IDCT) and varies the
//! tool; this module generalizes the experiment along the workload axis so
//! the per-tool metrics (α, C_Φ, Q) can be recomputed per kernel. Each
//! cell is a complete [`Design`] labelled `matrix.<kernel>.<frontend>`,
//! measured with the same synthesize-simulate-derive procedure as the
//! Table II entries and asserted bit-exact against the kernel's golden
//! fixed-point model.

use crate::entries::{Design, DesignInterface};
use crate::measure::{Measurement, Workload, STIM_SEED};
use crate::metrics;
use crate::par::parallel_map;
use crate::tool::ToolId;
use hc_axi::{wrap_comb_matrix, MatrixWrapperSpec};
use hc_hls::{BambuConfig, VivadoHlsConfig};
use hc_kernels::{Algo, KernelSpec};

/// Stage count of the flow (DSLX) cells — the knob the IDCT sweep
/// identified as that frontend's best all-round configuration.
const FLOW_STAGES: u32 = 4;

/// The frontends of the matrix, in Table I order (Verilog first — it is
/// the α/C_Φ baseline for every kernel).
pub const MATRIX_TOOLS: [ToolId; 7] = [
    ToolId::Verilog,
    ToolId::Chisel,
    ToolId::Bsv,
    ToolId::Dslx,
    ToolId::Maxj,
    ToolId::CBambu,
    ToolId::CVivadoHls,
];

/// The frontend column name used in labels, BENCH keys and the service
/// API (`matrix.<kernel>.<slug>`).
pub fn tool_slug(id: ToolId) -> &'static str {
    match id {
        ToolId::Verilog => "verilog",
        ToolId::Chisel => "construct",
        ToolId::Bsv => "rules",
        ToolId::Dslx => "flow",
        ToolId::Maxj => "dataflow",
        ToolId::CBambu => "hls_bambu",
        ToolId::CVivadoHls => "hls_vivado",
    }
}

/// The inverse of [`tool_slug`].
pub fn tool_from_slug(slug: &str) -> Option<ToolId> {
    MATRIX_TOOLS.into_iter().find(|&t| tool_slug(t) == slug)
}

/// The AXI geometry of a kernel's stream wrapper.
pub fn wrapper_spec(spec: &KernelSpec) -> MatrixWrapperSpec {
    MatrixWrapperSpec::new(spec.rows, spec.cols, spec.in_width, spec.out_width)
}

/// Lines of code attributed to one cell, counted the way the paper counts
/// design LOC: the Verilog cell counts its generated source text (the
/// same `count_loc` rules as the hand-written IDCT baseline); the eDSL
/// cells count the kernel-construction functions in their frontend's
/// `matrix` module; the HLS cells add their tool configuration on top.
fn cell_loc(spec: &KernelSpec, id: ToolId) -> usize {
    let fns = |src: &str, names: &[&str]| -> usize {
        names.iter().map(|n| metrics::fn_loc(src, n)).sum()
    };
    let separable = matches!(spec.algo, Algo::Separable { .. });
    match id {
        ToolId::Verilog => hc_verilog::count_loc(&hc_verilog::matrix::matrix_source(spec)),
        ToolId::Chisel => fns(
            hc_construct::matrix::DESIGN_SRC,
            &["matrix_module", "mac", "clip"],
        ),
        ToolId::Bsv => {
            let src = hc_rules::matrix::DESIGN_SRC;
            let body = if separable {
                fns(src, &["separable_impl", "column_of"])
            } else {
                fns(src, &["fir_impl"])
            };
            body + fns(
                src,
                &[
                    "matrix_design",
                    "mac",
                    "clip",
                    "unpack",
                    "pack",
                    "index_width",
                ],
            )
        }
        ToolId::Dslx => fns(
            hc_flow::matrix::DESIGN_SRC,
            &["matrix_kernel", "matrix_design", "mac", "clip"],
        ),
        ToolId::Maxj => fns(
            hc_dataflow::matrix::DESIGN_SRC,
            &["matrix_kernel", "mac", "clip", "pack"],
        ),
        ToolId::CBambu => {
            fns(
                hc_hls::matrix::DESIGN_SRC,
                &["matrix_program", "at", "mac", "clip"],
            ) + BambuConfig::initial().config_loc()
        }
        ToolId::CVivadoHls => {
            fns(
                hc_hls::matrix::DESIGN_SRC,
                &["matrix_program", "at", "mac", "clip"],
            ) + VivadoHlsConfig::optimized().config_loc()
        }
    }
}

/// Builds the complete design for one matrix cell.
///
/// # Panics
///
/// Never panics for registry kernels — each frontend's matrix
/// implementation accepts every registry geometry.
pub fn cell_design(spec: &KernelSpec, id: ToolId) -> Design {
    let label = format!("matrix.{}.{}", spec.id, tool_slug(id));
    let loc = cell_loc(spec, id);
    let (module, interface) = match id {
        ToolId::Verilog => (
            hc_verilog::matrix::matrix_design(spec).expect("generated source elaborates"),
            DesignInterface::Axis,
        ),
        ToolId::Chisel => {
            let kernel = hc_construct::matrix::matrix_module(spec).expect("registry kernels build");
            let elems = spec.elems();
            let m = wrap_comb_matrix(
                &format!("{}_construct_axis", spec.id),
                wrapper_spec(spec),
                |m, inputs| {
                    let outs = m.inline_from("kernel", &kernel, inputs);
                    (0..elems).map(|i| outs[&format!("o{i}")]).collect()
                },
            );
            (m, DesignInterface::Axis)
        }
        ToolId::Bsv => (hc_rules::matrix::matrix_design(spec), DesignInterface::Axis),
        ToolId::Dslx => (
            hc_flow::matrix::matrix_design(spec, FLOW_STAGES),
            DesignInterface::Axis,
        ),
        ToolId::Maxj => {
            let bits_per_op = spec.elems() as u64 * 16;
            (
                hc_dataflow::matrix::matrix_kernel(spec),
                DesignInterface::Stream { bits_per_op },
            )
        }
        ToolId::CBambu => (
            hc_hls::matrix::bambu_matrix_design(spec, &BambuConfig::initial()),
            DesignInterface::Axis,
        ),
        ToolId::CVivadoHls => (
            hc_hls::matrix::vivado_hls_matrix_design(spec, &VivadoHlsConfig::optimized()),
            DesignInterface::Axis,
        ),
    };
    Design {
        label,
        module,
        interface,
        loc,
    }
}

/// All seven cells of one kernel's matrix row, Verilog first.
pub fn matrix_cells(spec: &KernelSpec) -> Vec<(ToolId, Design)> {
    MATRIX_TOOLS
        .into_iter()
        .map(|t| (t, cell_design(spec, t)))
        .collect()
}

/// Measures one matrix cell on its kernel's workload, through the same
/// pipeline as the Table II entries (`measure::measure_with`).
///
/// # Panics
///
/// Panics if the design is not bit-exact with `spec.golden` on the sample
/// blocks — measurement implies conformance.
pub fn measure_cell(spec: &KernelSpec, design: &Design, nblocks: usize) -> Measurement {
    let golden = |block: &[i32]| spec.golden(block);
    let workload = Workload {
        id: spec.id,
        geometry: wrapper_spec(spec),
        blocks: spec.stimulus(nblocks.max(2), STIM_SEED),
        golden: &golden,
    };
    crate::measure::measure_with(design, &workload)
}

/// [`measure_cell`] for callers that must survive a failing design —
/// hc-serve turns the error into a structured JSON response.
///
/// # Errors
///
/// The panic payload of the failed measurement, stringified.
pub fn try_measure_cell(
    spec: &KernelSpec,
    design: &Design,
    nblocks: usize,
) -> Result<Measurement, String> {
    let (spec, design) = (spec.clone(), design.clone());
    crate::measure::quiet_catch(move || measure_cell(&spec, &design, nblocks))
}

/// The registry kernel a design label refers to, if the label follows the
/// matrix naming scheme `matrix.<kernel>.<frontend>`.
pub fn kernel_of_label(label: &str) -> Option<KernelSpec> {
    let rest = label.strip_prefix("matrix.")?;
    let (id, _slug) = rest.split_once('.')?;
    hc_kernels::kernels().into_iter().find(|k| k.id == id)
}

/// One row of a kernel's matrix: a frontend's measurement plus the
/// per-kernel cross-metrics (α against the kernel's Verilog cell LOC,
/// C_Φ against its Q).
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// Which frontend.
    pub tool: ToolId,
    /// The cell's measurement.
    pub measurement: Measurement,
    /// Degree of automation α, percent, vs. this kernel's Verilog cell.
    pub automation: f64,
    /// Controllability C_Q, percent, vs. this kernel's Verilog cell.
    pub controllability: f64,
}

/// Measures a kernel across all seven frontends and derives the
/// per-kernel α/C_Φ columns. Cells fan out across the available cores.
pub fn measure_kernel_matrix(spec: &KernelSpec, nblocks: usize) -> Vec<MatrixRow> {
    let cells = matrix_cells(spec);
    assert_eq!(cells[0].0, ToolId::Verilog, "Verilog is the baseline cell");
    let measured = parallel_map(&cells, |(_, d)| measure_cell(spec, d, nblocks));
    let verilog_loc = measured[0].loc;
    let verilog_q = measured[0].q;
    cells
        .iter()
        .zip(measured)
        .map(|((tool, _), m)| MatrixRow {
            tool: *tool,
            automation: metrics::automation(m.loc, verilog_loc),
            controllability: metrics::controllability(m.q, verilog_q),
            measurement: m,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_round_trip_and_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for t in MATRIX_TOOLS {
            let slug = tool_slug(t);
            assert!(seen.insert(slug), "duplicate slug {slug}");
            assert_eq!(tool_from_slug(slug), Some(t));
        }
        assert_eq!(tool_from_slug("nonesuch"), None);
    }

    #[test]
    fn every_cell_builds_with_positive_loc() {
        for spec in hc_kernels::kernels() {
            for (tool, design) in matrix_cells(&spec) {
                assert_eq!(
                    design.label,
                    format!("matrix.{}.{}", spec.id, tool_slug(tool))
                );
                assert!(design.loc > 0, "{}: zero LOC", design.label);
                assert!(
                    !design.module.outputs().is_empty(),
                    "{}: no outputs",
                    design.label
                );
            }
        }
    }

    #[test]
    fn verilog_loc_varies_with_kernel_size() {
        // The generated-source LOC must be genuinely per-kernel — a 16×16
        // transform is far more text than a 4×4 one.
        let l4 = cell_loc(&hc_kernels::idct4(), ToolId::Verilog);
        let l16 = cell_loc(&hc_kernels::idct16(), ToolId::Verilog);
        assert!(
            l16 > 2 * l4,
            "idct16 verilog ({l16}) should dwarf idct4 ({l4})"
        );
    }

    #[test]
    fn dct8_construct_cell_measures() {
        let spec = hc_kernels::dct8();
        let design = cell_design(&spec, ToolId::Chisel);
        let m = measure_cell(&spec, &design, 2);
        assert!(m.throughput_mops > 0.0);
        assert!(m.q > 0.0);
        assert_eq!(m.label, "matrix.dct8.construct");
    }

    #[test]
    fn fir32_dataflow_cell_measures_as_stream() {
        let spec = hc_kernels::fir32();
        let design = cell_design(&spec, ToolId::Maxj);
        assert!(matches!(
            design.interface,
            DesignInterface::Stream { bits_per_op: 1024 }
        ));
        let m = measure_cell(&spec, &design, 2);
        assert!(m.throughput_mops > 0.0);
        assert_eq!(m.periodicity, 1, "fully pipelined stream kernel");
    }
}
