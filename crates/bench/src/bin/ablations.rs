//! §IV ablations: the design choices the paper's narrative calls out.
//!
//! 1. Verilog unit scaling (8+8 vs 1+8 vs 1+1 butterfly units)
//! 2. The XLS pipeline-stage sweep (quality peak)
//! 3. The sequential-adapter ceiling (AXI wrapper vs raw matrix/cycle kernel)
//! 4. maxdsp=0 normalization (DSP inference on vs off)
use hc_core::entries::{dse_points, Design};
use hc_core::measure::measure;
use hc_core::tool::ToolId;
use hc_rtl::passes::optimize;
use hc_synth::{synthesize, Device, SynthOptions};

fn main() {
    let _trace = hc_obs::trace::flush_on_exit();
    println!(
        "== Ablation 1: Verilog unit scaling (paper: x1.8 throughput, /1.7 area; then x2, /4.6) =="
    );
    let mut base: Option<hc_core::measure::Measurement> = None;
    for d in dse_points(ToolId::Verilog) {
        let m = measure(&d, 3);
        match &base {
            None => {
                println!(
                    "  {:<12} P={:6.2} MOPS  A*={:6}  Q={:5.0}  (baseline)",
                    m.label,
                    m.throughput_mops,
                    m.area_nodsp.normalized(),
                    m.q
                );
                base = Some(m);
            }
            Some(b) => println!(
                "  {:<12} P={:6.2} MOPS  A*={:6}  Q={:5.0}  (P x{:.2}, A /{:.2}, Q x{:.1})",
                m.label,
                m.throughput_mops,
                m.area_nodsp.normalized(),
                m.q,
                m.throughput_mops / b.throughput_mops,
                b.area_nodsp.normalized() as f64 / m.area_nodsp.normalized() as f64,
                m.q / b.q
            ),
        }
    }

    println!("\n== Ablation 2: XLS stage sweep (paper: best quality at 8 stages) ==");
    let mut best = (String::new(), 0.0f64);
    for d in dse_points(ToolId::Dslx) {
        let m = measure(&d, 2);
        println!(
            "  {:<11} fmax={:7.2}  P={:6.2}  A*={:6}  Q={:5.0}",
            m.label,
            m.fmax_mhz,
            m.throughput_mops,
            m.area_nodsp.normalized(),
            m.q
        );
        if m.q > best.1 {
            best = (m.label.clone(), m.q);
        }
    }
    println!("  -> best: {} (Q={:.0})", best.0, best.1);

    println!("\n== Ablation 3: the sequential-adapter ceiling ==");
    let wrapped = measure(&dse_points(ToolId::Verilog)[0], 3);
    let raw = {
        let d = Design {
            label: "matrix/cycle, no adapter".into(),
            module: hc_dataflow::designs::full_matrix_kernel(),
            interface: hc_core::entries::DesignInterface::Stream { bits_per_op: 1024 },
            loc: 0,
        };
        measure(&d, 3)
    };
    println!(
        "  AXI row-by-row : T_P={} -> P={:.2} MOPS at {:.1} MHz",
        wrapped.periodicity, wrapped.throughput_mops, wrapped.fmax_mhz
    );
    println!(
        "  matrix/cycle   : T_P={} -> P={:.2} MOPS (PCIe-bound)",
        raw.periodicity, raw.throughput_mops
    );
    println!("  -> the adapter caps every wrapped design at 1 matrix / 8 cycles (paper: 'could run 8 times faster')");

    println!("\n== Ablation 4: maxdsp normalization ==");
    let mut m = hc_verilog::designs::initial_design().expect("parses");
    optimize(&mut m);
    let dev = Device::xcvu9p();
    let with = synthesize(&m, &dev, &SynthOptions::default());
    let without = synthesize(&m, &dev, &SynthOptions::no_dsp());
    println!(
        "  default : LUT={:6} FF={:5} DSP={}",
        with.area.lut, with.area.ff, with.area.dsp
    );
    println!(
        "  maxdsp=0: LUT={:6} FF={:5} DSP={}  -> A* = {}",
        without.area.lut,
        without.area.ff,
        without.area.dsp,
        without.area.normalized()
    );
    println!("  -> multipliers fold into LUT fabric, making area comparable across tools");
}
