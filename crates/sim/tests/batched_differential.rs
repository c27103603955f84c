//! Differential test for the lane-batched backend: every lane of a
//! [`BatchedSimulator`] must be bit-exact with a scalar run of the same
//! stimulus on the interpreter (the reference oracle) and on the compiled
//! backend.
//!
//! Lane counts are random and include the degenerate single-lane case;
//! per-lane stimulus lengths are ragged, so lanes finish at different
//! times and are masked out mid-run — the masked lanes' register state
//! and cycle counters must stay frozen while the stragglers continue.

mod common;

use common::{drive, step_strategy, Stim, WIDE};
use hc_bits::Bits;
use hc_sim::{BatchedSimulator, CompiledSimulator, SimBackend, Simulator};
use proptest::prelude::*;

/// Applies one cycle of stimulus to one lane of the batched simulator
/// (mirrors `drive` for the scalar backends).
fn set_lane(sim: &mut BatchedSimulator, lane: usize, stim: Stim) {
    let (a, b, c, wlo, whi, rst) = stim;
    sim.set_u64(lane, "i0", a);
    sim.set_u64(lane, "i1", b);
    sim.set_u64(lane, "i2", c);
    let mut w = Bits::zero(WIDE);
    w.deposit_u64(0, 64, wlo);
    w.deposit_u64(64, WIDE - 64, whi);
    sim.set(lane, "wi", w);
    sim.set_u64(lane, "rst", u64::from(rst));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn batched_lanes_match_scalar_backends(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        lane_stims in proptest::collection::vec(
            proptest::collection::vec(
                (0u64..4096, 0u64..4096, 0u64..4096, any::<u64>(), 0u64..(1 << 16), any::<bool>()),
                1..12,
            ),
            1..6,
        ),
    ) {
        let module = common::build(&steps);
        module.validate().expect("generated module is valid");
        let lanes = lane_stims.len();

        // Scalar references, one pair per lane.
        let mut interp: Vec<Simulator> = Vec::new();
        let mut compiled: Vec<CompiledSimulator> = Vec::new();
        let mut expected = Vec::new();
        for stim in &lane_stims {
            let mut r = Simulator::new(module.clone()).expect("interpreter accepts");
            let mut c = CompiledSimulator::new(module.clone()).expect("compiler accepts");
            let t = drive(&mut r, stim);
            prop_assert_eq!(&t, &drive(&mut c, stim));
            expected.push(t);
            interp.push(r);
            compiled.push(c);
        }

        // One batched run, lanes in lockstep; a lane is masked out as soon
        // as its (ragged) stimulus is exhausted.
        let mut batched = BatchedSimulator::new(module, lanes).expect("compiler accepts");
        let mut traces = vec![Vec::new(); lanes];
        let longest = lane_stims.iter().map(Vec::len).max().unwrap();
        for t in 0..longest {
            for (lane, stim) in lane_stims.iter().enumerate() {
                if let Some(&s) = stim.get(t) {
                    set_lane(&mut batched, lane, s);
                }
            }
            for (lane, stim) in lane_stims.iter().enumerate() {
                if t < stim.len() {
                    traces[lane].push((
                        batched.get(lane, "y0"),
                        batched.get(lane, "y1"),
                        batched.get(lane, "yw"),
                    ));
                }
            }
            batched.step();
            for (lane, stim) in lane_stims.iter().enumerate() {
                if t + 1 == stim.len() {
                    batched.set_active(lane, false);
                }
            }
        }

        for lane in 0..lanes {
            prop_assert_eq!(&traces[lane], &expected[lane], "lane {} trace", lane);
            prop_assert_eq!(
                batched.cycle(lane),
                lane_stims[lane].len() as u64,
                "lane {} cycle counter froze at masking", lane
            );
            for reg in ["r0", "wr"] {
                prop_assert_eq!(
                    batched.peek_reg(lane, reg),
                    SimBackend::peek_reg(&interp[lane], reg),
                    "lane {} register {} diverged", lane, reg
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// FSM-and-datapath modules, whose registers share a few one-hot,
    /// port or register-output enables and resets, through the batched
    /// engine at 1, 3, 4 and 16 lanes with ragged retirement, against the
    /// interpreter oracle register by register.
    #[test]
    fn batched_fsm_commit_matches_interpreter(
        regs in proptest::collection::vec(common::fsm_reg_strategy(), 4..24),
        lane_stims in common::fsm_lanes_strategy(),
    ) {
        let module = common::build_fsm(&regs);
        module.validate().expect("generated module is valid");
        let mut batched =
            BatchedSimulator::new(module.clone(), lane_stims.len()).expect("compiler accepts");
        common::check_fsm_lanes(&module, &mut batched, &lane_stims)?;
    }
}
