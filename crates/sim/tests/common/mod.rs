//! Shared random-module generator and stimulus driver for the
//! differential suites: a recipe-based builder covering both value
//! representations (narrow `u64` slots and wide values), registers with
//! enables and synchronous resets, and a multi-port memory.
#![allow(dead_code)] // each test crate uses a subset

use hc_bits::Bits;
use hc_rtl::{BinaryOp, Module, NodeId, UnaryOp};
use hc_sim::SimBackend;
use proptest::prelude::*;

/// Width of the narrow value pool — fits a single `u64` slot.
pub const WIDTH: u32 = 12;
/// Width of the wide value pool — forces the `Bits` side table.
pub const WIDE: u32 = 80;

/// A recipe for one node, interpreted against the pools built so far.
/// Indices are taken modulo the pool length, so any `usize` is valid.
#[derive(Clone, Debug)]
pub enum Step {
    Const(i64),
    Unary(u8, usize),
    Binary(u8, usize, usize),
    Mux(usize, usize, usize),
    /// Narrow → wide extension (zero or sign), result joins the wide pool.
    Widen(bool, usize),
    /// Wide op over the wide pool, result stays wide.
    WideBinary(u8, usize, usize),
    /// Wide mux (select from the narrow pool).
    WideMux(usize, usize, usize),
    /// Slice a wide value back down to the narrow pool.
    Narrow(u8, usize),
    /// Wide comparison, zero-extended into the narrow pool.
    WideCompare(bool, usize, usize),
}

pub fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (-2048i64..2048).prop_map(Step::Const),
        (0u8..6, any::<usize>()).prop_map(|(op, a)| Step::Unary(op, a)),
        (0u8..16, any::<usize>(), any::<usize>()).prop_map(|(op, a, b)| Step::Binary(op, a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(s, a, b)| Step::Mux(s, a, b)),
        (any::<bool>(), any::<usize>()).prop_map(|(z, a)| Step::Widen(z, a)),
        (0u8..7, any::<usize>(), any::<usize>()).prop_map(|(op, a, b)| Step::WideBinary(op, a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(s, a, b)| Step::WideMux(s, a, b)),
        (0u8..6, any::<usize>()).prop_map(|(op, a)| Step::Narrow(op, a)),
        (any::<bool>(), any::<usize>(), any::<usize>())
            .prop_map(|(eq, a, b)| Step::WideCompare(eq, a, b)),
    ]
}

/// Builds a module with three narrow inputs, one wide input, an enabled +
/// resettable register pair (one narrow, one wide) and a small memory.
/// Every narrow intermediate is `WIDTH` bits and every wide one `WIDE`
/// bits, so recipes always type-check.
pub fn build(steps: &[Step]) -> Module {
    let mut m = Module::new("differential");
    let mut narrow: Vec<NodeId> = vec![
        m.input("i0", WIDTH),
        m.input("i1", WIDTH),
        m.input("i2", WIDTH),
    ];
    let wi = m.input("wi", WIDE);
    let rst = m.input("rst", 1);

    let r0 = m.reg("r0", WIDTH, Bits::from_i64(WIDTH, -5));
    let wr = m.reg("wr", WIDE, Bits::from_i64(WIDE, -1));
    narrow.push(m.reg_out(r0));
    let mut wide: Vec<NodeId> = vec![wi, m.reg_out(wr)];

    for step in steps {
        let pick = |i: usize| narrow[i % narrow.len()];
        let pick_w = |i: usize| wide[i % wide.len()];
        match *step {
            Step::Const(v) => narrow.push(m.const_i(WIDTH, v)),
            Step::Unary(op, a) => {
                let a = pick(a);
                let node = match op % 6 {
                    0 => m.unary(UnaryOp::Not, a),
                    1 => m.unary(UnaryOp::Neg, a),
                    n => {
                        let red = match n {
                            2 => UnaryOp::ReduceOr,
                            3 => UnaryOp::ReduceAnd,
                            _ => UnaryOp::ReduceXor,
                        };
                        let r = m.unary(red, a);
                        m.zext(r, WIDTH)
                    }
                };
                narrow.push(node);
            }
            Step::Binary(op, a, b) => {
                let (a, b) = (pick(a), pick(b));
                let node = match op % 16 {
                    0 => m.binary(BinaryOp::Add, a, b, WIDTH),
                    1 => m.binary(BinaryOp::Sub, a, b, WIDTH),
                    2 => m.binary(BinaryOp::MulS, a, b, WIDTH),
                    3 => m.binary(BinaryOp::MulU, a, b, WIDTH),
                    4 => m.binary(BinaryOp::DivU, a, b, WIDTH),
                    5 => m.binary(BinaryOp::RemU, a, b, WIDTH),
                    6 => m.binary(BinaryOp::And, a, b, WIDTH),
                    7 => m.binary(BinaryOp::Or, a, b, WIDTH),
                    8 => m.binary(BinaryOp::Xor, a, b, WIDTH),
                    9 => {
                        // 4-bit amount reaches 15 ≥ WIDTH: saturation path.
                        let amt = m.slice(b, 0, 4);
                        m.binary(BinaryOp::Shl, a, amt, WIDTH)
                    }
                    10 => {
                        let amt = m.slice(b, 0, 4);
                        m.binary(BinaryOp::ShrL, a, amt, WIDTH)
                    }
                    11 => {
                        let amt = m.slice(b, 0, 4);
                        m.binary(BinaryOp::ShrA, a, amt, WIDTH)
                    }
                    n => {
                        let cmp = match n {
                            12 => BinaryOp::LtU,
                            13 => BinaryOp::LtS,
                            14 => BinaryOp::LeU,
                            _ => BinaryOp::LeS,
                        };
                        let c = m.binary(cmp, a, b, 1);
                        m.zext(c, WIDTH)
                    }
                };
                narrow.push(node);
            }
            Step::Mux(s, a, b) => {
                let sel = pick(s);
                let sel1 = m.slice(sel, 0, 1);
                let (a, b) = (pick(a), pick(b));
                let node = m.mux(sel1, a, b);
                narrow.push(node);
            }
            Step::Widen(zero, a) => {
                let a = pick(a);
                let node = if zero {
                    m.zext(a, WIDE)
                } else {
                    m.sext(a, WIDE)
                };
                wide.push(node);
            }
            Step::WideBinary(op, a, b) => {
                let (a, b) = (pick_w(a), pick_w(b));
                let node = match op % 7 {
                    0 => m.binary(BinaryOp::Add, a, b, WIDE),
                    1 => m.binary(BinaryOp::Sub, a, b, WIDE),
                    2 => m.binary(BinaryOp::And, a, b, WIDE),
                    3 => m.binary(BinaryOp::Or, a, b, WIDE),
                    4 => m.binary(BinaryOp::Xor, a, b, WIDE),
                    5 => {
                        // 7-bit amount reaches 127 ≥ WIDE.
                        let amt = m.slice(b, 0, 7);
                        m.binary(BinaryOp::Shl, a, amt, WIDE)
                    }
                    _ => {
                        let amt = m.slice(b, 0, 7);
                        m.binary(BinaryOp::ShrL, a, amt, WIDE)
                    }
                };
                wide.push(node);
            }
            Step::WideMux(s, a, b) => {
                let sel = pick(s);
                let sel1 = m.slice(sel, 0, 1);
                let (a, b) = (pick_w(a), pick_w(b));
                let node = m.mux(sel1, a, b);
                wide.push(node);
            }
            Step::Narrow(lo, a) => {
                let a = pick_w(a);
                // Slice offsets cross the u64 word boundary of the store.
                let lo = u32::from(lo % 6) * 12;
                let node = m.slice(a, lo, WIDTH);
                narrow.push(node);
            }
            Step::WideCompare(eq, a, b) => {
                let (a, b) = (pick_w(a), pick_w(b));
                let op = if eq { BinaryOp::Eq } else { BinaryOp::Ne };
                let c = m.binary(op, a, b, 1);
                let node = m.zext(c, WIDTH);
                narrow.push(node);
            }
        }
    }

    // Memory traffic: write some narrow value at a data-dependent address
    // with a data-dependent enable, read it back at another address.
    let mem = m.mem("scratch", WIDTH, 8);
    let last = *narrow.last().unwrap();
    let mid = narrow[narrow.len() / 2];
    let first = narrow[narrow.len() / 3];
    let waddr = m.slice(last, 0, 3);
    let wen = m.slice(mid, 1, 1);
    m.mem_write(mem, waddr, mid, wen);
    let raddr = m.slice(first, 0, 3);
    let rd = m.mem_read(mem, raddr);
    narrow.push(rd);

    // Close the feedback loops: r0 has an enable and a reset, wr is plain.
    let en = m.slice(mid, 0, 1);
    m.connect_reg(r0, rd);
    m.reg_en(r0, en);
    m.reg_reset(r0, rst);
    m.connect_reg(wr, *wide.last().unwrap());

    m.output("y0", last);
    m.output("y1", rd);
    m.output("yw", *wide.last().unwrap());
    m
}

/// One cycle of stimulus: the three narrow inputs, the two halves of the
/// wide input, and the reset line.
pub type Stim = (u64, u64, u64, u64, u64, bool);

pub fn drive<B: SimBackend>(sim: &mut B, stimulus: &[Stim]) -> Vec<(Bits, Bits, Bits)> {
    let mut trace = Vec::new();
    for &(a, b, c, wlo, whi, rst) in stimulus {
        sim.set_u64("i0", a);
        sim.set_u64("i1", b);
        sim.set_u64("i2", c);
        let mut w = Bits::zero(WIDE);
        w.deposit_u64(0, 64, wlo);
        w.deposit_u64(64, WIDE - 64, whi);
        sim.set("wi", w);
        sim.set_u64("rst", u64::from(rst));
        trace.push((sim.get("y0"), sim.get("y1"), sim.get("yw")));
        sim.step();
    }
    trace
}

/// One-hot states in [`build_fsm`]'s state ring.
pub const FSM_STATES: usize = 4;

/// A recipe for one datapath register of [`build_fsm`]. Indices are taken
/// modulo the length of the pool they pick from.
#[derive(Clone, Debug)]
pub struct FsmReg {
    /// `WIDE` bits instead of `WIDTH`.
    pub wide: bool,
    /// Enable source: a one-hot state bit, the `en` input, `go & s1`, or
    /// none.
    pub en: u8,
    /// Reset source: none, the `rst` input, or the last state bit.
    pub reset: u8,
    /// Next-value operation.
    pub op: u8,
    pub a: usize,
    pub b: usize,
    pub init: i64,
}

pub fn fsm_reg_strategy() -> impl Strategy<Value = FsmReg> {
    (
        (any::<bool>(), any::<u8>(), any::<u8>()),
        (any::<u8>(), any::<usize>(), any::<usize>()),
        -2048i64..2048,
    )
        .prop_map(|((wide, en, reset), (op, a, b), init)| FsmReg {
            wide,
            en,
            reset,
            op,
            a,
            b,
            init,
        })
}

/// Builds an FSM-and-datapath module in the shape sequential HLS emits: a
/// ring of `FSM_STATES` one-bit state registers (one-hot, advanced by the
/// `go` input, reset by `rst`) whose outputs enable many narrow and wide
/// datapath registers. Enables and resets are mostly other registers'
/// outputs or input ports, so many registers share a few enable slots and
/// a reset can be high while its register's enable is low. Every register
/// drives an output of the same name.
pub fn build_fsm(regs: &[FsmReg]) -> Module {
    let mut m = Module::new("fsm");
    let go = m.input("go", 1);
    let en_in = m.input("en", 1);
    let rst = m.input("rst", 1);
    let mut narrow: Vec<NodeId> = vec![m.input("d0", WIDTH), m.input("d1", WIDTH)];
    let mut wide: Vec<NodeId> = vec![m.input("wd", WIDE)];

    let states: Vec<_> = (0..FSM_STATES)
        .map(|k| m.reg(format!("s{k}"), 1, Bits::from_u64(1, u64::from(k == 0))))
        .collect();
    let state_q: Vec<NodeId> = states.iter().map(|&s| m.reg_out(s)).collect();
    for (k, &s) in states.iter().enumerate() {
        m.connect_reg(s, state_q[(k + FSM_STATES - 1) % FSM_STATES]);
        m.reg_en(s, go);
        m.reg_reset(s, rst);
    }
    let go_s1 = m.binary(BinaryOp::And, go, state_q[1], 1);
    let mut enables = state_q.clone();
    enables.extend([en_in, go_s1]);

    let ids: Vec<_> = regs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let width = if r.wide { WIDE } else { WIDTH };
            let id = m.reg(format!("r{i}"), width, Bits::from_i64(width, r.init));
            let q = m.reg_out(id);
            if r.wide { &mut wide } else { &mut narrow }.push(q);
            (id, q)
        })
        .collect();
    for (i, (r, &(id, q))) in regs.iter().zip(&ids).enumerate() {
        let pick = |i: usize| narrow[i % narrow.len()];
        let pick_w = |i: usize| wide[i % wide.len()];
        let next = if r.wide {
            match r.op % 4 {
                0 => m.binary(BinaryOp::Add, pick_w(r.a), pick_w(r.b), WIDE),
                1 => m.binary(BinaryOp::Xor, pick_w(r.a), pick_w(r.b), WIDE),
                2 => m.sext(pick(r.a), WIDE),
                _ => {
                    let sel = m.slice(pick(r.b), 0, 1);
                    m.mux(sel, pick_w(r.a), pick_w(r.b))
                }
            }
        } else {
            match r.op % 4 {
                0 => m.binary(BinaryOp::Add, pick(r.a), pick(r.b), WIDTH),
                1 => m.binary(BinaryOp::Xor, pick(r.a), pick(r.b), WIDTH),
                2 => m.binary(BinaryOp::Sub, pick(r.a), pick(r.b), WIDTH),
                // Slice offsets cross the u64 word boundary of the store.
                _ => m.slice(pick_w(r.a), (r.b % 6) as u32 * 12, WIDTH),
            }
        };
        m.connect_reg(id, next);
        if let Some(&en) = enables.get(usize::from(r.en) % (enables.len() + 1)) {
            m.reg_en(id, en);
        }
        match r.reset % 4 {
            2 => m.reg_reset(id, rst),
            3 => m.reg_reset(id, state_q[FSM_STATES - 1]),
            _ => {}
        }
        m.output(format!("r{i}"), q);
    }
    m
}

/// One cycle of [`build_fsm`] stimulus: `go`, `en`, `rst`, the two narrow
/// data inputs and the low word of the wide one.
pub type FsmStim = (bool, bool, bool, u64, u64, u64);

pub fn fsm_stim_strategy() -> impl Strategy<Value = FsmStim> {
    let odds = |percent: u8| (0u8..100).prop_map(move |x| x < percent);
    (
        odds(70),
        odds(30),
        odds(15),
        0u64..4096,
        0u64..4096,
        any::<u64>(),
    )
}

/// Per-lane stimulus for the FSM checks: 1, 3, 4 or 16 lanes (the
/// degenerate, ragged, one-vector and measurement-default batches), each
/// lane with its own stream length so lanes retire at different cycles.
pub fn fsm_lanes_strategy() -> impl Strategy<Value = Vec<Vec<FsmStim>>> {
    prop_oneof![Just(1usize), Just(3), Just(4), Just(16)].prop_flat_map(|lanes| {
        proptest::collection::vec(proptest::collection::vec(fsm_stim_strategy(), 1..12), lanes)
    })
}

/// The lane-batched engines, as [`check_fsm_lanes`] drives them.
pub trait LaneEngine {
    fn set_u64(&mut self, lane: usize, name: &str, value: u64);
    fn set(&mut self, lane: usize, name: &str, value: Bits);
    fn step(&mut self);
    fn set_active(&mut self, lane: usize, active: bool);
    fn peek_reg(&self, lane: usize, name: &str) -> Bits;
    fn cycle(&self, lane: usize) -> u64;
}

macro_rules! lane_engine {
    ($t:ty) => {
        impl LaneEngine for $t {
            fn set_u64(&mut self, lane: usize, name: &str, value: u64) {
                <$t>::set_u64(self, lane, name, value);
            }
            fn set(&mut self, lane: usize, name: &str, value: Bits) {
                <$t>::set(self, lane, name, value);
            }
            fn step(&mut self) {
                <$t>::step(self);
            }
            fn set_active(&mut self, lane: usize, active: bool) {
                <$t>::set_active(self, lane, active);
            }
            fn peek_reg(&self, lane: usize, name: &str) -> Bits {
                <$t>::peek_reg(self, lane, name)
            }
            fn cycle(&self, lane: usize) -> u64 {
                <$t>::cycle(self, lane)
            }
        }
    };
}
lane_engine!(hc_sim::BatchedSimulator);
lane_engine!(hc_sim::NativeBatchedSimulator);

fn fsm_wide(wlo: u64) -> Bits {
    let mut w = Bits::zero(WIDE);
    w.deposit_u64(0, 64, wlo);
    w.deposit_u64(64, WIDE - 64, wlo.rotate_left(17));
    w
}

/// Drives `engine` (built from `module` with `lane_stims.len()` lanes) in
/// lockstep and every lane alone through the interpreter oracle, comparing
/// every register on every lane after every cycle. A lane is masked out
/// when its stream ends; from then on it is driven with `go` and `en`
/// high and `rst` low, so enables go high on masked lanes only, and its
/// registers and cycle counter must stay frozen.
pub fn check_fsm_lanes<E: LaneEngine>(
    module: &Module,
    engine: &mut E,
    lane_stims: &[Vec<FsmStim>],
) -> Result<(), TestCaseError> {
    let names: Vec<String> = module.regs().iter().map(|r| r.name.clone()).collect();
    // Oracle register snapshots per lane, one per completed cycle.
    let mut expected: Vec<Vec<Vec<Bits>>> = Vec::new();
    for stim in lane_stims {
        let mut oracle = hc_sim::Simulator::new(module.clone()).expect("interpreter accepts");
        let mut snaps = Vec::new();
        for &(go, en, rst, d0, d1, wlo) in stim {
            oracle.set_u64("go", u64::from(go));
            oracle.set_u64("en", u64::from(en));
            oracle.set_u64("rst", u64::from(rst));
            oracle.set_u64("d0", d0);
            oracle.set_u64("d1", d1);
            oracle.set("wd", fsm_wide(wlo));
            oracle.step();
            snaps.push(names.iter().map(|n| oracle.peek_reg(n)).collect());
        }
        expected.push(snaps);
    }
    let longest = lane_stims.iter().map(Vec::len).max().unwrap_or(0);
    for t in 0..longest {
        for (lane, stim) in lane_stims.iter().enumerate() {
            let (go, en, rst, d0, d1, wlo) =
                stim.get(t).copied().unwrap_or((true, true, false, 1, 2, 3));
            engine.set_u64(lane, "go", u64::from(go));
            engine.set_u64(lane, "en", u64::from(en));
            engine.set_u64(lane, "rst", u64::from(rst));
            engine.set_u64(lane, "d0", d0);
            engine.set_u64(lane, "d1", d1);
            engine.set(lane, "wd", fsm_wide(wlo));
        }
        engine.step();
        for (lane, stim) in lane_stims.iter().enumerate() {
            let done = t.min(stim.len() - 1);
            for (n, want) in names.iter().zip(&expected[lane][done]) {
                prop_assert_eq!(
                    &engine.peek_reg(lane, n),
                    want,
                    "lane {} register {} after cycle {}",
                    lane,
                    n,
                    t
                );
            }
            prop_assert_eq!(engine.cycle(lane), done as u64 + 1, "lane {} cycle", lane);
            if t + 1 == stim.len() {
                engine.set_active(lane, false);
            }
        }
    }
    Ok(())
}
