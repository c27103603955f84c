//! Pure evaluation of combinational nodes — shared by the simulator and the
//! constant-folding pass so they can never disagree on semantics.

use crate::{BinaryOp, Node, UnaryOp};
use hc_bits::Bits;
use std::borrow::Borrow;

/// Evaluates a pure (state-free) node given its operand values (owned or
/// borrowed), producing a result of `width` bits.
///
/// Returns `None` for nodes that depend on state or the environment
/// (`Input`, `RegOut`, `MemRead`), which the caller must resolve itself.
///
/// # Panics
///
/// Panics if `args` does not match the node's operand count/widths (the
/// module is expected to have passed [`crate::Module::validate`]).
pub fn eval_pure<B: Borrow<Bits>>(node: &Node, width: u32, args: &[B]) -> Option<Bits> {
    let arg = |i: usize| args[i].borrow();
    let out = match node {
        Node::Const(v) => v.clone(),
        Node::Input(_) | Node::RegOut(_) | Node::MemRead { .. } => return None,
        Node::Unary(op, _) => {
            let a = arg(0);
            match op {
                UnaryOp::Not => a.not(),
                UnaryOp::Neg => a.neg(),
                UnaryOp::ReduceOr => a.reduce_or(),
                UnaryOp::ReduceAnd => a.reduce_and(),
                UnaryOp::ReduceXor => a.reduce_xor(),
            }
        }
        Node::Binary(op, ..) => {
            let (a, b) = (arg(0), arg(1));
            match op {
                BinaryOp::Add => a.add(b),
                BinaryOp::Sub => a.sub(b),
                BinaryOp::MulS => a.mul(b, width),
                BinaryOp::MulU => {
                    // Zero-extend so the signed multiplier sees non-negative
                    // values; the low `width` bits are then the unsigned
                    // product.
                    let aw = a.zext(a.width() + 1);
                    let bw = b.zext(b.width() + 1);
                    aw.mul(&bw, width)
                }
                BinaryOp::DivU => a.div_u(b),
                BinaryOp::RemU => a.rem_u(b),
                BinaryOp::And => a.and(b),
                BinaryOp::Or => a.or(b),
                BinaryOp::Xor => a.xor(b),
                BinaryOp::Eq => a.eq_bits(b),
                BinaryOp::Ne => a.eq_bits(b).not(),
                BinaryOp::LtU => a.lt_u(b),
                BinaryOp::LtS => a.lt_s(b),
                BinaryOp::LeU => b.lt_u(a).not(),
                BinaryOp::LeS => b.lt_s(a).not(),
                BinaryOp::Shl => a.shl_dyn(b),
                BinaryOp::ShrL => a.shr_dyn(b),
                BinaryOp::ShrA => a.shr_arith_dyn(b),
            }
        }
        Node::Mux { .. } => {
            let (sel, t, f) = (arg(0), arg(1), arg(2));
            t.mux(f, sel.to_bool())
        }
        Node::Concat(..) => arg(0).concat(arg(1)),
        Node::Slice { lo, .. } => arg(0).slice(*lo, width),
        Node::ZExt(_) => arg(0).zext(width),
        Node::SExt(_) => arg(0).sext(width),
    };
    debug_assert_eq!(out.width(), width, "evaluator produced wrong width");
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(w: u32, v: i64) -> Bits {
        Bits::from_i64(w, v)
    }

    #[test]
    fn binary_semantics() {
        let n = |op| Node::Binary(op, crate::NodeId::new(0), crate::NodeId::new(1));
        assert_eq!(
            eval_pure(&n(BinaryOp::Add), 8, &[b(8, 100), b(8, 100)])
                .unwrap()
                .to_i64(),
            -56
        );
        assert_eq!(
            eval_pure(&n(BinaryOp::MulS), 16, &[b(8, -3), b(8, 5)])
                .unwrap()
                .to_i64(),
            -15
        );
        // Unsigned multiply differs from signed at narrow widths.
        assert_eq!(
            eval_pure(&n(BinaryOp::MulU), 8, &[b(4, -1), b(4, -1)])
                .unwrap()
                .to_u64(),
            225
        );
        assert_eq!(
            eval_pure(&n(BinaryOp::ShrA), 8, &[b(8, -16), Bits::from_u64(3, 2)])
                .unwrap()
                .to_i64(),
            -4
        );
        assert_eq!(
            eval_pure(&n(BinaryOp::LeS), 1, &[b(8, -1), b(8, 0)])
                .unwrap()
                .to_u64(),
            1
        );
    }

    #[test]
    fn stateful_nodes_are_deferred() {
        assert!(eval_pure::<Bits>(&Node::Input(0), 8, &[]).is_none());
        assert!(eval_pure::<Bits>(&Node::RegOut(crate::RegId::new(0)), 8, &[]).is_none());
    }

    #[test]
    fn mux_and_shape_ops() {
        let mux = Node::Mux {
            sel: crate::NodeId::new(0),
            on_true: crate::NodeId::new(1),
            on_false: crate::NodeId::new(2),
        };
        assert_eq!(
            eval_pure(&mux, 8, &[Bits::from_bool(true), b(8, 1), b(8, 2)])
                .unwrap()
                .to_i64(),
            1
        );
        let cat = Node::Concat(crate::NodeId::new(0), crate::NodeId::new(1));
        assert_eq!(
            eval_pure(&cat, 8, &[Bits::from_u64(4, 0xa), Bits::from_u64(4, 0xb)])
                .unwrap()
                .to_u64(),
            0xab
        );
    }
}
