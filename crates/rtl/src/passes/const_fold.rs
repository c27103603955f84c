//! Constant folding and algebraic simplification.

use crate::passes::apply_replacement;
use crate::passes::eval::eval_pure;
use crate::{BinaryOp, Module, Node, NodeId};
use hc_bits::Bits;

/// Folds nodes whose operands are constants and applies width-preserving
/// algebraic identities (`x + 0`, `x * 1`, `x & 0`, shift-by-0, constant-
/// select muxes, …). Dead originals are left for [`super::dce`] to collect.
pub fn const_fold(module: &mut Module) {
    let n = module.nodes().len();
    // replace[i] = the node that should be used instead of node i. Every
    // entry is a fixed point (replace[replace[i]] == replace[i]), so the
    // remapped operands below name canonical nodes, and a canonical node
    // is constant exactly when it is a `Const` node.
    let mut replace: Vec<NodeId> = (0..n).map(NodeId::new).collect();

    for i in 0..n {
        let id = NodeId::new(i);
        module
            .node_mut(id)
            .node
            .remap_operands(|op| replace[op.index()]);
        let nd = module.node(id);
        if matches!(nd.node, Node::Const(_)) {
            continue;
        }
        let simplified = match fold(module, &nd.node, nd.width) {
            Some(v) => Some(Simplified::Value(v)),
            None => identity(module, &nd.node, nd.width),
        };
        match simplified {
            Some(Simplified::Alias(alias)) => replace[i] = alias,
            Some(Simplified::Value(v)) => {
                let new = module.constant(v);
                replace.push(new); // self-map for the appended node
                replace[i] = new;
            }
            None => {}
        }
    }

    apply_replacement(module, &replace);
}

/// The value of a canonical node, if it is a constant.
fn const_value(module: &Module, id: NodeId) -> Option<&Bits> {
    match &module.node(id).node {
        Node::Const(v) => Some(v),
        _ => None,
    }
}

/// The value a pure node computes when every operand is a constant.
fn fold(module: &Module, node: &Node, width: u32) -> Option<Bits> {
    if matches!(
        node,
        Node::Input(_) | Node::RegOut(_) | Node::MemRead { .. }
    ) {
        return None;
    }
    let mut all_const = true;
    node.for_each_operand(|id| all_const &= const_value(module, id).is_some());
    if !all_const {
        return None;
    }
    let mut args = Vec::with_capacity(3);
    node.for_each_operand(|id| args.extend(const_value(module, id)));
    eval_pure(node, width, &args)
}

/// All bits set (bits above the width are zero by `Bits`' invariant).
fn is_ones(v: &Bits) -> bool {
    v.count_ones() == v.width()
}

/// Result of an algebraic simplification: an existing equivalent node, or a
/// value the node always computes.
enum Simplified {
    Alias(NodeId),
    Value(Bits),
}

/// Returns an existing node this node is equivalent to — or a constant it
/// always evaluates to — if an algebraic identity applies.
fn identity(module: &Module, node: &Node, width: u32) -> Option<Simplified> {
    use Simplified::{Alias, Value};
    let cval = |id: NodeId| const_value(module, id);
    match *node {
        Node::Binary(op, a, b) => {
            let (ca, cb) = (cval(a), cval(b));
            match op {
                BinaryOp::Add | BinaryOp::Or | BinaryOp::Xor | BinaryOp::Sub => {
                    if (op == BinaryOp::Sub || op == BinaryOp::Xor) && a == b {
                        return Some(Value(Bits::zero(width)));
                    }
                    if op == BinaryOp::Or && a == b {
                        return Some(Alias(a));
                    }
                    if op == BinaryOp::Or && (ca.is_some_and(is_ones) || cb.is_some_and(is_ones)) {
                        return Some(Value(Bits::ones(width)));
                    }
                    if op != BinaryOp::Sub && ca.is_some_and(Bits::is_zero) {
                        return Some(Alias(b));
                    }
                    if cb.is_some_and(Bits::is_zero) {
                        return Some(Alias(a));
                    }
                    None
                }
                BinaryOp::And => {
                    if a == b {
                        return Some(Alias(a));
                    }
                    if ca.is_some_and(Bits::is_zero) || cb.is_some_and(Bits::is_zero) {
                        return Some(Value(Bits::zero(width)));
                    }
                    if ca.is_some_and(is_ones) {
                        return Some(Alias(b));
                    }
                    if cb.is_some_and(is_ones) {
                        return Some(Alias(a));
                    }
                    None
                }
                BinaryOp::MulS | BinaryOp::MulU => {
                    if ca.is_some_and(Bits::is_zero) || cb.is_some_and(Bits::is_zero) {
                        return Some(Value(Bits::zero(width)));
                    }
                    // x * 1 keeps the value when the result width covers x.
                    if cb.is_some_and(|v| v.to_u64() == 1 && v.count_ones() == 1)
                        && module.width(a) == width
                    {
                        return Some(Alias(a));
                    }
                    if ca.is_some_and(|v| v.to_u64() == 1 && v.count_ones() == 1)
                        && module.width(b) == width
                    {
                        return Some(Alias(b));
                    }
                    None
                }
                BinaryOp::Eq | BinaryOp::LeU | BinaryOp::LeS if a == b => {
                    Some(Value(Bits::from_u64(width, 1)))
                }
                BinaryOp::Ne | BinaryOp::LtU | BinaryOp::LtS if a == b => {
                    Some(Value(Bits::zero(width)))
                }
                BinaryOp::Shl | BinaryOp::ShrL | BinaryOp::ShrA => {
                    if ca.is_some_and(Bits::is_zero) {
                        return Some(Value(Bits::zero(width)));
                    }
                    if cb.is_some_and(Bits::is_zero) {
                        return Some(Alias(a));
                    }
                    None
                }
                _ => None,
            }
        }
        Node::Mux {
            sel,
            on_true,
            on_false,
        } => match cval(sel) {
            Some(v) if v.to_bool() => Some(Alias(on_true)),
            Some(_) => Some(Alias(on_false)),
            None if on_true == on_false => Some(Alias(on_true)),
            None => None,
        },
        Node::ZExt(a) | Node::SExt(a) if module.width(a) == width => Some(Alias(a)),
        Node::Slice { src, lo } if lo == 0 && module.width(src) == width => Some(Alias(src)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::dce;

    #[test]
    fn folds_constant_tree() {
        let mut m = Module::new("t");
        let a = m.const_i(16, 300);
        let b = m.const_i(16, -45);
        let s = m.binary(BinaryOp::Add, a, b, 16);
        m.output("y", s);
        const_fold(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(m.nodes().len(), 1);
        match &m.node(m.outputs()[0].node).node {
            Node::Const(v) => assert_eq!(v.to_i64(), 255),
            other => panic!("expected const, got {other:?}"),
        }
    }

    #[test]
    fn add_zero_identity() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let z = m.const_u(8, 0);
        let s = m.binary(BinaryOp::Add, a, z, 8);
        m.output("y", s);
        const_fold(&mut m);
        assert_eq!(m.outputs()[0].node, a);
    }

    #[test]
    fn mux_constant_select() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let sel = m.const_u(1, 1);
        let y = m.mux(sel, a, b);
        m.output("y", y);
        const_fold(&mut m);
        assert_eq!(m.outputs()[0].node, a);
    }

    #[test]
    fn ports_follow_nodes_the_sort_moves() {
        // The folded constant lands before its user, shifting every later
        // node, including an input declared after the logic.
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let c1 = m.const_u(8, 3);
        let c2 = m.const_u(8, 4);
        let k = m.binary(BinaryOp::Add, c1, c2, 8);
        let s = m.binary(BinaryOp::Add, a, k, 8);
        let b = m.input("b", 8);
        let y = m.binary(BinaryOp::Add, s, b, 8);
        m.output("y", y);
        const_fold(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        for (idx, port) in m.inputs().iter().enumerate() {
            assert_eq!(m.node(port.node).node, Node::Input(idx), "{}", port.name);
        }
    }

    #[test]
    fn folding_respects_registers() {
        // Register feedback must not be folded even with constant next.
        let mut m = Module::new("t");
        let r = m.reg("r", 8, Bits::zero(8));
        let q = m.reg_out(r);
        let one = m.const_u(8, 1);
        let nx = m.binary(BinaryOp::Add, q, one, 8);
        m.connect_reg(r, nx);
        m.output("q", q);
        const_fold(&mut m);
        m.validate().unwrap();
        assert!(matches!(m.node(m.outputs()[0].node).node, Node::RegOut(_)));
    }
}
