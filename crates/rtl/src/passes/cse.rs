//! Common-subexpression elimination by hash-consing.

use crate::module::NodeData;
use crate::passes::apply_replacement;
use crate::{BinaryOp, Module, Node, NodeId};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Merges structurally identical nodes. Two nodes merge when, after operand
/// remapping, they have the same kind, operands and width; commutative
/// binaries (`a + b` vs `b + a`) are canonicalized before matching. `Input`
/// nodes are never merged (each carries a distinct port index anyway);
/// asynchronous `MemRead`s of the same memory and address are pure within a
/// cycle and do merge. Dead duplicates are left for [`super::dce`].
pub fn cse(module: &mut Module) {
    let n = module.nodes().len();
    let mut replace: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    // First occurrences by key, open-addressed and at most half full: a
    // slot holds a node index + 1 (0 = empty). The keys are the remapped
    // nodes in the table itself, so nothing is cloned.
    let bits = (2 * n).max(2).next_power_of_two().trailing_zeros();
    let mut slots = vec![0u32; 1 << bits];
    let state = RandomState::new();
    let nodes = module.tables_mut().nodes;

    for i in 0..n {
        nodes[i].node.remap_operands(|id| replace[id.index()]);
        if matches!(nodes[i].node, Node::Input(_)) {
            continue;
        }
        let mut slot = (key_hash(&state, &nodes[i]) >> (64 - bits)) as usize;
        loop {
            match slots[slot] as usize {
                0 => {
                    slots[slot] = i as u32 + 1;
                    break;
                }
                first if same_key(&nodes[first - 1], &nodes[i]) => {
                    replace[i] = NodeId::new(first - 1);
                    break;
                }
                _ => slot = (slot + 1) & (slots.len() - 1),
            }
        }
    }

    apply_replacement(module, &replace);
}

/// Hash-consing operand order: commutative binaries sort their operands so
/// `a + b` and `b + a` share a key. (The node itself is left as built —
/// only the key is reordered.)
fn sorted(op: BinaryOp, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    let commutative = matches!(
        op,
        BinaryOp::Add
            | BinaryOp::MulU
            | BinaryOp::MulS
            | BinaryOp::And
            | BinaryOp::Or
            | BinaryOp::Xor
            | BinaryOp::Eq
            | BinaryOp::Ne
    );
    if commutative && b < a {
        (b, a)
    } else {
        (a, b)
    }
}

/// True when two nodes share a hash-consing key: kind, canonical operands
/// and width.
fn same_key(x: &NodeData, y: &NodeData) -> bool {
    x.width == y.width
        && match (&x.node, &y.node) {
            (&Node::Binary(o1, a1, b1), &Node::Binary(o2, a2, b2)) => {
                o1 == o2 && sorted(o1, a1, b1) == sorted(o2, a2, b2)
            }
            (p, q) => p == q,
        }
}

/// A hash consistent with [`same_key`]. The hasher is the standard
/// library's randomly keyed one: modules can arrive over the network, and
/// keys crafted to collide would make the probing quadratic.
fn key_hash(state: &RandomState, nd: &NodeData) -> u64 {
    match nd.node {
        Node::Binary(op, a, b) => state.hash_one((op, sorted(op, a, b), nd.width)),
        ref node => state.hash_one((node, nd.width)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::dce;
    use crate::BinaryOp;

    #[test]
    fn merges_duplicate_adders() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let s1 = m.binary(BinaryOp::Add, a, b, 8);
        let s2 = m.binary(BinaryOp::Add, a, b, 8);
        let y = m.binary(BinaryOp::Xor, s1, s2, 8);
        m.output("y", y);
        cse(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        // One add survives; the xor now sees the same node twice.
        let adds = m
            .nodes()
            .iter()
            .filter(|nd| matches!(nd.node, Node::Binary(BinaryOp::Add, ..)))
            .count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn transitive_merge() {
        // Chains of identical subtrees collapse level by level.
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let x1 = m.binary(BinaryOp::Add, a, a, 8);
        let x2 = m.binary(BinaryOp::Add, a, a, 8);
        let y1 = m.binary(BinaryOp::Sub, x1, a, 8);
        let y2 = m.binary(BinaryOp::Sub, x2, a, 8);
        m.output("y1", y1);
        m.output("y2", y2);
        cse(&mut m);
        assert_eq!(m.outputs()[0].node, m.outputs()[1].node);
    }

    #[test]
    fn commutative_operands_merge() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let s1 = m.binary(BinaryOp::Add, a, b, 8);
        let s2 = m.binary(BinaryOp::Add, b, a, 8);
        let d1 = m.binary(BinaryOp::Sub, a, b, 8);
        let d2 = m.binary(BinaryOp::Sub, b, a, 8);
        m.output("s1", s1);
        m.output("s2", s2);
        m.output("d1", d1);
        m.output("d2", d2);
        cse(&mut m);
        // Addition commutes, subtraction does not.
        assert_eq!(m.outputs()[0].node, m.outputs()[1].node);
        assert_ne!(m.outputs()[2].node, m.outputs()[3].node);
    }

    #[test]
    fn different_widths_do_not_merge() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let z1 = m.zext(a, 16);
        let z2 = m.zext(a, 12);
        m.output("y1", z1);
        m.output("y2", z2);
        cse(&mut m);
        assert_ne!(m.outputs()[0].node, m.outputs()[1].node);
    }
}
