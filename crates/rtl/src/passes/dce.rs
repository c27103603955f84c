//! Dead-code elimination with register and memory liveness.

use crate::passes::remap_refs;
use crate::{MemId, Module, Node, NodeId, RegId};

/// Removes nodes, registers and memories that cannot influence any output.
///
/// Liveness is a fixpoint: outputs are live; a live node's operands are
/// live; a live `RegOut` makes its register (and the register's next/en/
/// reset cones) live; a live `MemRead` makes the memory and all its write
/// ports live. Everything else is dropped and the id spaces are compacted.
pub fn dce(module: &mut Module) {
    let n = module.nodes().len();
    let mut node_live = vec![false; n];
    let mut reg_live = vec![false; module.regs().len()];
    let mut mem_live = vec![false; module.mems().len()];
    let mut work: Vec<NodeId> = module.outputs().iter().map(|o| o.node).collect();

    while let Some(id) = work.pop() {
        if node_live[id.index()] {
            continue;
        }
        node_live[id.index()] = true;
        let nd = module.node(id);
        nd.node.for_each_operand(|op| work.push(op));
        match nd.node {
            Node::RegOut(r) if !reg_live[r.index()] => {
                reg_live[r.index()] = true;
                let reg = &module.regs()[r.index()];
                work.extend([reg.next, reg.en, reg.reset].into_iter().flatten());
            }
            Node::MemRead { mem, .. } if !mem_live[mem.index()] => {
                mem_live[mem.index()] = true;
                for w in &module.mems()[mem.index()].writes {
                    work.extend([w.addr, w.data, w.en]);
                }
            }
            _ => {}
        }
    }

    // Inputs are ports: keep their nodes so the interface is stable.
    for port in module.inputs() {
        node_live[port.node.index()] = true;
    }

    // Compact the id spaces in place: nodes, registers and memories move
    // down over the dead entries, then every reference is renumbered.
    let mut t = module.tables_mut();
    let node_map = compact(t.nodes, &node_live);
    // Return the dropped nodes' memory: optimized modules stay cached.
    t.nodes.shrink_to_fit();
    let reg_map = compact(t.regs, &reg_live);
    let mem_map = compact(t.mems, &mem_live);
    let remap = |id: NodeId| NodeId::new(node_map[id.index()]);
    for nd in t.nodes.iter_mut() {
        nd.node.remap_operands(remap);
        match &mut nd.node {
            Node::RegOut(r) => *r = RegId::new(reg_map[r.index()]),
            Node::MemRead { mem, .. } => *mem = MemId::new(mem_map[mem.index()]),
            _ => {}
        }
    }
    remap_refs(&mut t, remap);
}

/// Drops the entries whose `live` flag is clear, keeping their order, and
/// returns every old index's new one (`usize::MAX` for dropped entries).
fn compact<T>(items: &mut Vec<T>, live: &[bool]) -> Vec<usize> {
    let (mut map, mut next) = (Vec::with_capacity(live.len()), 0);
    items.retain(|_| {
        let keep = live[map.len()];
        map.push(if keep { next } else { usize::MAX });
        next += usize::from(keep);
        keep
    });
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryOp;
    use hc_bits::Bits;

    #[test]
    fn drops_unused_logic() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let used = m.binary(BinaryOp::Add, a, b, 8);
        let _dead = m.binary(BinaryOp::MulS, a, b, 16);
        m.output("y", used);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(m.nodes().len(), 3); // two inputs + one add
    }

    #[test]
    fn drops_dead_register_but_keeps_live_chain() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let live = m.reg("live", 8, Bits::zero(8));
        let dead = m.reg("dead", 8, Bits::zero(8));
        let lq = m.reg_out(live);
        let dq = m.reg_out(dead);
        m.connect_reg(live, a);
        m.connect_reg(dead, dq); // self-loop, unobservable
        m.output("y", lq);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(m.regs().len(), 1);
        assert_eq!(m.regs()[0].name, "live");
    }

    #[test]
    fn keeps_memory_reached_through_read() {
        let mut m = Module::new("t");
        let mem = m.mem("buf", 8, 4);
        let dead_mem = m.mem("junk", 8, 4);
        let addr = m.input("addr", 2);
        let data = m.input("data", 8);
        let en = m.input("en", 1);
        m.mem_write(mem, addr, data, en);
        m.mem_write(dead_mem, addr, data, en);
        let q = m.mem_read(mem, addr);
        m.output("q", q);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(m.mems().len(), 1);
        assert_eq!(m.mems()[0].name, "buf");
    }

    #[test]
    fn inputs_survive_even_if_unused() {
        let mut m = Module::new("t");
        let _a = m.input("a", 8);
        let b = m.input("b", 8);
        m.output("y", b);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(m.inputs().len(), 2);
    }
}
