//! Per-basic-block data flow graphs (§III-C2, Fig. 4 (b)/(d)).
//!
//! A DFG is an acyclic graph with one node per instruction plus two
//! synthetic nodes: a **source** producing all live-in values and a
//! **sink** consuming all live-out values. Edges are:
//!
//! * *data* edges for SSA true dependences (one per consumer operand
//!   position, so `x * x` has two edges from `x`'s producer);
//! * *order* edges for possible anti- and output dependences between
//!   memory accesses that may alias (§III-C2 — "treated as normal DFG
//!   edges that transfer data of no size");
//! * *completion* (order) edges connecting memory accesses with no
//!   dependent successor to the sink, so the DFG represents the partial
//!   execution order of everything in the block.

use crate::ir::{BlockId, InstKind, Kernel, Terminator, ValueId};
use crate::liveness::Liveness;
use crate::pointer::PointerAnalysis;
use std::collections::{BTreeSet, HashMap};

/// Index of a node within one [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// The source node is always index 0; the sink is index 1.
pub const SOURCE: NodeId = NodeId(0);
/// See [`SOURCE`].
pub const SINK: NodeId = NodeId(1);

/// A DFG node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Produces all live-in values of the block.
    Source,
    /// Consumes all live-out values and completion signals.
    Sink,
    /// One instruction of the block.
    Instr(ValueId),
}

/// What an edge carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// The SSA value `.0`, consumed at operand position `.1` of the
    /// destination (operand positions of the sink are its live-out
    /// signature indices).
    Data(ValueId, u32),
    /// An ordering token of no size (anti/output dependence, or a
    /// completion edge to the sink).
    Order,
}

/// A directed DFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producing node.
    pub from: NodeId,
    /// Consuming node.
    pub to: NodeId,
    /// Payload.
    pub kind: EdgeKind,
}

/// The data flow graph of one basic block.
#[derive(Debug, Clone)]
pub struct Dfg {
    /// The block this DFG describes.
    pub block: BlockId,
    /// Nodes; `nodes[0]` is the source, `nodes[1]` the sink.
    pub nodes: Vec<Node>,
    /// Edges (acyclic, from lower program order to higher).
    pub edges: Vec<Edge>,
    /// Live-in signature: the values the source produces, in order.
    pub live_in: Vec<ValueId>,
    /// Live-out signature: the values the sink emits, in order. Includes
    /// the branch condition (last) when the block ends in `CondBr`.
    pub live_out: Vec<ValueId>,
}

impl Dfg {
    /// The node producing `v` within this DFG (the instruction node if `v`
    /// is defined here, otherwise the source).
    pub fn producer(&self, v: ValueId) -> NodeId {
        for (i, n) in self.nodes.iter().enumerate() {
            if let Node::Instr(iv) = n {
                if *iv == v {
                    return NodeId(i as u32);
                }
            }
        }
        SOURCE
    }

    /// Incoming edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.to == n)
    }

    /// Topological order of the nodes (source first, sink last).
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle (it never should).
    pub fn topo_order(&self) -> Vec<NodeId> {
        self.topo().0
    }

    /// Every edge index once, grouped by source node in topological order
    /// and in edge order within a node. Relaxing edges in this order
    /// reaches each node only after all of its in-edges, which is what a
    /// longest- or shortest-path pass needs.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle (it never should).
    pub fn topo_edges(&self) -> Vec<usize> {
        let (order, start, outs) = self.topo();
        order
            .iter()
            .flat_map(|n| &outs[start[n.0 as usize]..start[n.0 as usize + 1]])
            .copied()
            .collect()
    }

    /// Kahn's algorithm in O(N + E): the order, plus the out-edge index it
    /// walks (node `n`'s edges are `outs[start[n]..start[n + 1]]`).
    fn topo(&self) -> (Vec<NodeId>, Vec<usize>, Vec<usize>) {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut start = vec![0usize; n + 1];
        for e in &self.edges {
            indeg[e.to.0 as usize] += 1;
            start[e.from.0 as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut outs = vec![0; self.edges.len()];
        for (ei, e) in self.edges.iter().enumerate() {
            outs[next[e.from.0 as usize]] = ei;
            next[e.from.0 as usize] += 1;
        }
        let mut stack: Vec<NodeId> =
            (0..n).filter(|i| indeg[*i] == 0).map(|i| NodeId(i as u32)).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(x) = stack.pop() {
            order.push(x);
            for &ei in &outs[start[x.0 as usize]..start[x.0 as usize + 1]] {
                let to = self.edges[ei].to;
                indeg[to.0 as usize] -= 1;
                if indeg[to.0 as usize] == 0 {
                    stack.push(to);
                }
            }
        }
        assert_eq!(order.len(), n, "DFG has a cycle");
        (order, start, outs)
    }
}

/// Builds the DFG for block `b` of kernel `k`.
pub fn build_dfg(k: &Kernel, b: BlockId, live: &Liveness, pa: &PointerAnalysis) -> Dfg {
    let blk = k.block(b);
    let mut nodes = vec![Node::Source, Node::Sink];
    let mut node_of: HashMap<ValueId, NodeId> = HashMap::new();

    // Phis are not DFG nodes (their values arrive via the source), and
    // neither are uniforms (hardwired literals / the argument register).
    let body: Vec<ValueId> = blk
        .instrs
        .iter()
        .copied()
        .filter(|v| {
            !matches!(k.instr(*v).kind, InstKind::Phi { .. }) && !k.instr(*v).is_uniform()
        })
        .collect();
    for &v in &body {
        node_of.insert(v, NodeId(nodes.len() as u32));
        nodes.push(Node::Instr(v));
    }

    let mut edges = Vec::new();

    // Live-in signature: block live-in set.
    let live_in: Vec<ValueId> = live.live_in[b.0 as usize].iter().copied().collect();

    // Data edges. Uniform operands are hardwired into the consumer and do
    // not become edges; nodes left without any input get an Order edge
    // from the source so they fire exactly once per work-item.
    let mut ops = Vec::new();
    for &v in &body {
        let consumer = node_of[&v];
        ops.clear();
        k.instr(v).operands(&mut ops);
        let mut has_input = false;
        for (pos, &o) in ops.iter().enumerate() {
            if k.instr(o).is_uniform() {
                continue;
            }
            let from = node_of.get(&o).copied().unwrap_or(SOURCE);
            edges.push(Edge { from, to: consumer, kind: EdgeKind::Data(o, pos as u32) });
            has_input = true;
        }
        if !has_input {
            edges.push(Edge { from: SOURCE, to: consumer, kind: EdgeKind::Order });
        }
    }

    // Order edges between potentially aliasing memory accesses
    // (program order, not both reads).
    let mems: Vec<ValueId> = body.iter().copied().filter(|v| k.instr(*v).is_memory()).collect();
    for (i, &early) in mems.iter().enumerate() {
        for &late in &mems[i + 1..] {
            let e_w = k.instr(early).writes_memory();
            let l_w = k.instr(late).writes_memory();
            if !e_w && !l_w {
                continue; // two loads never need ordering
            }
            if pa.may_alias(k, early, late) {
                edges.push(Edge { from: node_of[&early], to: node_of[&late], kind: EdgeKind::Order });
            }
        }
    }

    // Live-out signature (plus branch condition if any).
    let mut out_set: BTreeSet<ValueId> = live.live_out[b.0 as usize].clone();
    if let Terminator::CondBr { cond, .. } = &blk.term {
        out_set.insert(*cond);
    }
    let live_out: Vec<ValueId> = out_set.iter().copied().collect();

    // Sink data edges: one per live-out value.
    for (pos, &v) in live_out.iter().enumerate() {
        let from = node_of.get(&v).copied().unwrap_or(SOURCE);
        edges.push(Edge { from, to: SINK, kind: EdgeKind::Data(v, pos as u32) });
    }

    // Completion edges: memory accesses (and in fact any node) without a
    // successor connect to the sink so the block only "finishes" when they
    // are done.
    let mut has_succ = vec![false; nodes.len()];
    for e in &edges {
        has_succ[e.from.0 as usize] = true;
    }
    for &v in &body {
        let n = node_of[&v];
        if !has_succ[n.0 as usize] {
            edges.push(Edge { from: n, to: SINK, kind: EdgeKind::Order });
        }
    }

    // Guarantee the source reaches something even in an empty block, so
    // every source-sink path exists.
    if !edges.iter().any(|e| e.from == SOURCE)
        || (body.is_empty() && !edges.iter().any(|e| e.to == SINK && e.from == SOURCE))
    {
        edges.push(Edge { from: SOURCE, to: SINK, kind: EdgeKind::Order });
    }

    Dfg { block: b, nodes, edges, live_in, live_out }
}

/// Builds DFGs for every block of a kernel.
pub fn build_all(k: &Kernel, live: &Liveness, pa: &PointerAnalysis) -> Vec<Dfg> {
    (0..k.blocks.len() as u32).map(|b| build_dfg(k, BlockId(b), live, pa)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::lower;
    use crate::liveness::liveness;
    use crate::pointer::analyze;
    use soff_frontend::compile;

    fn dfgs(src: &str) -> (Kernel, Vec<Dfg>) {
        let p = compile(src, &[]).unwrap();
        let k = lower(&p).unwrap().kernels.into_iter().next().unwrap();
        let lv = liveness(&k);
        let pa = analyze(&k);
        let d = build_all(&k, &lv, &pa);
        (k, d)
    }

    #[test]
    fn vadd_block_is_acyclic_and_ordered() {
        let (_k, ds) = dfgs(
            "__kernel void k(__global float* a, __global float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = a[i] + b[i];
            }",
        );
        for d in &ds {
            let order = d.topo_order();
            assert_eq!(*order.last().unwrap(), SINK);
            let pos: std::collections::HashMap<_, _> =
                order.iter().enumerate().map(|(i, n)| (*n, i)).collect();
            for e in &d.edges {
                assert!(pos[&e.from] < pos[&e.to], "edge violates topo order");
            }
        }
    }

    #[test]
    fn topo_edges_relax_each_node_after_its_in_edges() {
        let (_k, ds) = dfgs(
            "__kernel void k(__global float* a, __global float* b) {
                int i = get_global_id(0);
                float x = a[i];
                b[i] = x * x + a[i + 1] / 3.0f;
            }",
        );
        for d in &ds {
            let order = d.topo_edges();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..d.edges.len()).collect::<Vec<_>>(), "every edge once");
            for (pos, &ei) in order.iter().enumerate() {
                let from = d.edges[ei].from;
                assert!(
                    order[pos..].iter().all(|&later| d.edges[later].to != from),
                    "an edge into {from:?} comes after one out of it"
                );
            }
        }
    }

    #[test]
    fn store_gets_completion_edge_to_sink() {
        let (k, ds) = dfgs(
            "__kernel void k(__global float* a) {
                a[get_global_id(0)] = 1.0f;
            }",
        );
        let d = &ds[0];
        // Find the store node.
        let store = d
            .nodes
            .iter()
            .position(|n| matches!(n, Node::Instr(v) if k.instr(*v).writes_memory()))
            .unwrap();
        assert!(d
            .edges
            .iter()
            .any(|e| e.from == NodeId(store as u32) && e.to == SINK && e.kind == EdgeKind::Order));
    }

    #[test]
    fn anti_dependence_edge_between_load_and_store_same_buffer() {
        // Mirrors Fig. 4 (d): load A[y] then store A[y+C] must be ordered.
        let (k, ds) = dfgs(
            "__kernel void k(__global float* a, int c) {
                int y = get_global_id(0);
                float t = a[y];
                a[y + c] = t + 1.0f;
            }",
        );
        let d = &ds[0];
        let load = d
            .nodes
            .iter()
            .position(|n| {
                matches!(n, Node::Instr(v) if matches!(k.instr(*v).kind, InstKind::Load { .. }))
            })
            .unwrap();
        let store = d
            .nodes
            .iter()
            .position(|n| matches!(n, Node::Instr(v) if k.instr(*v).writes_memory()))
            .unwrap();
        // The true data dependence already orders them here, but the
        // explicit Order edge must exist as well (the paper inserts it
        // conservatively).
        assert!(d.edges.iter().any(|e| e.from == NodeId(load as u32)
            && e.to == NodeId(store as u32)
            && e.kind == EdgeKind::Order));
    }

    #[test]
    fn no_order_edge_between_different_buffers() {
        let (k, ds) = dfgs(
            "__kernel void k(__global float* a, __global float* b) {
                int i = get_global_id(0);
                float t = a[i];
                b[i] = t;
            }",
        );
        let d = &ds[0];
        let order_edges: Vec<_> = d
            .edges
            .iter()
            .filter(|e| {
                e.kind == EdgeKind::Order
                    && e.to != SINK
                    && matches!(d.nodes[e.from.0 as usize], Node::Instr(_))
            })
            .collect();
        assert!(order_edges.is_empty(), "unexpected order edges: {order_edges:?}");
        let _ = k;
    }

    #[test]
    fn duplicate_operand_yields_two_edges() {
        let (k, ds) = dfgs(
            "__kernel void k(__global float* a) {
                int i = get_global_id(0);
                float x = a[i];
                a[i] = x * x;
            }",
        );
        let d = &ds[0];
        // Find the multiply node and count its data in-edges.
        let mul = d
            .nodes
            .iter()
            .position(|n| {
                matches!(n, Node::Instr(v)
                    if matches!(k.instr(*v).kind,
                        InstKind::Bin {
                            op: soff_frontend::ast::BinOp::Mul,
                            ty: soff_frontend::types::Scalar::F32,
                            ..
                        }))
            })
            .unwrap();
        let ins: Vec<_> = d.in_edges(NodeId(mul as u32)).collect();
        assert_eq!(ins.len(), 2);
    }

    #[test]
    fn condbr_condition_is_in_live_out() {
        let (k, ds) = dfgs(
            "__kernel void k(__global int* a, int n) {
                int i = get_global_id(0);
                if (i < n) a[i] = 0;
            }",
        );
        // Find the block ending in CondBr; its DFG live_out must include
        // the condition.
        for (bid, blk) in k.iter_blocks() {
            if let Terminator::CondBr { cond, .. } = &blk.term {
                let d = &ds[bid.0 as usize];
                assert!(d.live_out.contains(cond));
            }
        }
    }
}
