//! Basic pipelines (§IV-B) and FIFO balancing (§IV-C).
//!
//! A basic pipeline executes one basic block: one functional unit per DFG
//! node, channels isomorphic to the DFG edges. To reduce Case-2 stalls,
//! SOFF inserts FIFO queues so that the sum of near-maximum latencies is
//! the same on every source-sink path; the minimal-total-FIFO problem is
//! formulated as an ILP (one capacity variable per edge, one arrival-time
//! variable per node) and solved as its LP relaxation, whose optimum is
//! integral.

use crate::latency::{classify, LatencyModel, UnitClass};
use soff_ilp::simplex::solve_lp;
use soff_ilp::{Constraint, Rel};
use soff_ir::dfg::{Dfg, Node, SINK, SOURCE};
use soff_ir::ir::Kernel;
use soff_frontend::types::Scalar;

/// One functional unit of a basic pipeline.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Unit class (drives latency/cost/RTL).
    pub class: UnitClass,
    /// Near-maximum latency `L_F`.
    pub lf: u32,
    /// Operand scalar type (for cost/RTL; `I32` for source/sink).
    pub ty: Scalar,
}

/// A basic pipeline: the DFG plus per-unit latencies and per-edge FIFO
/// capacities.
#[derive(Debug, Clone)]
pub struct BasicPipeline {
    /// The underlying DFG (nodes parallel to `units`).
    pub dfg: Dfg,
    /// One unit per DFG node.
    pub units: Vec<Unit>,
    /// Extra FIFO capacity `q_e` per DFG edge (parallel to `dfg.edges`);
    /// the channel capacity is `1 + q_e`.
    pub fifo_extra: Vec<u32>,
    /// `l_min(B)`: the (equalized) number of work-items any source-sink
    /// path can hold, `Σ (L_F + 1) + Σ q_e` (§IV-E, Lemma 1).
    pub lmin: u64,
}

impl BasicPipeline {
    /// Builds the pipeline for `dfg`, balancing FIFOs with the ILP.
    pub fn build(k: &Kernel, dfg: Dfg, lat: &LatencyModel) -> BasicPipeline {
        Self::build_opts(k, dfg, lat, true)
    }

    /// As [`BasicPipeline::build`], optionally skipping FIFO balancing
    /// (the §IV-C ablation: every channel gets capacity 1).
    pub fn build_opts(k: &Kernel, dfg: Dfg, lat: &LatencyModel, balance: bool) -> BasicPipeline {
        let units: Vec<Unit> = dfg
            .nodes
            .iter()
            .map(|n| match n {
                Node::Source => Unit { class: UnitClass::Source, lf: 0, ty: Scalar::I32 },
                Node::Sink => Unit { class: UnitClass::Sink, lf: 0, ty: Scalar::I32 },
                Node::Instr(v) => {
                    let instr = k.instr(*v);
                    let class = classify(instr);
                    let ty = instr.ty.unwrap_or(Scalar::I32);
                    Unit { class, lf: lat.latency(class, ty), ty }
                }
            })
            .collect();

        let fifo_extra = if balance {
            balance_fifos(&dfg, &units)
        } else {
            vec![0; dfg.edges.len()]
        };

        // l_min: with balanced FIFOs every path is equal; without, take
        // the worst (shortest) path so the deadlock bound stays safe.
        let lmin = if balance {
            path_capacity(&dfg, &units, &fifo_extra)
        } else {
            min_path_capacity(&dfg, &units)
        };

        BasicPipeline { dfg, units, fifo_extra, lmin }
    }

    /// Total near-maximum latency from source to sink (pipeline fill time).
    pub fn depth(&self) -> u64 {
        // Equal on every path after balancing; compute via longest path of
        // Σ L_F.
        let mut depth = vec![0u64; self.dfg.nodes.len()];
        for ei in self.dfg.topo_edges() {
            let (from, to) = ends(&self.dfg, ei);
            depth[to] = depth[to].max(depth[from] + self.units[from].lf as u64);
        }
        depth[SINK.0 as usize]
    }
}

/// Solves the §IV-C ILP: minimize `Σ q_e` subject to every source-sink
/// path holding the same total `(L_F + 1) + q`.
///
/// Variables: `q_e ≥ 0` per edge, plus an arrival time `t_v` per node with
/// `t_v = t_u + (L_u + 1) + q_e` for every edge `u→v`; the time variables
/// force path equality. The constraint matrix is totally unimodular, so
/// the LP optimum is already integral (see `soff-ilp`).
pub fn balance_fifos(dfg: &Dfg, units: &[Unit]) -> Vec<u32> {
    let n_edges = dfg.edges.len();
    let n_nodes = dfg.nodes.len();
    if n_edges == 0 {
        return Vec::new();
    }
    // Variable layout: [q_0..q_E) then [t_0..t_N).
    let mut obj = vec![0.0; n_edges + n_nodes];
    for o in obj.iter_mut().take(n_edges) {
        *o = 1.0;
    }
    let mut cons = Vec::with_capacity(n_edges + 1);
    for (ei, e) in dfg.edges.iter().enumerate() {
        let lu = units[e.from.0 as usize].lf as f64;
        // t_to - t_from - q_e = L_u + 1
        let coeffs =
            vec![(n_edges + e.to.0 as usize, 1.0), (n_edges + e.from.0 as usize, -1.0), (ei, -1.0)];
        cons.push(Constraint { coeffs, rel: Rel::Eq, rhs: lu + 1.0 });
    }
    // Pin the source's arrival time.
    let coeffs = vec![(n_edges + SOURCE.0 as usize, 1.0)];
    cons.push(Constraint { coeffs, rel: Rel::Eq, rhs: 0.0 });

    // Latest arrival times plus slack always give a feasible point, and
    // the objective is bounded below by 0.
    let sol = solve_lp(&obj, &cons).expect("FIFO balancing LP is always feasible and bounded");
    sol.x[..n_edges].iter().map(|q| q.round() as u32).collect()
}

/// The `(from, to)` node indices of edge `ei`.
fn ends(dfg: &Dfg, ei: usize) -> (usize, usize) {
    let e = &dfg.edges[ei];
    (e.from.0 as usize, e.to.0 as usize)
}

/// Shortest-path capacity (used when balancing is disabled).
fn min_path_capacity(dfg: &Dfg, units: &[Unit]) -> u64 {
    let mut worst = vec![u64::MAX; dfg.nodes.len()];
    worst[SOURCE.0 as usize] = (units[SOURCE.0 as usize].lf + 1) as u64;
    for ei in dfg.topo_edges() {
        let (from, to) = ends(dfg, ei);
        if worst[from] != u64::MAX {
            worst[to] = worst[to].min(worst[from] + (units[to].lf + 1) as u64);
        }
    }
    worst[SINK.0 as usize]
}

/// Computes `l(P) = Σ (L_F + 1) + Σ q_e` along one source-sink path and
/// asserts (in debug builds) that all paths agree.
pub fn path_capacity(dfg: &Dfg, units: &[Unit], fifo_extra: &[u32]) -> u64 {
    // Longest path via topo order; with balanced FIFOs every path is equal.
    let mut best = vec![u64::MIN; dfg.nodes.len()];
    let mut worst = vec![u64::MAX; dfg.nodes.len()];
    best[SOURCE.0 as usize] = (units[SOURCE.0 as usize].lf + 1) as u64;
    worst[SOURCE.0 as usize] = best[SOURCE.0 as usize];
    for ei in dfg.topo_edges() {
        let (from, to) = ends(dfg, ei);
        if best[from] == u64::MIN {
            continue;
        }
        let step = fifo_extra[ei] as u64 + (units[to].lf + 1) as u64;
        best[to] = best[to].max(best[from] + step);
        worst[to] = worst[to].min(worst[from].saturating_add(step));
    }
    let lmax = best[SINK.0 as usize];
    let lmin = worst[SINK.0 as usize];
    debug_assert_eq!(lmin, lmax, "FIFO balancing failed to equalize paths");
    lmax
}

#[cfg(test)]
mod tests {
    use super::*;
    use soff_ir::build::lower;
    use soff_ir::dfg::NodeId;
    use soff_ir::liveness::liveness;
    use soff_ir::pointer::analyze;
    use soff_frontend::compile;

    fn pipelines(src: &str) -> (Kernel, Vec<BasicPipeline>) {
        let p = compile(src, &[]).unwrap();
        let k = lower(&p).unwrap().kernels.into_iter().next().unwrap();
        let lv = liveness(&k);
        let pa = analyze(&k);
        let lat = LatencyModel::default();
        let bps = soff_ir::dfg::build_all(&k, &lv, &pa)
            .into_iter()
            .map(|d| BasicPipeline::build(&k, d, &lat))
            .collect();
        (k, bps)
    }

    /// Every source-sink path of the balanced pipeline must hold the same
    /// number of work-items; verify by exhaustive path enumeration.
    fn assert_balanced(bp: &BasicPipeline) {
        fn walk(
            bp: &BasicPipeline,
            n: NodeId,
            acc: u64,
            sums: &mut Vec<u64>,
        ) {
            let acc = acc + (bp.units[n.0 as usize].lf + 1) as u64;
            if n == SINK {
                sums.push(acc);
                return;
            }
            for (ei, e) in bp.dfg.edges.iter().enumerate() {
                if e.from == n {
                    walk(bp, e.to, acc + bp.fifo_extra[ei] as u64, sums);
                }
            }
        }
        let mut sums = Vec::new();
        walk(bp, SOURCE, 0, &mut sums);
        assert!(!sums.is_empty());
        let first = sums[0];
        assert!(sums.iter().all(|s| *s == first), "unbalanced paths: {sums:?}");
        assert_eq!(first, bp.lmin);
    }

    #[test]
    fn vadd_pipeline_is_balanced() {
        let (_k, bps) = pipelines(
            "__kernel void k(__global float* a, __global float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = a[i] + b[i];
            }",
        );
        for bp in &bps {
            assert_balanced(bp);
        }
    }

    #[test]
    fn unbalanced_diamond_gets_fifos() {
        // One operand goes through a long chain (divide), the other is
        // used directly: the short edge needs a FIFO.
        let (_k, bps) = pipelines(
            "__kernel void k(__global float* a) {
                int i = get_global_id(0);
                float x = a[i];
                a[i] = x / 3.0f + x;
            }",
        );
        let bp = &bps[0];
        assert_balanced(bp);
        let total_fifo: u32 = bp.fifo_extra.iter().sum();
        assert!(total_fifo > 0, "expected FIFO insertion on the short path");
    }

    #[test]
    fn straight_chain_needs_no_fifos() {
        let (_k, bps) = pipelines(
            "__kernel void k(__global float* a) {
                int i = get_global_id(0);
                a[i] = a[i] + 1.0f;
            }",
        );
        // The single chain a[i] -> add -> store has some join at the store
        // (address + value) — address path vs value path differ, so some
        // FIFO may exist; but every block must still balance.
        for bp in &bps {
            assert_balanced(bp);
        }
    }

    #[test]
    fn lmin_counts_units_and_fifos() {
        let (_k, bps) = pipelines(
            "__kernel void k(__global float* a) {
                a[get_global_id(0)] = 1.0f;
            }",
        );
        let bp = &bps[0];
        // lmin must be at least the number of units on the longest path.
        assert!(bp.lmin >= 3); // source + store + sink at minimum
    }

    #[test]
    fn depth_is_sum_of_latencies() {
        let (_k, bps) = pipelines(
            "__kernel void k(__global float* a) {
                int i = get_global_id(0);
                a[i] = a[i] * 2.0f;
            }",
        );
        let bp = &bps[0];
        // Depth must include the load (64), multiply (3), store (64).
        assert!(bp.depth() >= 64 + 3 + 64, "depth = {}", bp.depth());
    }
}
