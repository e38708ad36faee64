//! Registry lock on FIFO balancing (§IV-C): the capacity the ILP gives
//! every DFG edge of every basic pipeline of every registry kernel.
//!
//! The FIFO ILP's optimum is not unique whenever a DFG node has as many
//! in-edges as out-edges, so a solver change that still finds an optimum
//! can move FIFOs, and with them every simulated cycle. The compile
//! digests in the benchmark hash only datapath totals; this lock pins
//! each edge's capacity. Its constant was computed with the dense-tableau
//! simplex the sparse one replaced.

use soff_datapath::{Datapath, LatencyModel};
use soff_obs::{fnv1a, FNV_OFFSET};
use soff_workloads::all_apps;

/// FNV-1a over `(kernel, block, fifo_extra, lmin)` of every basic
/// pipeline, in registry, kernel and block order.
const FIFO_DIGEST: u64 = 0x157a_5f8b_861d_4209;

#[test]
fn registry_fifo_capacities_are_locked() {
    let lat = LatencyModel::default();
    let mut digest = FNV_OFFSET;
    let (mut pipelines, mut fifo_total) = (0, 0u64);
    for app in all_apps() {
        let parsed = soff_frontend::compile(app.source, &[]).expect(app.name);
        let module = soff_ir::build::lower(&parsed).expect(app.name);
        for kernel in &module.kernels {
            let dp = Datapath::build(kernel, &lat);
            digest = fnv1a(digest, kernel.name.as_bytes());
            for bp in &dp.basics {
                digest = fnv1a(digest, &bp.dfg.block.0.to_le_bytes());
                digest = fnv1a(digest, &(bp.fifo_extra.len() as u64).to_le_bytes());
                for q in &bp.fifo_extra {
                    digest = fnv1a(digest, &q.to_le_bytes());
                }
                digest = fnv1a(digest, &bp.lmin.to_le_bytes());
                pipelines += 1;
                fifo_total += bp.fifo_extra.iter().map(|&q| u64::from(q)).sum::<u64>();
            }
        }
    }
    assert!(pipelines > 300 && fifo_total > 0, "{pipelines} pipelines, {fifo_total} FIFO slots");
    assert_eq!(
        digest, FIFO_DIGEST,
        "FIFO capacities moved: digest {:#018x} over {pipelines} pipelines ({fifo_total} slots)",
        digest
    );
}
