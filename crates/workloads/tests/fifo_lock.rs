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
use soff_workloads::all_apps;

/// FNV-1a over `(kernel, block, fifo_extra, lmin)` of every basic
/// pipeline, in registry, kernel and block order.
const FIFO_DIGEST: u64 = 0x157a_5f8b_861d_4209;

/// One FNV-1a step per byte.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

#[test]
fn registry_fifo_capacities_are_locked() {
    let lat = LatencyModel::default();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let (mut pipelines, mut fifo_total) = (0, 0u64);
    for app in all_apps() {
        let parsed = soff_frontend::compile(app.source, &[]).expect(app.name);
        let module = soff_ir::build::lower(&parsed).expect(app.name);
        for kernel in &module.kernels {
            let dp = Datapath::build(kernel, &lat);
            fnv(&mut digest, kernel.name.as_bytes());
            for bp in &dp.basics {
                fnv(&mut digest, &bp.dfg.block.0.to_le_bytes());
                fnv(&mut digest, &(bp.fifo_extra.len() as u64).to_le_bytes());
                for q in &bp.fifo_extra {
                    fnv(&mut digest, &q.to_le_bytes());
                }
                fnv(&mut digest, &bp.lmin.to_le_bytes());
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
