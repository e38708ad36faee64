//! A fault-free launch with fewer work-groups than datapath instances
//! builds only the instances the dispatcher can reach (DESIGN.md §11).
//! The reduced machine must be indistinguishable from the configured one
//! everywhere outside the machine: the same `SimResult` (per-cache and
//! per-line-buffer statistics padded in the configured layouts), the same
//! memory bytes, and the same component counts for fault plans to index.
//!
//! The reference is the same launch under a fault plan whose one fault
//! cannot act (a zero-cycle DRAM latency spike): any fault plan builds
//! every configured instance.

use soff_datapath::{Datapath, LatencyModel};
use soff_frontend::types::Scalar;
use soff_ir::ir::{Kernel, NdRange};
use soff_ir::mem::{ArgValue, GlobalMemory};
use soff_sim::machine::{Machine, SimConfig, SimResult};
use soff_sim::{Fault, FaultPlan};

fn compile(src: &str) -> (Kernel, Datapath) {
    let parsed = soff_frontend::compile(src, &[]).unwrap();
    let module = soff_ir::build::lower(&parsed).unwrap();
    let kernel = module.kernels.into_iter().next().unwrap();
    let dp = Datapath::build(&kernel, &LatencyModel::default());
    (kernel, dp)
}

/// A plan holding one fault that changes nothing: no extra latency.
fn inert_plan() -> FaultPlan {
    FaultPlan::none().with(Fault::DramLatencySpike { from: 0, cycles: 100, extra_latency: 0 })
}

/// What a launch leaves behind, plus the machine's component counts.
struct Outcome {
    result: SimResult,
    bytes: Vec<Vec<u8>>,
    /// `num_channels`, `num_caches` and `num_line_bufs` of the machine.
    counts: (usize, usize, usize),
}

/// Runs `src` over `nd` on `instances` datapaths. Every kernel parameter
/// but the last is a 64-element int buffer; the last is the scalar 3.
fn launch(src: &str, nd: NdRange, instances: u32, faults: FaultPlan) -> Outcome {
    let (kernel, dp) = compile(src);
    let mut gm = GlobalMemory::new();
    let mut args = Vec::new();
    let mut bufs = Vec::new();
    for b in 0..kernel.params.len() - 1 {
        let buf = gm.alloc(64 * 4);
        for i in 0..64u64 {
            gm.buffer_mut(buf).write_scalar(i * 4, Scalar::I32, (i * 7 + b as u64) % 64);
        }
        args.push(ArgValue::Buffer(buf));
        bufs.push(buf);
    }
    args.push(ArgValue::Scalar(3));
    let cfg = SimConfig { num_instances: instances, faults, ..SimConfig::default() };
    let mut m = Machine::new(&kernel, &dp, &cfg, nd, &args).unwrap();
    let counts = (m.num_channels(), m.num_caches(), m.num_line_bufs());
    let result = m.run(&mut gm).unwrap();
    let bytes = bufs.iter().map(|&b| gm.buffer(b).bytes().to_vec()).collect();
    Outcome { result, bytes, counts }
}

/// The reduced (fault-free) and configured (inert-plan) machines agree,
/// and the launch really left instances unbuilt.
fn assert_reduced_matches_full(src: &str, nd: NdRange, instances: u32) -> Outcome {
    assert!(nd.num_groups() < u64::from(instances), "the launch must leave instances idle");
    let reduced = launch(src, nd, instances, FaultPlan::none());
    let full = launch(src, nd, instances, inert_plan());
    assert_eq!(reduced.result, full.result, "SimResult");
    assert_eq!(reduced.bytes, full.bytes, "memory bytes");
    assert_eq!(reduced.counts, full.counts, "num_channels, num_caches, num_line_bufs");
    assert_eq!(reduced.result.num_instances, instances);
    assert!(reduced.result.cache.accesses + reduced.result.line_buf.accesses > 0);
    reduced
}

#[test]
fn several_cache_groups() {
    let src = "__kernel void k(__global int* a, __global int* b, __global int* c, int n) {
        int i = get_global_id(0);
        c[i] = a[i] * n + b[(i + 5) % 64];
    }";
    let out = assert_reduced_matches_full(src, NdRange::dim1(24, 8), 6);
    assert_eq!(out.counts.1, 3 * 6, "one cache per buffer and instance");
    // Instance-major: instances 0..3 ran, so caches 0..9 saw traffic.
    let busy: Vec<bool> = out.result.per_cache.iter().map(|s| s.accesses > 0).collect();
    assert!(busy[..9].iter().any(|&b| b) && busy[9..].iter().all(|&b| !b), "{busy:?}");
}

#[test]
fn atomics_share_the_caches() {
    let src = "__kernel void k(__global int* a, int n) {
        int i = get_global_id(0);
        atomic_add(&a[i % 8], n);
    }";
    let out = assert_reduced_matches_full(src, NdRange::dim1(16, 4), 8);
    assert_eq!(out.counts.1, out.result.per_cache.len());
    assert_eq!(out.result.per_cache.len(), 1, "atomics share one cache per buffer");
}

#[test]
fn local_memory_and_a_barrier() {
    let src = "__kernel void k(__global int* a, int n) {
        __local int t[8];
        int l = get_local_id(0);
        int g = get_global_id(0);
        t[l] = a[g % 64] + n;
        barrier(CLK_LOCAL_MEM_FENCE);
        a[g % 64] = t[7 - l];
    }";
    assert_reduced_matches_full(src, NdRange::dim1(24, 8), 5);
}

#[test]
fn stencil_on_line_buffers() {
    let src = "__kernel void k(__global const int* a, __global int* out, int n) {
        int i = get_global_id(0);
        int x = i % 62 + 1;
        out[x] = a[x - 1] + a[x] * n + a[x + 1];
    }";
    let out = assert_reduced_matches_full(src, NdRange::dim1(48, 16), 7);
    assert!(out.counts.2 > 0, "the window must lower to line buffers");
    assert_eq!(out.result.per_line_buf.len(), out.counts.2);
    assert!(out.result.line_buf.accesses > 0);
}

/// A jammed entry channel moves dispatch past the work-group count: with
/// instance 0's entry stalled at cycle 0, work-groups 0 and 1 go to
/// instances 1 and 2. This is why a fault plan builds every instance.
#[test]
fn a_jammed_entry_channel_reaches_past_the_work_group_count() {
    let src = "__kernel void k(__global int* a, int n) {
        int i = get_global_id(0);
        a[i] = a[i] + n;
    }";
    let nd = NdRange::dim1(16, 8);
    let clean = launch(src, nd, 4, FaultPlan::none());
    // Instance 0's entry channel is the machine's first channel.
    let jam = FaultPlan::none().with(Fault::ChannelStuckStall { chan: 0, from: 0, cycles: 4 });
    let jammed = launch(src, nd, 4, jam);
    assert_eq!(jammed.bytes, clean.bytes);
    assert_eq!(jammed.counts, clean.counts);
    let per_inst = jammed.counts.1 / 4;
    let inst2: u64 =
        jammed.result.per_cache[2 * per_inst..3 * per_inst].iter().map(|s| s.accesses).sum();
    assert!(inst2 > 0, "instance 2 must receive a work-group: {:?}", jammed.result.per_cache);
    let clean2: u64 = clean.result.per_cache[2 * per_inst..].iter().map(|s| s.accesses).sum();
    assert_eq!(clean2, 0, "fault-free, only instances 0 and 1 run");
}
