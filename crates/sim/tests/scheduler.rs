//! Dense vs. fast scheduler differential suite.
//!
//! The fast scheduler is an optimization, not a model change: for any
//! launch — any kernel shape, geometry, replication, fault plan, and
//! profiling setting — it must produce the *bit-identical* outcome of the
//! dense reference loop: the same
//! `SimResult` (cycle counts, per-cache statistics, stall counters), the
//! same memory contents, and on failing runs the same `SimError`
//! (including the forensic deadlock report and the cycle numbers inside
//! it).

use proptest::prelude::*;
use soff_datapath::{Datapath, LatencyModel};
use soff_ir::ir::NdRange;
use soff_ir::mem::{ArgValue, GlobalMemory};
use soff_sim::machine::{run, Machine, Scheduler, SimConfig, SimError, SimResult};
use soff_sim::{FaultPlan, ProfileConfig};

fn compile(src: &str) -> (soff_ir::ir::Kernel, Datapath) {
    let parsed = soff_frontend::compile(src, &[]).unwrap();
    let module = soff_ir::build::lower(&parsed).unwrap();
    let kernel = module.kernels.into_iter().next().unwrap();
    let dp = Datapath::build(&kernel, &LatencyModel::default());
    (kernel, dp)
}

/// Feature-covering kernel zoo (same shape as the profiler suite): each
/// takes one int buffer (64 × i32) and one scalar `n`.
const KERNELS: &[&str] = &[
    // Straight-line memory traffic.
    "__kernel void k(__global int* a, int n) {
        int i = get_global_id(0);
        a[i % 64] = a[(i + 1) % 64] + n;
    }",
    // Branchy data-dependent loop.
    "__kernel void k(__global int* a, int n) {
        int i = get_global_id(0);
        int s = 0;
        for (int j = 0; j < n; j++) {
            int x = a[(i + j * 3) % 64];
            if (x > 32) s += x; else s -= x;
        }
        a[i % 64] = s;
    }",
    // Barrier + local memory.
    "__kernel void k(__global int* a, int n) {
        __local int t[8];
        int l = get_local_id(0);
        int g = get_global_id(0);
        t[l] = a[g % 64] + n;
        barrier(CLK_LOCAL_MEM_FENCE);
        a[g % 64] = t[7 - l];
    }",
    // Atomics (forces a shared cache).
    "__kernel void k(__global int* a, int n) {
        int i = get_global_id(0);
        atomic_add(&a[i % 8], n);
    }",
    // Two-buffer sliding-window stencil: the read neighborhood on `a` is
    // recognized by `soff_ir::window::detect` and lowered onto a line
    // buffer, so this kernel exercises `MemTarget::LineBuf` routing,
    // line-buffer attribution, and the `LineBufJam` fault class under
    // both schedulers.
    "__kernel void k(__global const int* a, __global int* out, int n) {
        int i = get_global_id(0);
        int x = i % 62 + 1;
        out[x] = a[x - 1] + a[x] * n + a[x + 1];
    }",
];

/// Runs one launch under `scheduler` and returns the full outcome:
/// simulation result plus final memory bytes, or the error.
fn run_one(
    src: &str,
    nd: NdRange,
    instances: u32,
    faults: FaultPlan,
    profile: Option<ProfileConfig>,
    check_invariants: bool,
    scheduler: Scheduler,
) -> Result<(SimResult, Vec<u8>), SimError> {
    let (kernel, dp) = compile(src);
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(64 * 4);
    for i in 0..64u64 {
        gm.buffer_mut(a).write_scalar(i * 4, soff_frontend::types::Scalar::I32, i * 7 % 64);
    }
    // Two-buffer kernels (the sliding-window stencil) take a second,
    // output-only buffer; its bytes join the compared outcome below.
    let mut args: Vec<ArgValue> = vec![ArgValue::Buffer(a)];
    let out_buf = if kernel.params.len() == 3 {
        let o = gm.alloc(64 * 4);
        args.push(ArgValue::Buffer(o));
        Some(o)
    } else {
        None
    };
    args.push(ArgValue::Scalar(5));
    // Fit fault plans (random ones draw indices from a fixed universe) to
    // this machine's real component counts; the machine rejects
    // out-of-range targets at config time.
    let probe_cfg = SimConfig { num_instances: instances, ..SimConfig::default() };
    let probe = Machine::new(&kernel, &dp, &probe_cfg, nd, &args).expect("probe machine");
    let faults =
        faults.normalized(probe.num_channels(), probe.num_caches(), probe.num_line_bufs());
    let cfg = SimConfig {
        num_instances: instances,
        faults,
        profile,
        check_invariants,
        scheduler,
        // Bounded windows so wedged fault plans converge quickly under
        // the dense reference loop too.
        deadlock_window: 2_000,
        livelock_window: 20_000,
        max_cycles: 300_000,
        ..SimConfig::default()
    };
    let res = run(&kernel, &dp, &cfg, nd, &args, &mut gm)?;
    let mut bytes = gm.buffer(a).bytes().to_vec();
    if let Some(o) = out_buf {
        bytes.extend_from_slice(gm.buffer(o).bytes());
    }
    Ok((res, bytes))
}

/// Runs the launch under both schedulers and asserts bit-identity of the
/// complete outcome.
#[allow(clippy::result_large_err)]
fn assert_schedulers_agree(
    src: &str,
    nd: NdRange,
    instances: u32,
    faults: FaultPlan,
    profile: Option<ProfileConfig>,
    check_invariants: bool,
) -> Result<(SimResult, Vec<u8>), SimError> {
    let dense =
        run_one(src, nd, instances, faults.clone(), profile, check_invariants, Scheduler::Dense);
    let fast = run_one(src, nd, instances, faults, profile, check_invariants, Scheduler::Fast);
    assert_eq!(dense, fast, "dense and fast outcomes diverged");
    dense
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Fault-free launches: every kernel class, randomized geometry and
    /// replication, invariant checking on (which also cross-checks the
    /// incremental MSHR occupancy counter against the recount).
    #[test]
    fn schedulers_agree_fault_free(
        ki in 0usize..5,
        wgs in 0usize..3,
        groups in 1u64..5,
        instances in 1u32..3,
    ) {
        let wg = [4u64, 8, 16][wgs];
        // The barrier kernel's local array is sized for work-groups of 8.
        let wg = if ki == 2 { 8 } else { wg };
        let nd = NdRange::dim1(groups * wg, wg);
        let out = assert_schedulers_agree(KERNELS[ki], nd, instances, FaultPlan::none(), None, true);
        let (res, _) = out.expect("fault-free launches must complete");
        prop_assert_eq!(res.retired, groups * wg);
    }

    /// Randomized fault plans: outcomes (success, deadlock forensics,
    /// invariant violations, timeouts) must match cycle-for-cycle.
    #[test]
    fn schedulers_agree_under_faults(
        ki in 0usize..5,
        seed in 0u64..1_000_000,
        nfaults in 1usize..5,
        instances in 1u32..3,
    ) {
        let wg = 8u64;
        let nd = NdRange::dim1(4 * wg, wg);
        let faults = FaultPlan::random(seed, nfaults, 5_000);
        let _ = assert_schedulers_agree(KERNELS[ki], nd, instances, faults, None, false);
    }

    /// With profiling on, fast scheduling degenerates to dense stepping;
    /// reports and results still must match exactly.
    #[test]
    fn schedulers_agree_with_profiling(
        ki in 0usize..5,
        groups in 1u64..4,
    ) {
        let wg = 8u64;
        let nd = NdRange::dim1(groups * wg, wg);
        let pcfg = ProfileConfig { sample_interval: 16, ..ProfileConfig::default() };
        let out =
            assert_schedulers_agree(KERNELS[ki], nd, 1, FaultPlan::none(), Some(pcfg), false);
        let (res, _) = out.expect("fault-free launches must complete");
        prop_assert!(res.profile.is_some());
    }
}

/// The stencil kernel in the zoo must actually exercise the line-buffer
/// path — otherwise the LineBuf coverage above is vacuous. With the knob
/// on (default) the machine builds one line buffer per instance and every
/// neighborhood read is served as a window hit (the input group's cache
/// sees zero traffic); with the knob off the same launch produces
/// byte-identical buffers through the cache path.
#[test]
fn stencil_kernel_uses_the_line_buffer() {
    let src = KERNELS[4];
    let nd = NdRange::dim1(64, 8);
    let run_mode = |lb: bool| {
        let (kernel, dp) = compile(src);
        let mut gm = GlobalMemory::new();
        let a = gm.alloc(64 * 4);
        for i in 0..64u64 {
            gm.buffer_mut(a).write_scalar(i * 4, soff_frontend::types::Scalar::I32, i * 7 % 64);
        }
        let o = gm.alloc(64 * 4);
        let args = [ArgValue::Buffer(a), ArgValue::Buffer(o), ArgValue::Scalar(5)];
        let cfg = SimConfig { line_buffer: lb, ..SimConfig::default() };
        let res = run(&kernel, &dp, &cfg, nd, &args, &mut gm).expect("fault-free launch");
        (res, gm.buffer(o).bytes().to_vec())
    };
    let (on, out_on) = run_mode(true);
    let (off, out_off) = run_mode(false);
    assert_eq!(out_on, out_off, "line-buffer path changed results");
    assert!(on.line_buf.accesses > 0, "window loads must route to the line buffer");
    // Every served request either hit the window registers on first
    // examination or was counted (once) as a stream underrun.
    assert_eq!(on.line_buf.window_hits + on.line_buf.underruns, on.line_buf.accesses);
    assert!(on.line_buf.window_hits > on.line_buf.underruns, "steady state must be hits");
    assert_eq!(off.line_buf.accesses, 0, "knob off must disable the path");
    assert!(
        on.cache.accesses < off.cache.accesses,
        "line buffer must absorb the neighborhood reads: {} vs {}",
        on.cache.accesses,
        off.cache.accesses
    );
}

#[test]
fn degenerate_cache_geometry_is_a_config_error() {
    let (kernel, dp) = compile(KERNELS[0]);
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(64 * 4);
    let mut cache = soff_mem::CacheConfig::default();
    cache.bytes = (cache.line as u64 / 2).max(1); // smaller than one line
    let cfg = SimConfig { cache, ..SimConfig::default() };
    let err = run(
        &kernel,
        &dp,
        &cfg,
        NdRange::dim1(8, 8),
        &[ArgValue::Buffer(a), ArgValue::Scalar(5)],
        &mut gm,
    )
    .unwrap_err();
    assert!(
        matches!(err, SimError::Config(_)),
        "a sub-line cache must be rejected as a config error, got {err}"
    );
}

#[test]
fn oversized_launch_is_rejected_not_truncated() {
    // Work-item serials are 32-bit; a launch beyond 2^32 work-items used
    // to truncate ids (aliasing distinct work-items) instead of erroring.
    // The struct fields are public, so the constructor asserts can be
    // bypassed — the machine must still catch it.
    let (kernel, dp) = compile(KERNELS[0]);
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(64 * 4);
    let nd = NdRange { work_dim: 1, global: [1 << 33, 1, 1], local: [64, 1, 1] };
    let err = run(
        &kernel,
        &dp,
        &SimConfig::default(),
        nd,
        &[ArgValue::Buffer(a), ArgValue::Scalar(5)],
        &mut gm,
    )
    .unwrap_err();
    assert!(matches!(err, SimError::Args(_)), "got {err}");
}

#[test]
fn zero_sized_launch_is_rejected() {
    let (kernel, dp) = compile(KERNELS[0]);
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(64 * 4);
    for nd in [
        NdRange { work_dim: 1, global: [0, 1, 1], local: [1, 1, 1] },
        NdRange { work_dim: 1, global: [8, 1, 1], local: [0, 1, 1] },
    ] {
        let err = run(
            &kernel,
            &dp,
            &SimConfig::default(),
            nd,
            &[ArgValue::Buffer(a), ArgValue::Scalar(5)],
            &mut gm,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Args(_)), "got {err}");
    }
}

/// The fast scheduler must actually skip work on an idle machine: a
/// single-work-item launch on a long-latency kernel spends most cycles
/// waiting on memory, so both schedulers agreeing (above) plus this
/// completing quickly is the smoke check that fast-forwarding engages.
/// (The wall-clock benchmark in `crates/bench` measures the speedup.)
#[test]
fn fast_handles_long_idle_gaps() {
    let src = "__kernel void k(__global int* a, int n) {
        int i = get_global_id(0);
        int s = 0;
        for (int j = 0; j < n; j++) s += a[(i * 37 + j * 13) % 64];
        a[i % 64] = s;
    }";
    let nd = NdRange::dim1(4, 4);
    let out = assert_schedulers_agree(src, nd, 1, FaultPlan::none(), None, true);
    let (res, _) = out.expect("fault-free launch");
    assert_eq!(res.retired, 4);
}

/// A token duplicated inside a datapath instance outlives its work-group's
/// accounting: the group completes while the copy is still in flight, so
/// the instance looks idle. Fast must keep ticking instances under a fault
/// plan, or the copy never retires and the dense run's invariant
/// violation turns into a clean finish.
#[test]
fn duplicated_token_in_an_idle_looking_instance_still_retires() {
    let src = "__kernel void k(__global int* a, int n) {
        int i = get_global_id(0);
        int s = 0;
        for (int j = 0; j < (i % 8) * n; j++) s += a[(i + j) % 64];
        a[i % 64] = s;
    }";
    let faults = FaultPlan::none().with(soff_sim::Fault::TokenDup { chan: 0, at: 0 });
    let out = assert_schedulers_agree(src, NdRange::dim1(16, 8), 2, faults, None, false);
    assert!(
        matches!(out, Err(SimError::InvariantViolation { .. })),
        "the duplicate must retire after its group completed: {out:?}"
    );
}
