//! Checkpoint/restore differential suite.
//!
//! The resilient-execution invariant: interrupting a run at *any* cycle
//! with a deadline, restoring the snapshot into a **freshly built**
//! machine, and running on must produce the bit-identical outcome of the
//! uninterrupted run — the same `SimResult` (cycle counts, per-cache
//! statistics, stall counters, profile), the same memory contents, and on
//! failing runs the same `SimError` (including forensic reports) — under
//! all schedulers, with and without active fault plans, and across
//! repeated interruptions. Snapshot fingerprints exclude the scheduler
//! knob, so a snapshot taken under one backend may be restored under
//! another; the backend-switch tests pin that down.

use proptest::prelude::*;
use soff_datapath::{Datapath, LatencyModel};
use soff_ir::ir::NdRange;
use soff_ir::mem::{ArgValue, GlobalMemory};
use soff_sim::machine::{
    CancelToken, ConfigError, Machine, RunControl, Scheduler, SimConfig, SimError, SimResult,
};
use soff_sim::{FaultPlan, ProfileConfig};

fn compile(src: &str) -> (soff_ir::ir::Kernel, Datapath) {
    let parsed = soff_frontend::compile(src, &[]).unwrap();
    let module = soff_ir::build::lower(&parsed).unwrap();
    let kernel = module.kernels.into_iter().next().unwrap();
    let dp = Datapath::build(&kernel, &LatencyModel::default());
    (kernel, dp)
}

/// Feature-covering kernel zoo (same shape as the scheduler suite): each
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
    // lowered onto a line buffer, so checkpoints must carry shift-register
    // window state, latched requests, and in-flight stream fills.
    "__kernel void k(__global const int* a, __global int* out, int n) {
        int i = get_global_id(0);
        int x = i % 62 + 1;
        out[x] = a[x - 1] + a[x] * n + a[x + 1];
    }",
];

fn fresh_memory() -> (GlobalMemory, u32) {
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(64 * 4);
    for i in 0..64u64 {
        gm.buffer_mut(a).write_scalar(i * 4, soff_frontend::types::Scalar::I32, i * 7 % 64);
    }
    (gm, a)
}

/// Kernel-aware launch setup: always the seeded 64 × i32 buffer `a`;
/// two-buffer kernels (the sliding-window stencil) get a second output
/// buffer. Returns memory, bound args, and the buffers whose bytes form
/// the compared outcome.
fn fresh_setup(kernel: &soff_ir::ir::Kernel) -> (GlobalMemory, Vec<ArgValue>, Vec<u32>) {
    let (mut gm, a) = fresh_memory();
    let mut args = vec![ArgValue::Buffer(a)];
    let mut bufs = vec![a];
    if kernel.params.len() == 3 {
        let o = gm.alloc(64 * 4);
        args.push(ArgValue::Buffer(o));
        bufs.push(o);
    }
    args.push(ArgValue::Scalar(5));
    (gm, args, bufs)
}

fn outcome_bytes(gm: &GlobalMemory, bufs: &[u32]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for &b in bufs {
        bytes.extend_from_slice(gm.buffer(b).bytes());
    }
    bytes
}

fn config(scheduler: Scheduler, faults: FaultPlan, profile: Option<ProfileConfig>) -> SimConfig {
    SimConfig {
        faults,
        profile,
        scheduler,
        // Bounded windows so wedged fault plans converge quickly.
        deadlock_window: 2_000,
        livelock_window: 20_000,
        max_cycles: 300_000,
        ..SimConfig::default()
    }
}

type Outcome = Result<(SimResult, Vec<u8>), SimError>;

/// Uninterrupted reference run.
fn run_straight(src: &str, nd: NdRange, cfg: &SimConfig) -> Outcome {
    let (kernel, dp) = compile(src);
    let (mut gm, args, bufs) = fresh_setup(&kernel);
    let res = Machine::new(&kernel, &dp, cfg, nd, &args)?.run(&mut gm)?;
    Ok((res, outcome_bytes(&gm, &bufs)))
}

/// The same launch, interrupted at every cycle in `cuts` (ascending): each
/// deadline yields a snapshot, which is restored into a *freshly built*
/// machine before continuing — exercising the full serialize/rebuild path
/// rather than just resuming in place.
fn run_interrupted(src: &str, nd: NdRange, cfg: &SimConfig, cuts: &[u64]) -> Outcome {
    let (kernel, dp) = compile(src);
    let (mut gm, args, bufs) = fresh_setup(&kernel);
    let mut machine = Machine::new(&kernel, &dp, cfg, nd, &args)?;
    for &cut in cuts {
        let ctl = RunControl { cycle_deadline: Some(cut), ..RunControl::default() };
        match machine.run_with(&mut gm, &ctl) {
            Err(SimError::DeadlineExceeded { cycle, snapshot }) => {
                assert!(cycle <= cut, "deadline fired late: {cycle} > {cut}");
                assert_eq!(snapshot.cycle(), cycle);
                let mut rebuilt = Machine::new(&kernel, &dp, cfg, nd, &args)?;
                rebuilt.restore(&snapshot, &mut gm)?;
                assert_eq!(rebuilt.cycle(), cycle);
                machine = rebuilt;
            }
            // The run finished (or failed) before the cut; the reference
            // outcome must match it, so just report it.
            Err(e) => return Err(e),
            Ok(res) => return Ok((res, outcome_bytes(&gm, &bufs))),
        }
    }
    let res = machine.run(&mut gm)?;
    Ok((res, outcome_bytes(&gm, &bufs)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Snapshot at a random cycle + restore into a fresh machine is
    /// bit-identical to the uninterrupted run, under both schedulers.
    #[test]
    fn restore_then_run_is_bit_identical(
        ki in 0usize..5,
        groups in 1u64..5,
        cut in 1u64..4_000,
    ) {
        let nd = NdRange::dim1(groups * 8, 8);
        for sched in [Scheduler::Dense, Scheduler::Fast] {
            let cfg = config(sched, FaultPlan::none(), None);
            let straight = run_straight(KERNELS[ki], nd, &cfg);
            let resumed = run_interrupted(KERNELS[ki], nd, &cfg, &[cut]);
            prop_assert_eq!(&straight, &resumed, "scheduler {:?}, cut {}", sched, cut);
        }
    }

    /// Same, with an active random fault plan (fitted to the machine):
    /// the fault cursor and wedge windows are part of the checkpoint, so
    /// even failing outcomes (deadlock forensics, invariant violations)
    /// must reproduce exactly.
    #[test]
    fn restore_is_bit_identical_under_faults(
        ki in 0usize..5,
        seed in 0u64..1_000_000,
        nfaults in 1usize..5,
        cut in 1u64..6_000,
    ) {
        let nd = NdRange::dim1(4 * 8, 8);
        let (kernel, dp) = compile(KERNELS[ki]);
        let (gm, args, _) = fresh_setup(&kernel);
        drop(gm);
        let probe = Machine::new(&kernel, &dp, &SimConfig::default(), nd, &args)
            .expect("probe machine");
        let faults = FaultPlan::random(seed, nfaults, 5_000)
            .normalized(probe.num_channels(), probe.num_caches(), probe.num_line_bufs());
        for sched in [Scheduler::Dense, Scheduler::Fast] {
            let cfg = config(sched, faults.clone(), None);
            let straight = run_straight(KERNELS[ki], nd, &cfg);
            let resumed = run_interrupted(KERNELS[ki], nd, &cfg, &[cut]);
            prop_assert_eq!(&straight, &resumed, "scheduler {:?}, cut {}", sched, cut);
        }
    }

    /// Repeated interruptions (a chain of snapshots, each restored into a
    /// fresh machine) still land on the uninterrupted outcome, including
    /// with the profiler on (whose counters ride in the checkpoint).
    #[test]
    fn repeated_interruptions_compose(
        ki in 0usize..5,
        c1 in 1u64..1_500,
        step in 1u64..1_500,
        profiled in 0usize..2,
    ) {
        let nd = NdRange::dim1(2 * 8, 8);
        let cuts = [c1, c1 + step, c1 + 2 * step];
        let pcfg = (profiled == 1)
            .then(|| ProfileConfig { sample_interval: 16, ..ProfileConfig::default() });
        let cfg = config(Scheduler::Dense, FaultPlan::none(), pcfg);
        let straight = run_straight(KERNELS[ki], nd, &cfg);
        let resumed = run_interrupted(KERNELS[ki], nd, &cfg, &cuts);
        prop_assert_eq!(&straight, &resumed, "cuts {:?}", cuts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Backend switch mid-run: snapshot under one scheduler, restore
    /// under the other (every skip test must read the restored
    /// components), finish bit-identically to the uninterrupted
    /// reference.
    #[test]
    fn checkpoint_survives_backend_switch(
        ki in 0usize..5,
        cut in 1u64..3_000,
        pair in 0usize..2,
    ) {
        let nd = NdRange::dim1(2 * 8, 8);
        let (from, to) = [
            (Scheduler::Dense, Scheduler::Fast),
            (Scheduler::Fast, Scheduler::Dense),
        ][pair];
        let reference = run_straight(KERNELS[ki], nd, &config(Scheduler::Dense, FaultPlan::none(), None));

        let (kernel, dp) = compile(KERNELS[ki]);
        let (mut gm, args, bufs) = fresh_setup(&kernel);
        let cfg_from = config(from, FaultPlan::none(), None);
        let mut m = Machine::new(&kernel, &dp, &cfg_from, nd, &args).unwrap();
        let ctl = RunControl { cycle_deadline: Some(cut), ..RunControl::default() };
        let switched: Outcome = match m.run_with(&mut gm, &ctl) {
            Err(SimError::DeadlineExceeded { cycle, snapshot }) => {
                prop_assert!(cycle <= cut);
                let cfg_to = config(to, FaultPlan::none(), None);
                let mut resumed = Machine::new(&kernel, &dp, &cfg_to, nd, &args).unwrap();
                resumed.restore(&snapshot, &mut gm).unwrap();
                resumed.run(&mut gm).map(|r| (r, outcome_bytes(&gm, &bufs)))
            }
            Err(e) => Err(e),
            Ok(res) => Ok((res, outcome_bytes(&gm, &bufs))),
        };
        prop_assert_eq!(&reference, &switched, "{:?} -> {:?} at cut {}", from, to, cut);
    }
}

/// Kernels that store and miss throughout a launch, so the machine
/// writes cache sets after any cut, each with its buffer's length in
/// ints: a strided walk over 128 KB (twice a cache, so misses evict dirty
/// lines across every chunk of the set array), and the zoo's
/// straight-line and atomic kernels.
const WRITERS: &[(&str, u64)] = &[
    (
        "__kernel void k(__global int* a, int n) {
            int i = get_global_id(0);
            for (int j = 0; j < n; j++) {
                int p = (i * 1031 + j * 4099) % 32768;
                a[p] = a[(p + 16384) % 32768] + j;
            }
        }",
        32_768,
    ),
    (KERNELS[0], 64),
    (KERNELS[3], 64),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Serve's slot recovery: the original machine runs on past its cut,
    /// and the cut's snapshot is then restored into a fresh machine,
    /// rolling memory back. Both runs must end exactly as the
    /// uninterrupted run does, although the original, the snapshot and
    /// the restored machine share state the first two write after the
    /// cut.
    #[test]
    fn snapshot_survives_the_original_running_on(
        ki in 0usize..WRITERS.len(),
        groups in 1u64..5,
        permille in 0u64..1_000,
    ) {
        let (src, words) = WRITERS[ki];
        let (kernel, dp) = compile(src);
        let nd = NdRange::dim1(groups * 8, 8);
        let setup = || {
            let mut gm = GlobalMemory::new();
            let a = gm.alloc(words as usize * 4);
            for i in 0..words {
                gm.buffer_mut(a).write_scalar(i * 4, soff_frontend::types::Scalar::I32, i * 7 % 64);
            }
            (gm, [ArgValue::Buffer(a), ArgValue::Scalar(5)])
        };
        for sched in [Scheduler::Dense, Scheduler::Fast] {
            let cfg = config(sched, FaultPlan::none(), None);
            let (mut gm, args) = setup();
            let straight = Machine::new(&kernel, &dp, &cfg, nd, &args).unwrap().run(&mut gm).unwrap();
            let bytes = gm.buffer(0).bytes().to_vec();
            let cut = 1 + straight.compute_cycles * permille / 1_000;

            let (mut gm, args) = setup();
            let mut original = Machine::new(&kernel, &dp, &cfg, nd, &args).unwrap();
            let ctl = RunControl { cycle_deadline: Some(cut), ..RunControl::default() };
            let snapshot = match original.run_with(&mut gm, &ctl) {
                Err(SimError::DeadlineExceeded { snapshot, .. }) => snapshot,
                other => panic!("{sched:?}: expected a cut at {cut}, got {other:?}"),
            };
            let ran_on = original.run(&mut gm).unwrap();
            prop_assert_eq!(&ran_on, &straight, "{:?}: the original after cut {}", sched, cut);
            prop_assert_eq!(gm.buffer(0).bytes(), &bytes[..]);

            let mut restored = Machine::new(&kernel, &dp, &cfg, nd, &args).unwrap();
            restored.restore(&snapshot, &mut gm).unwrap();
            let resumed = restored.run(&mut gm).unwrap();
            prop_assert_eq!(&resumed, &straight, "{:?}: the snapshot of cut {}", sched, cut);
            prop_assert_eq!(gm.buffer(0).bytes(), &bytes[..]);
        }
    }
}

/// Regression: cycle deadlines landing inside or at the edge of a long
/// quiescent stretch (the machine waiting on memory) must produce the
/// same slice sequence under every scheduler — each cut lands exactly on
/// its deadline cycle (no overshoot, and a cut at `now + 1` produces a
/// normal one-cycle slice, not a zero-length one), and the number of
/// slices is pinned by the completion cycle alone.
#[test]
fn deadline_slice_counts_pin_quiescent_gap_boundaries() {
    // Long-idle-gap kernel: a single narrow work-group serializes on
    // memory, so the machine spends most cycles quiescent and the fast
    // scheduler skips nearly every unit on them.
    let src = "__kernel void k(__global int* a, int n) {
        int i = get_global_id(0);
        int s = 0;
        for (int j = 0; j < n; j++) s += a[(i * 37 + j * 13) % 64];
        a[i % 64] = s;
    }";
    let nd = NdRange::dim1(4, 4);
    let (kernel, dp) = compile(src);

    // Reference completion cycle (dense, uninterrupted).
    let dense_cfg = config(Scheduler::Dense, FaultPlan::none(), None);
    let reference = run_straight(src, nd, &dense_cfg).expect("fault-free launch");
    let compute_cycles = reference.0.compute_cycles;

    for interval in [1u64, 7, 64, 100] {
        let mut counts = Vec::new();
        for sched in [Scheduler::Dense, Scheduler::Fast] {
            let cfg = config(sched, FaultPlan::none(), None);
            let (mut gm, a) = fresh_memory();
            let args = [ArgValue::Buffer(a), ArgValue::Scalar(5)];
            let mut machine = Machine::new(&kernel, &dp, &cfg, nd, &args).unwrap();
            let mut cuts = Vec::new();
            let outcome = loop {
                let deadline = (cuts.len() as u64 + 1) * interval;
                let ctl =
                    RunControl { cycle_deadline: Some(deadline), ..RunControl::default() };
                match machine.run_with(&mut gm, &ctl) {
                    Err(SimError::DeadlineExceeded { cycle, snapshot }) => {
                        // Every cut lands exactly on its deadline: no
                        // overshoot (a step running past the cut) and no
                        // zero-length slice (a repeated cut at the same
                        // cycle).
                        assert_eq!(
                            cycle, deadline,
                            "scheduler {sched:?}, interval {interval}: cut drifted"
                        );
                        let mut rebuilt =
                            Machine::new(&kernel, &dp, &cfg, nd, &args).unwrap();
                        rebuilt.restore(&snapshot, &mut gm).unwrap();
                        machine = rebuilt;
                        cuts.push(cycle);
                    }
                    Ok(res) => break res,
                    Err(e) => panic!("unexpected failure: {e}"),
                }
            };
            assert_eq!(outcome, reference.0, "scheduler {sched:?}, interval {interval}");
            // Deadlines are checked before executing their cycle, and the
            // run completes at the end of cycle `compute_cycles`, so the
            // slice count is exactly the number of interval multiples in
            // [1, compute_cycles].
            assert_eq!(
                cuts.len() as u64,
                compute_cycles / interval,
                "scheduler {sched:?}, interval {interval}: wrong slice count"
            );
            counts.push(cuts);
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "interval {interval}: schedulers disagreed on cut sequence"
        );
    }
}

#[test]
fn deadline_is_typed_and_deterministic() {
    let (kernel, dp) = compile(KERNELS[1]);
    let nd = NdRange::dim1(16, 8);
    let cfg = config(Scheduler::Fast, FaultPlan::none(), None);
    for _ in 0..2 {
        let (mut gm, a) = fresh_memory();
        let args = [ArgValue::Buffer(a), ArgValue::Scalar(5)];
        let mut m = Machine::new(&kernel, &dp, &cfg, nd, &args).unwrap();
        let ctl = RunControl { cycle_deadline: Some(100), ..RunControl::default() };
        match m.run_with(&mut gm, &ctl) {
            Err(SimError::DeadlineExceeded { cycle, snapshot }) => {
                // Cycle deadlines are deterministic cut points: the run
                // stops before executing the deadline cycle under either
                // scheduler.
                assert_eq!(cycle, 100);
                assert_eq!(snapshot.cycle(), 100);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
}

#[test]
fn cancellation_is_typed_and_resumable() {
    let (kernel, dp) = compile(KERNELS[1]);
    let nd = NdRange::dim1(16, 8);
    let cfg = config(Scheduler::Dense, FaultPlan::none(), None);
    let (mut gm, a) = fresh_memory();
    let args = [ArgValue::Buffer(a), ArgValue::Scalar(5)];
    let mut m = Machine::new(&kernel, &dp, &cfg, nd, &args).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let ctl = RunControl { cancel: Some(token.clone()), ..RunControl::default() };
    let snapshot = match m.run_with(&mut gm, &ctl) {
        Err(SimError::Cancelled { cycle, snapshot }) => {
            assert_eq!(snapshot.cycle(), cycle);
            snapshot
        }
        other => panic!("expected Cancelled, got {other:?}"),
    };
    // Restoring the snapshot and running without the token completes and
    // matches the uninterrupted run.
    let mut resumed = Machine::new(&kernel, &dp, &cfg, nd, &args).unwrap();
    resumed.restore(&snapshot, &mut gm).unwrap();
    let res = resumed.run(&mut gm).unwrap();
    let straight = run_straight(KERNELS[1], nd, &cfg).unwrap();
    assert_eq!(res, straight.0);
    assert_eq!(gm.buffer(a).bytes(), &straight.1[..]);
}

/// A buffer allocated while a launch is cut (a serve tenant's
/// `create_buffer` between two slices of its job) survives a restore into
/// a fresh machine: it keeps its id and bytes, the next allocation gets a
/// new id, and the resumed run ends bit-identically.
#[test]
fn restore_keeps_buffers_allocated_after_the_snapshot() {
    let (kernel, dp) = compile(KERNELS[1]);
    let nd = NdRange::dim1(16, 8);
    let cfg = config(Scheduler::Fast, FaultPlan::none(), None);
    let (mut gm, a) = fresh_memory();
    let args = [ArgValue::Buffer(a), ArgValue::Scalar(5)];
    let mut m = Machine::new(&kernel, &dp, &cfg, nd, &args).unwrap();
    let ctl = RunControl { cycle_deadline: Some(100), ..RunControl::default() };
    let snapshot = match m.run_with(&mut gm, &ctl) {
        Err(SimError::DeadlineExceeded { snapshot, .. }) => snapshot,
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    };
    let late = gm.alloc(8);
    gm.buffer_mut(late).bytes_mut().copy_from_slice(b"tenant-b");
    let mut resumed = Machine::new(&kernel, &dp, &cfg, nd, &args).unwrap();
    resumed.restore(&snapshot, &mut gm).unwrap();
    let res = resumed.run(&mut gm).unwrap();
    let straight = run_straight(KERNELS[1], nd, &cfg).unwrap();
    assert_eq!(res, straight.0);
    assert_eq!(gm.buffer(a).bytes(), &straight.1[..]);
    assert_eq!(gm.num_buffers(), 2, "the late buffer was erased");
    assert_eq!(gm.buffer(late).bytes(), b"tenant-b");
    assert_eq!(gm.alloc(4), late + 1);
}

#[test]
fn foreign_snapshot_is_rejected_with_typed_error() {
    let nd = NdRange::dim1(16, 8);
    let cfg = config(Scheduler::Dense, FaultPlan::none(), None);
    let (kernel_a, dp_a) = compile(KERNELS[0]);
    let (kernel_b, dp_b) = compile(KERNELS[2]);
    let (mut gm, a) = fresh_memory();
    let args = [ArgValue::Buffer(a), ArgValue::Scalar(5)];
    let ma = Machine::new(&kernel_a, &dp_a, &cfg, nd, &args).unwrap();
    let snap = ma.snapshot(&gm);
    let mut mb = Machine::new(&kernel_b, &dp_b, &cfg, nd, &args).unwrap();
    match mb.restore(&snap, &mut gm) {
        Err(SimError::Config(ConfigError::SnapshotMismatch { .. })) => {}
        other => panic!("expected SnapshotMismatch, got {other:?}"),
    }
}

#[test]
fn out_of_range_fault_plan_is_a_config_error() {
    let (kernel, dp) = compile(KERNELS[0]);
    let nd = NdRange::dim1(16, 8);
    let (_gm, a) = fresh_memory();
    let args = [ArgValue::Buffer(a), ArgValue::Scalar(5)];
    let cfg = SimConfig {
        faults: FaultPlan::none().with(soff_sim::Fault::ChannelStuckStall {
            chan: 100_000,
            from: 0,
            cycles: 10,
        }),
        ..SimConfig::default()
    };
    match Machine::new(&kernel, &dp, &cfg, nd, &args) {
        Err(SimError::Config(ConfigError::Fault { index: 0, .. })) => {}
        other => panic!("expected a fault config error, got {:?}", other.map(|_| ())),
    }
}
