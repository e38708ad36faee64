//! Properties of the cycle-attribution profiler:
//!
//! 1. **Conservation** — for every functional unit, glue component, line
//!    buffer, and cache, `busy + issue_stall + output_stall + idle` equals
//!    the cycles the profiler observed, across kernels covering branches,
//!    loops, barriers + local memory, atomics, and a line-buffer stencil,
//!    with randomized launch geometry.
//! 2. **Determinism** — two profiled runs of the same launch produce
//!    identical reports (every counter, sample, and span).
//! 3. **Transparency** — profiling on vs. off changes neither cycle
//!    counts nor memory contents (the profiler only observes).

use proptest::prelude::*;
use soff_datapath::{Datapath, LatencyModel};
use soff_ir::ir::NdRange;
use soff_ir::mem::{ArgValue, GlobalMemory};
use soff_sim::machine::{run, SimConfig};
use soff_sim::{CycleBreakdown, ProfileConfig, ProfileReport, SimResult};

fn compile(src: &str) -> (soff_ir::ir::Kernel, Datapath) {
    let parsed = soff_frontend::compile(src, &[]).unwrap();
    let module = soff_ir::build::lower(&parsed).unwrap();
    let kernel = module.kernels.into_iter().next().unwrap();
    let dp = Datapath::build(&kernel, &LatencyModel::default());
    (kernel, dp)
}

/// Feature-covering kernel zoo. Each takes one int buffer (64 × i32) and
/// one scalar `n`; the stencil also takes an output buffer (64 × i32).
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
    // Atomics.
    "__kernel void k(__global int* a, int n) {
        int i = get_global_id(0);
        atomic_add(&a[i % 8], n);
    }",
    // Two-buffer sliding-window stencil: the read neighborhood on `a` is
    // lowered onto a line buffer per instance.
    "__kernel void k(__global const int* a, __global int* out, int n) {
        int i = get_global_id(0);
        int x = i % 62 + 1;
        out[x] = a[x - 1] + a[x] * n + a[x + 1];
    }",
];

fn run_kernel(
    src: &str,
    nd: NdRange,
    instances: u32,
    profile: Option<ProfileConfig>,
) -> (SimResult, Vec<u8>) {
    let (kernel, dp) = compile(src);
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(64 * 4);
    for i in 0..64u64 {
        gm.buffer_mut(a)
            .write_scalar(i * 4, soff_frontend::types::Scalar::I32, i * 7 % 64);
    }
    let mut bufs = vec![a];
    if kernel.params.len() == 3 {
        bufs.push(gm.alloc(64 * 4));
    }
    let mut args: Vec<ArgValue> = bufs.iter().map(|&b| ArgValue::Buffer(b)).collect();
    args.push(ArgValue::Scalar(5));
    let cfg = SimConfig { num_instances: instances, profile, ..SimConfig::default() };
    let res = run(&kernel, &dp, &cfg, nd, &args, &mut gm).expect("profiled kernels are fault-free");
    let bytes = bufs.iter().flat_map(|&b| gm.buffer(b).bytes().to_vec()).collect();
    (res, bytes)
}

/// Every breakdown in `report` must sum to `cycles_observed`.
fn assert_conservation(report: &ProfileReport) {
    let obs = report.cycles_observed;
    for c in &report.comps {
        if c.units.is_empty() {
            assert_eq!(
                c.cycles.total(),
                obs,
                "{}: {:?} does not sum to observed cycles {obs}",
                c.label,
                c.cycles
            );
        } else {
            for u in &c.units {
                assert_eq!(
                    u.cycles.total(),
                    obs,
                    "{} unit {} ({}): {:?} does not sum to observed cycles {obs}",
                    c.label,
                    u.unit,
                    u.kind,
                    u.cycles
                );
            }
        }
    }
    for c in &report.caches {
        assert_eq!(
            c.cycles.total(),
            obs,
            "{}: {:?} does not sum to observed cycles {obs}",
            c.label,
            c.cycles
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Conservation holds for every unit of every kernel class under
    /// randomized launch geometry and replication.
    #[test]
    fn conservation_holds_for_every_unit(
        ki in 0usize..KERNELS.len(),
        wgs in 0usize..3,
        groups in 1u64..5,
        instances in 1u32..3,
    ) {
        let wg = [4u64, 8, 16][wgs];
        // The barrier kernel's local array is sized for work-groups of 8.
        let wg = if ki == 2 { 8 } else { wg };
        let nd = NdRange::dim1(groups * wg, wg);
        let (res, _) = run_kernel(
            KERNELS[ki],
            nd,
            instances,
            Some(ProfileConfig { sample_interval: 16, ..ProfileConfig::default() }),
        );
        let report = res.profile.as_ref().expect("profiling was enabled");
        prop_assert_eq!(report.cycles_observed, res.compute_cycles + 1);
        assert_conservation(report);
    }
}

#[test]
fn profiled_runs_are_deterministic() {
    for src in KERNELS {
        let nd = NdRange::dim1(32, 8);
        let pcfg = Some(ProfileConfig { sample_interval: 8, ..ProfileConfig::default() });
        let (a, abytes) = run_kernel(src, nd, 2, pcfg);
        let (b, bbytes) = run_kernel(src, nd, 2, pcfg);
        assert_eq!(a.profile, b.profile, "profiles of identical runs differ");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(abytes, bbytes);
    }
}

#[test]
fn profiling_is_transparent() {
    for src in KERNELS {
        let nd = NdRange::dim1(32, 8);
        let (off, off_bytes) = run_kernel(src, nd, 2, None);
        let (on, on_bytes) =
            run_kernel(src, nd, 2, Some(ProfileConfig::default()));
        assert!(off.profile.is_none());
        assert!(on.profile.is_some());
        assert_eq!(off.cycles, on.cycles, "profiling changed the cycle count");
        assert_eq!(off.compute_cycles, on.compute_cycles);
        assert_eq!(off.retired, on.retired);
        assert_eq!(off.cache, on.cache);
        assert_eq!(off.per_cache, on.per_cache);
        assert_eq!(off.dram, on.dram);
        assert_eq!(off_bytes, on_bytes, "profiling changed memory contents");
    }
}

/// The line-buffer rows of one fixed stencil launch: each line buffer's
/// cycle is classified from its state between the component ticks and
/// the memory tick, and its rows follow the datapath components.
#[test]
fn line_buffer_rows_are_pinned() {
    let (res, _) = run_kernel(KERNELS[4], NdRange::dim1(32, 8), 2, Some(ProfileConfig::default()));
    let report = res.profile.expect("profiling was enabled");
    let first = report.comps.iter().position(|c| c.kind == "line-buffer").expect("line buffers");
    let rows: Vec<(&str, CycleBreakdown)> =
        report.comps[first..].iter().map(|c| (c.label.as_str(), c.cycles)).collect();
    assert_eq!(
        rows,
        [
            (
                "line buffer 0 (inst 0)",
                CycleBreakdown { busy: 92, issue_stall: 5, output_stall: 3, idle: 80 }
            ),
            (
                "line buffer 0 (inst 1)",
                CycleBreakdown { busy: 120, issue_stall: 3, output_stall: 1, idle: 56 }
            ),
        ]
    );
}

#[test]
fn trace_export_contains_spans_and_counters() {
    let nd = NdRange::dim1(64, 8);
    let (res, _) = run_kernel(
        KERNELS[2],
        nd,
        1,
        Some(ProfileConfig { sample_interval: 4, ..ProfileConfig::default() }),
    );
    let report = res.profile.expect("profiling was enabled");
    assert!(!report.spans.is_empty(), "barrier kernel should produce spans");
    assert!(!report.samples.is_empty());
    let mut buf = Vec::new();
    soff_sim::write_chrome_trace(&report, &mut buf).unwrap();
    let s = String::from_utf8(buf).unwrap();
    assert!(s.contains("\"ph\":\"X\""), "trace should contain complete events");
    assert!(s.contains("\"ph\":\"C\""), "trace should contain counter events");
    assert!(s.starts_with('{') && s.ends_with('}'));
}

#[test]
fn bottlenecks_point_at_real_components() {
    // A gather kernel whose memory unit must stall on its cache.
    let src = "__kernel void k(__global int* a, int n) {
        int i = get_global_id(0);
        int s = 0;
        for (int j = 0; j < n; j++) s += a[(i * 37 + j * 13) % 64];
        a[i % 64] = s;
    }";
    let (res, _) = run_kernel(src, NdRange::dim1(64, 16), 1, Some(ProfileConfig::default()));
    let report = res.profile.expect("profiling was enabled");
    for b in &report.bottlenecks {
        assert!(b.cycles > 0);
        assert!(!b.victim.is_empty() && !b.blocker.is_empty() && !b.reason.is_empty());
    }
}
