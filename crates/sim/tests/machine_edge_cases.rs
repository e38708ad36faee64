//! Machine-level edge cases: deadlock reporting, cycle budgets,
//! work-group slot gating for local memory, and the dispatcher contract.

use soff_datapath::{Datapath, LatencyModel};
use soff_ir::ir::NdRange;
use soff_ir::mem::{ArgValue, GlobalMemory};
use soff_sim::machine::{run, SimConfig, SimError};

fn compile(src: &str) -> (soff_ir::ir::Kernel, Datapath) {
    let parsed = soff_frontend::compile(src, &[]).unwrap();
    let module = soff_ir::build::lower(&parsed).unwrap();
    let kernel = module.kernels.into_iter().next().unwrap();
    let dp = Datapath::build(&kernel, &LatencyModel::default());
    (kernel, dp)
}

#[test]
fn infinite_loop_is_reported_not_hung() {
    let (kernel, dp) = compile(
        "__kernel void spin(__global int* a) {
            while (a[0] == 0) { }
            a[1] = 1;
        }",
    );
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(16);
    let cfg = SimConfig { deadlock_window: 5_000, max_cycles: 200_000, ..Default::default() };
    let err = run(&kernel, &dp, &cfg, NdRange::dim1(4, 4), &[ArgValue::Buffer(a)], &mut gm)
        .unwrap_err();
    assert!(
        matches!(err, SimError::Deadlock { .. } | SimError::Timeout { .. }),
        "got {err}"
    );
}

#[test]
fn cycle_budget_is_respected() {
    let (kernel, dp) = compile(
        "__kernel void slow(__global float* a, int n) {
            float s = 0.0f;
            for (int i = 0; i < n; i++) s += a[i % 64] / 3.0f;
            a[get_global_id(0) % 64] = s;
        }",
    );
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(64 * 4);
    let cfg = SimConfig { max_cycles: 100, ..Default::default() };
    let err = run(
        &kernel,
        &dp,
        &cfg,
        NdRange::dim1(256, 16),
        &[ArgValue::Buffer(a), ArgValue::Scalar(1000)],
        &mut gm,
    )
    .unwrap_err();
    assert_eq!(err, SimError::Timeout { max_cycles: 100, cycle: 100 });
}

#[test]
fn cycle_budget_boundary_is_exact() {
    // A budget of N permits cycles 0..N-1; the run must be cut off
    // *before* executing cycle N (the old check ran one cycle past the
    // budget), and both schedulers must agree on the cutoff cycle.
    let (kernel, dp) = compile(
        "__kernel void spin(__global int* a) {
            while (a[0] == 0) { }
            a[1] = 1;
        }",
    );
    for scheduler in [soff_sim::Scheduler::Dense, soff_sim::Scheduler::Fast] {
        let mut gm = GlobalMemory::new();
        let a = gm.alloc(16);
        let cfg = SimConfig {
            max_cycles: 77,
            deadlock_window: 1_000_000,
            livelock_window: 1_000_000,
            scheduler,
            ..Default::default()
        };
        let err = run(&kernel, &dp, &cfg, NdRange::dim1(4, 4), &[ArgValue::Buffer(a)], &mut gm)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Timeout { max_cycles: 77, cycle: 77 },
            "scheduler {scheduler:?}"
        );
    }
}

/// A datapath unit whose instruction has no micro-op, or more operands
/// than a unit takes, is a typed elaboration error naming the pipeline
/// and unit, not a panic in the middle of a run.
#[test]
fn undecodable_unit_is_a_typed_error() {
    use soff_ir::ir::InstKind;
    let (kernel, dp) = compile(
        "__kernel void k(__global int* a, int n) {
            int i = get_global_id(0);
            a[i] = a[i] * n + 1;
        }",
    );
    let v = dp
        .basics
        .iter()
        .flat_map(|bp| &bp.dfg.nodes)
        .find_map(|node| match node {
            soff_ir::dfg::Node::Instr(v) if !kernel.instr(*v).is_memory() => Some(*v),
            _ => None,
        })
        .expect("kernel has a compute unit");
    let rewrites = [
        InstKind::Phi { incoming: Vec::new() },
        InstKind::Math {
            func: soff_frontend::builtins::MathFunc::Fmax,
            ty: soff_frontend::types::Scalar::F32,
            args: vec![v; 4],
        },
    ];
    for kind in rewrites {
        let mut broken = kernel.clone();
        broken.values[v.0 as usize].kind = kind;
        let mut gm = GlobalMemory::new();
        let a = gm.alloc(16 * 4);
        let args = [ArgValue::Buffer(a), ArgValue::Scalar(3)];
        let nd = NdRange::dim1(16, 8);
        let err = soff_sim::Machine::new(&broken, &dp, &SimConfig::default(), nd, &args)
            .err()
            .expect("an undecodable unit must be rejected");
        match err {
            SimError::InvariantViolation { cycle: 0, what } => {
                assert!(what.contains("pipeline") && what.contains("unit"), "{what}");
                assert!(what.contains(&v.to_string()), "{what}");
            }
            other => panic!("expected an elaboration InvariantViolation, got {other}"),
        }
    }
}

/// A phi with no incoming value for one of its block's CFG edges is a
/// typed elaboration error naming the edge, not a panic in glue mapping.
#[test]
fn phi_missing_an_incoming_value_is_a_typed_error() {
    use soff_ir::ir::{InstKind, ValueId};
    let (kernel, dp) = compile(
        "__kernel void k(__global int* a, int n) {
            int s = 0;
            for (int j = 0; j < n; j++) s += a[j];
            a[get_global_id(0)] = s;
        }",
    );
    let (v, pred) = kernel
        .values
        .iter()
        .enumerate()
        .find_map(|(i, instr)| match &instr.kind {
            InstKind::Phi { incoming } if !incoming.is_empty() => {
                Some((ValueId(i as u32), incoming[0].0))
            }
            _ => None,
        })
        .expect("kernel has a phi");
    let mut broken = kernel.clone();
    if let InstKind::Phi { incoming } = &mut broken.values[v.0 as usize].kind {
        incoming.remove(0);
    }
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(16 * 4);
    let args = [ArgValue::Buffer(a), ArgValue::Scalar(4)];
    let nd = NdRange::dim1(16, 8);
    let err = soff_sim::Machine::new(&broken, &dp, &SimConfig::default(), nd, &args)
        .err()
        .expect("a phi without a value for an edge must be rejected");
    match err {
        SimError::InvariantViolation { cycle: 0, what } => {
            assert!(what.contains(&format!("CFG edge {pred} -> ")), "{what}");
            assert!(what.contains(&format!("phi {v} ")), "{what}");
        }
        other => panic!("expected an elaboration InvariantViolation, got {other}"),
    }
}

#[test]
fn wrong_arguments_are_rejected() {
    let (kernel, dp) = compile("__kernel void k(__global int* a) { a[0] = 1; }");
    let mut gm = GlobalMemory::new();
    let err = run(
        &kernel,
        &dp,
        &SimConfig::default(),
        NdRange::dim1(4, 4),
        &[ArgValue::Scalar(3)], // buffer expected
        &mut gm,
    )
    .unwrap_err();
    assert!(matches!(err, SimError::Args(_)));
}

#[test]
fn local_memory_gating_stays_correct_with_many_groups() {
    // More work-groups than local-memory slots: the dispatcher must gate
    // admissions so slot reuse never corrupts another group's data.
    let (kernel, dp) = compile(
        "__kernel void rot(__global int* a) {
            __local int t[4];
            int l = get_local_id(0);
            int g = get_global_id(0);
            t[l] = a[g];
            barrier(CLK_LOCAL_MEM_FENCE);
            a[g] = t[(l + 1) % 4];
        }",
    );
    assert!(kernel.uses_local);
    let groups = 32u64;
    let mut gm = GlobalMemory::new();
    let a = gm.alloc((groups * 4 * 4) as usize);
    for i in 0..groups * 4 {
        gm.buffer_mut(a).write_scalar(i * 4, soff_frontend::types::Scalar::I32, i);
    }
    let res = run(
        &kernel,
        &dp,
        &SimConfig { num_instances: 2, ..Default::default() },
        NdRange::dim1(groups * 4, 4),
        &[ArgValue::Buffer(a)],
        &mut gm,
    )
    .unwrap();
    assert_eq!(res.retired, groups * 4);
    for g in 0..groups {
        for l in 0..4u64 {
            let got = gm.buffer(a).read_scalar((g * 4 + l) * 4, soff_frontend::types::Scalar::I32);
            assert_eq!(got, g * 4 + (l + 1) % 4, "group {g} lane {l}");
        }
    }
}

#[test]
fn single_work_item_ndrange_works() {
    let (kernel, dp) = compile(
        "__kernel void one(__global int* a) { a[0] = 42; }",
    );
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(4);
    let res = run(
        &kernel,
        &dp,
        &SimConfig::default(),
        NdRange::dim1(1, 1),
        &[ArgValue::Buffer(a)],
        &mut gm,
    )
    .unwrap();
    assert_eq!(res.retired, 1);
    assert_eq!(gm.buffer(a).read_scalar(0, soff_frontend::types::Scalar::I32), 42);
}

#[test]
fn more_instances_than_work_groups_is_fine() {
    let (kernel, dp) = compile(
        "__kernel void k(__global int* a) { a[get_global_id(0)] = (int)get_group_id(0); }",
    );
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(8 * 4);
    // 8 instances but only 2 work-groups: most instances stay idle.
    let res = run(
        &kernel,
        &dp,
        &SimConfig { num_instances: 8, ..Default::default() },
        NdRange::dim1(8, 4),
        &[ArgValue::Buffer(a)],
        &mut gm,
    )
    .unwrap();
    assert_eq!(res.retired, 8);
    assert_eq!(gm.buffer(a).read_scalar(7 * 4, soff_frontend::types::Scalar::I32), 1);
}

#[test]
fn flush_accounts_for_dirty_lines() {
    let (kernel, dp) = compile(
        "__kernel void fill(__global float* a) { a[get_global_id(0)] = 1.0f; }",
    );
    let mut gm = GlobalMemory::new();
    let a = gm.alloc(1024 * 4);
    let res = run(
        &kernel,
        &dp,
        &SimConfig::default(),
        NdRange::dim1(1024, 64),
        &[ArgValue::Buffer(a)],
        &mut gm,
    )
    .unwrap();
    // 1024 floats = 64 dirty lines; the flush must write them all back and
    // take time doing it (completion strictly after the last retire).
    assert!(res.cache.writebacks >= 64, "writebacks = {}", res.cache.writebacks);
    assert!(res.cycles > res.compute_cycles, "flush must cost cycles");
}
