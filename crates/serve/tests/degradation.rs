//! Admission control, quotas, load shedding, and fault containment.
//!
//! Overload and misbehaviour must surface as *typed* [`ServeError`]s —
//! never panics, never unbounded queues — and in-flight work must drain
//! cleanly through every degradation mode.
//!
//! Admission tests use `device_slots: 0` (an admission-only server): jobs
//! are validated and queued but never dispatched, so queue occupancy is
//! deterministic and the assertions cannot race a worker.

use soff_runtime::ApiError;
use soff_serve::{
    Buffer, LaunchError, NdRange, QueueScope, QuotaKind, ServeError, Server, ServerConfig,
    Session, TenantQuota, TenantStats,
};
use soff_sim::{Fault, FaultPlan};
use std::time::{Duration, Instant};

const SRC: &str = r#"
__kernel void bump(__global float* a, int iters, float bias) {
    int i = get_global_id(0);
    float x = a[i];
    for (int k = 0; k < iters; k++) {
        x = x * 0.999f + bias;
    }
    a[i] = x;
}
"#;

/// Builds the kernel and a ready-to-enqueue handle on `sess`.
fn prep(sess: &Session, n: usize, iters: i32) -> soff_serve::KernelHandle {
    let program = sess.build_program(SRC, &[]).unwrap();
    let buf = sess.create_buffer(n * 4).unwrap();
    let bytes: Vec<u8> = std::iter::repeat_n(1.0f32.to_le_bytes(), n).flatten().collect();
    sess.write_buffer(buf, &bytes).unwrap();
    let mut k = sess.kernel(&program, "bump").unwrap();
    k.set_arg_buffer(0, buf).set_arg_i32(1, iters).set_arg_f32(2, 0.5);
    k
}

fn admission_only(cfg: ServerConfig) -> Server {
    Server::new(ServerConfig { device_slots: 0, ..cfg }).unwrap()
}

#[test]
fn tenant_queue_bound_rejects_typed() {
    let server = admission_only(ServerConfig {
        quota: TenantQuota { queue_depth: 3, ..TenantQuota::default() },
        ..ServerConfig::default()
    });
    let sess = server.connect("bounded").unwrap();
    let k = prep(&sess, 8, 10);
    for _ in 0..3 {
        sess.enqueue(&k, NdRange::dim1(8, 4)).expect("within queue depth");
    }
    match sess.enqueue(&k, NdRange::dim1(8, 4)) {
        Err(ServeError::QueueFull { scope: QueueScope::Tenant, limit: 3 }) => {}
        other => panic!("expected tenant QueueFull, got {other:?}"),
    }
    assert_eq!(sess.stats().rejected_queue_full, 1);
}

#[test]
fn global_queue_bound_rejects_typed() {
    let server = admission_only(ServerConfig {
        global_queue_cap: 4,
        ..ServerConfig::default()
    });
    let a = server.connect("a").unwrap();
    let b = server.connect("b").unwrap();
    let ka = prep(&a, 8, 10);
    let kb = prep(&b, 8, 10);
    for _ in 0..2 {
        a.enqueue(&ka, NdRange::dim1(8, 4)).unwrap();
        b.enqueue(&kb, NdRange::dim1(8, 4)).unwrap();
    }
    match a.enqueue(&ka, NdRange::dim1(8, 4)) {
        Err(ServeError::QueueFull { scope: QueueScope::Global, limit: 4 }) => {}
        other => panic!("expected global QueueFull, got {other:?}"),
    }
}

#[test]
fn in_flight_quota_rejects_typed() {
    let server = admission_only(ServerConfig {
        quota: TenantQuota { queue_depth: 10, max_in_flight: 2, ..TenantQuota::default() },
        ..ServerConfig::default()
    });
    let sess = server.connect("capped").unwrap();
    let k = prep(&sess, 8, 10);
    sess.enqueue(&k, NdRange::dim1(8, 4)).unwrap();
    sess.enqueue(&k, NdRange::dim1(8, 4)).unwrap();
    match sess.enqueue(&k, NdRange::dim1(8, 4)) {
        Err(ServeError::QuotaExceeded { what: QuotaKind::InFlight, used: 2, limit: 2 }) => {}
        other => panic!("expected InFlight quota, got {other:?}"),
    }
    assert_eq!(sess.stats().rejected_quota, 1);
}

#[test]
fn invalid_launch_is_rejected_at_admission() {
    // A kernel pointed at another tenant's buffer must be rejected at
    // enqueue time (typed Launch error), never queued or executed.
    let server = admission_only(ServerConfig::default());
    let owner = server.connect("owner").unwrap();
    let thief = server.connect("thief").unwrap();
    let foreign = owner.create_buffer(8 * 4).unwrap();
    let program = thief.build_program(SRC, &[]).unwrap();
    let mut k = thief.kernel(&program, "bump").unwrap();
    k.set_arg_buffer(0, foreign).set_arg_i32(1, 10).set_arg_f32(2, 0.5);
    match thief.enqueue(&k, NdRange::dim1(8, 4)) {
        Err(ServeError::Launch(_)) => {}
        other => panic!("expected Launch validation error, got {other:?}"),
    }
    let st = thief.stats();
    assert_eq!(st.completed + st.failed, 0, "invalid launch must never queue");
}

#[test]
fn out_of_range_work_dimension_is_rejected_at_admission() {
    // `work_dim` 0 or 4 must be a typed Launch error at enqueue, not a
    // panic under the server's state lock.
    let server = admission_only(ServerConfig::default());
    let sess = server.connect("dims").unwrap();
    let k = prep(&sess, 8, 10);
    for work_dim in [0, 4] {
        let nd = NdRange { work_dim, global: [8, 1, 1], local: [4, 1, 1] };
        match sess.enqueue(&k, nd) {
            Err(ServeError::Launch(LaunchError::Api(ApiError::InvalidWorkDimension {
                work_dim: w,
            }))) => assert_eq!(w, work_dim),
            other => panic!("expected InvalidWorkDimension, got {other:?}"),
        }
    }
    // The server still admits a well-formed launch afterwards.
    sess.enqueue(&k, NdRange::dim1(8, 4)).expect("valid launch admitted");
}

#[test]
fn shedding_rejects_new_work_and_drains_old() {
    let server = Server::new(ServerConfig {
        device_slots: 1,
        slice_cycles: 2_000,
        ..ServerConfig::default()
    })
    .unwrap();
    let sess = server.connect("steady").unwrap();
    let k = prep(&sess, 32, 200);
    let admitted = sess.enqueue(&k, NdRange::dim1(32, 4)).unwrap();

    server.shed();
    match sess.enqueue(&k, NdRange::dim1(32, 4)) {
        Err(ServeError::Shedding) => {}
        other => panic!("expected Shedding, got {other:?}"),
    }
    match sess.build_program("__kernel void x(__global int* a) { a[0] = 1; }", &[]) {
        Err(ServeError::Shedding) => {}
        other => panic!("expected Shedding on build, got {:?}", other.map(|_| ())),
    }
    match server.connect("latecomer") {
        Err(ServeError::Shedding) => {}
        other => panic!("expected Shedding on connect, got {:?}", other.map(|_| ())),
    }
    assert_eq!(sess.stats().rejected_shedding, 1);

    // Degradation is graceful: the admitted job still completes.
    sess.wait(admitted).expect("admitted work drains during shedding");

    server.resume();
    let job = sess.enqueue(&k, NdRange::dim1(32, 4)).expect("admission resumes");
    sess.wait(job).unwrap();
}

#[test]
fn total_cycles_quota_caps_a_tenant() {
    let server = Server::new(ServerConfig {
        device_slots: 1,
        quota: TenantQuota { max_total_cycles: Some(1), ..TenantQuota::default() },
        ..ServerConfig::default()
    })
    .unwrap();
    let sess = server.connect("metered").unwrap();
    let k = prep(&sess, 8, 10);
    let job = sess.enqueue(&k, NdRange::dim1(8, 4)).unwrap();
    sess.wait(job).expect("first job runs (quota checked at admission and slice ends)");
    match sess.enqueue(&k, NdRange::dim1(8, 4)) {
        Err(ServeError::QuotaExceeded { what: QuotaKind::TotalCycles, .. }) => {}
        other => panic!("expected TotalCycles quota, got {other:?}"),
    }
}

#[test]
fn job_cycles_quota_kills_a_hog_mid_run() {
    let server = Server::new(ServerConfig {
        device_slots: 1,
        slice_cycles: 500,
        quota: TenantQuota { max_job_cycles: 1_000, ..TenantQuota::default() },
        ..ServerConfig::default()
    })
    .unwrap();
    let sess = server.connect("hog").unwrap();
    // Big enough to be preempted past the 1 000-cycle job quota.
    let k = prep(&sess, 256, 300);
    let job = sess.enqueue(&k, NdRange::dim1(256, 4)).unwrap();
    match sess.wait(job) {
        Err(ServeError::QuotaExceeded { what: QuotaKind::JobCycles, limit: 1_000, .. }) => {}
        other => panic!("expected JobCycles quota, got {other:?}"),
    }
    assert_eq!(sess.stats().failed, 1);
}

#[test]
fn wall_quota_kills_a_job_at_a_slice_boundary() {
    let server = Server::new(ServerConfig {
        device_slots: 1,
        slice_cycles: 500,
        quota: TenantQuota {
            max_job_wall: Some(Duration::ZERO),
            ..TenantQuota::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let sess = server.connect("slow").unwrap();
    let k = prep(&sess, 256, 300);
    let job = sess.enqueue(&k, NdRange::dim1(256, 4)).unwrap();
    match sess.wait(job) {
        Err(ServeError::QuotaExceeded { what: QuotaKind::Wall, .. }) => {}
        other => panic!("expected Wall quota, got {other:?}"),
    }
}

#[test]
fn hung_kernel_is_caught_by_the_watchdog_and_typed() {
    // max_cycles far below the job's needs: the simulator times out, the
    // serve layer types it as Hung, retries once (transient model), then
    // fails it — without disturbing the sibling tenant.
    let server = Server::new(ServerConfig {
        device_slots: 1,
        max_cycles: 300,
        slice_cycles: 50_000,
        ..ServerConfig::default()
    })
    .unwrap();
    let sess = server.connect("hanger").unwrap();
    let k = prep(&sess, 256, 500);
    let job = sess.enqueue(&k, NdRange::dim1(256, 4)).unwrap();
    match sess.wait(job) {
        Err(ServeError::Hung { .. }) => {}
        other => panic!("expected Hung, got {other:?}"),
    }
    let st = sess.stats();
    assert_eq!(st.failed, 1);
    assert_eq!(st.retries, 1, "one bounded retry before giving up");
}

#[test]
fn panicking_tenant_is_contained_and_memory_rolled_back() {
    let server = Server::new(ServerConfig {
        device_slots: 1,
        retry: soff_serve::RetryPolicy { max_attempts: 1, ..Default::default() },
        ..ServerConfig::default()
    })
    .unwrap();

    let victim = server.connect("victim").unwrap();
    let vk = prep(&victim, 8, 50);

    let panicky = server.connect("panicky").unwrap();
    let pk = prep(&panicky, 8, 50);
    let before = {
        // Read the panicky tenant's buffer before the poisoned launch.
        let b = panicky.create_buffer(4).unwrap();
        panicky.write_buffer(b, &7i32.to_le_bytes()).unwrap();
        panicky.read_buffer(b).unwrap()
    };
    assert_eq!(before, 7i32.to_le_bytes());

    panicky.inject_panic_next();
    let poisoned = panicky.enqueue(&pk, NdRange::dim1(8, 4)).unwrap();
    match panicky.wait(poisoned) {
        Err(ServeError::Panicked { message }) => {
            assert!(message.contains("injected tenant panic"), "got: {message}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }

    // The victim tenant is untouched and still fully functional.
    let vjob = victim.enqueue(&vk, NdRange::dim1(8, 4)).unwrap();
    victim.wait(vjob).expect("sibling tenant unaffected by the panic");

    // So is the panicking tenant's own session: memory was rolled back
    // and new launches work.
    let retry_job = panicky.enqueue(&pk, NdRange::dim1(8, 4)).unwrap();
    let out = panicky.wait(retry_job).expect("session usable after contained panic");
    assert_eq!(out.attempts, 1);
}

#[test]
fn injected_hardware_fault_is_retried_then_succeeds() {
    // A forever-stalled channel deadlocks the simulation. The retry path
    // clears the (transient) fault plan and rolls memory back, so the
    // second attempt must produce the exact clean-run result.
    let clean_server = Server::new(ServerConfig { device_slots: 1, ..ServerConfig::default() })
        .unwrap();
    let clean = clean_server.connect("clean").unwrap();
    let ck = prep(&clean, 16, 100);
    let cjob = clean.enqueue(&ck, NdRange::dim1(16, 4)).unwrap();
    let expected = clean.wait(cjob).unwrap();

    // Channel roles depend on the datapath, so probe the channel count
    // on a bare machine and wedge every channel — guaranteed starvation.
    let nchans = {
        let device = soff_serve::Device::system_a();
        let program = soff_runtime::Program::build(SRC, &[], &device).unwrap();
        let mut probe = soff_runtime::Context::new(device);
        let buf = probe.create_buffer(16 * 4);
        let mut k = program.kernel("bump").unwrap();
        k.set_arg_buffer(0, buf).set_arg_i32(1, 100).set_arg_f32(2, 0.5);
        let nd = NdRange::dim1(16, 4);
        let args = probe.prepare_launch(&k, nd).unwrap();
        let ck = k.compiled();
        let cfg = probe.launch_config(ck);
        soff_sim::Machine::new(&ck.kernel, &ck.datapath, &cfg, nd, &args)
            .unwrap()
            .num_channels()
    };
    let mut plan = FaultPlan::none();
    for chan in 0..nchans {
        plan = plan.with(Fault::ChannelStuckStall { chan, from: 0, cycles: u64::MAX });
    }

    let server = Server::new(ServerConfig { device_slots: 1, ..ServerConfig::default() }).unwrap();
    let sess = server.connect("faulty").unwrap();
    let k = prep(&sess, 16, 100);
    sess.inject_faults_next(plan);
    let job = sess.enqueue(&k, NdRange::dim1(16, 4)).unwrap();
    let out = sess.wait(job).expect("fault is transient: retry succeeds");
    assert_eq!(out.attempts, 2, "first attempt faulted, second succeeded");
    assert_eq!(out.cycles, expected.cycles, "retry result identical to clean run");
    assert_eq!(sess.stats().retries, 1);
}

#[test]
fn queued_and_running_jobs_can_be_cancelled() {
    // Queued: admission-only server, cancellation is immediate.
    let parked = admission_only(ServerConfig::default());
    let sess = parked.connect("parked").unwrap();
    let k = prep(&sess, 8, 10);
    let job = sess.enqueue(&k, NdRange::dim1(8, 4)).unwrap();
    assert!(sess.cancel(job));
    match sess.wait(job) {
        Err(ServeError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(sess.stats().cancelled, 1);
    // A consumed job id is gone.
    match sess.wait(job) {
        Err(ServeError::UnknownJob) => {}
        other => panic!("expected UnknownJob, got {other:?}"),
    }

    // Running: cancel stops the slice at the simulator's poll point.
    let server = Server::new(ServerConfig {
        device_slots: 1,
        slice_cycles: 1 << 40,
        ..ServerConfig::default()
    })
    .unwrap();
    let sess = server.connect("runner").unwrap();
    let k = prep(&sess, 1024, 400);
    let job = sess.enqueue(&k, NdRange::dim1(1024, 4)).unwrap();
    // Wait (bounded) until the slice is actually running, then cancel.
    for _ in 0..500 {
        if server.stats().slices > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    sess.cancel(job);
    match sess.wait(job) {
        Err(ServeError::Cancelled) => {}
        // Tiny race: the job may have finished before the cancel landed.
        Ok(_) => {}
        Err(e) => panic!("expected Cancelled or completion, got {e:?}"),
    }
}

#[test]
fn cancelling_queued_jobs_releases_quota_and_queue_slots() {
    // Regression guard for the admission counters: cancelling a queued
    // job must release its in-flight quota, its tenant queue slot, AND
    // the global queue slot — otherwise a tenant that cancels a burst is
    // wedged at QuotaExceeded/QueueFull forever even though nothing of
    // theirs is queued or running. Admission-only server so occupancy is
    // deterministic.
    let server = admission_only(ServerConfig {
        global_queue_cap: 3,
        quota: TenantQuota { queue_depth: 3, max_in_flight: 3, ..TenantQuota::default() },
        ..ServerConfig::default()
    });
    let sess = server.connect("burster").unwrap();
    let k = prep(&sess, 8, 10);

    // Fill every bound at once (tenant queue == in-flight == global cap).
    for round in 0..3 {
        let jobs: Vec<_> =
            (0..3).map(|_| sess.enqueue(&k, NdRange::dim1(8, 4)).unwrap()).collect();
        assert!(
            sess.enqueue(&k, NdRange::dim1(8, 4)).is_err(),
            "round {round}: all bounds are saturated"
        );
        for job in jobs {
            assert!(sess.cancel(job), "round {round}: queued job cancels immediately");
            match sess.wait(job) {
                Err(ServeError::Cancelled) => {}
                other => panic!("round {round}: expected Cancelled, got {other:?}"),
            }
        }
    }
    assert_eq!(sess.stats().cancelled, 9);

    // A sibling tenant sees a fully released global queue too.
    let sib = server.connect("sibling").unwrap();
    let sk = prep(&sib, 8, 10);
    for _ in 0..3 {
        sib.enqueue(&sk, NdRange::dim1(8, 4)).expect("global slots were released");
    }
}

#[test]
fn closed_session_and_shutdown_reject_typed() {
    let server = Server::new(ServerConfig { device_slots: 1, ..ServerConfig::default() }).unwrap();
    let sess = server.connect("leaver").unwrap();
    let k = prep(&sess, 8, 10);
    sess.close();
    match sess.enqueue(&k, NdRange::dim1(8, 4)) {
        Err(ServeError::Closed) => {}
        other => panic!("expected Closed after close, got {other:?}"),
    }

    let sess2 = server.connect("other").unwrap();
    let k2 = prep(&sess2, 8, 10);
    server.shutdown();
    match sess2.enqueue(&k2, NdRange::dim1(8, 4)) {
        Err(ServeError::Closed) => {}
        other => panic!("expected Closed after shutdown, got {other:?}"),
    }
    match server.connect("too-late") {
        Err(ServeError::Closed) => {}
        other => panic!("expected Closed connect, got {:?}", other.map(|_| ())),
    }
}

// ------------------------------------------------------------ no trace
//
// A job that does not complete leaves its tenant's memory as it found
// it. With 10 iterations per item, the jobs below have written back
// thousands of floats by cycle 1 000 and run for about 260 000 cycles,
// so a cancel lands long before they could finish.

const WIDE: usize = 1 << 18;

/// A `bump` launch over `WIDE` floats, its buffer, and the buffer's bytes
/// read back before anything is enqueued.
fn wide_job(sess: &Session) -> (soff_serve::KernelHandle, Buffer, Vec<u8>) {
    let program = sess.build_program(SRC, &[]).unwrap();
    let buf = sess.create_buffer(WIDE * 4).unwrap();
    let bytes: Vec<u8> = (0..WIDE).flat_map(|i| (i as f32).to_le_bytes()).collect();
    sess.write_buffer(buf, &bytes).unwrap();
    let mut k = sess.kernel(&program, "bump").unwrap();
    k.set_arg_buffer(0, buf).set_arg_i32(1, 10).set_arg_f32(2, 0.5);
    let before = sess.read_buffer(buf).unwrap();
    assert_eq!(before, bytes);
    (k, buf, before)
}

fn wide() -> NdRange {
    NdRange::dim1(WIDE as u64, 4)
}

/// Asserts `sess`'s `buf` reads back as `before`, naming how many floats
/// differ otherwise.
fn assert_untouched(sess: &Session, buf: Buffer, before: &[u8]) {
    let after = sess.read_buffer(buf).unwrap();
    let modified = after.chunks(4).zip(before.chunks(4)).filter(|(a, b)| a != b).count();
    assert_eq!(modified, 0, "{modified} of {WIDE} floats modified by a job that did not complete");
}

/// Spins until `cond` holds on the server's accounting (bounded, so a
/// scheduling bug fails the test instead of hanging it).
fn spin_until(server: &Server, cond: impl Fn(&[TenantStats]) -> bool) {
    let started = Instant::now();
    while !cond(&server.stats().tenants) {
        assert!(started.elapsed() < Duration::from_secs(120), "condition never held");
        std::thread::yield_now();
    }
}

/// Two tenants on one slot: least attained service alternates their
/// slices, and a settle and the next dispatch happen under one lock hold.
/// So while the first tenant has consumed more cycles than the second,
/// the second holds the slot and the first tenant's job waits requeued.
fn first_is_requeued(tenants: &[TenantStats], min_cycles: u64) -> bool {
    tenants[0].cycles >= min_cycles && tenants[0].cycles > tenants[1].cycles
}

fn one_slot_500() -> Server {
    Server::new(ServerConfig { device_slots: 1, slice_cycles: 500, ..ServerConfig::default() })
        .unwrap()
}

#[test]
fn job_cycles_kill_leaves_no_trace() {
    let server = Server::new(ServerConfig {
        device_slots: 1,
        slice_cycles: 500,
        quota: TenantQuota { max_job_cycles: 1_000, ..TenantQuota::default() },
        ..ServerConfig::default()
    })
    .unwrap();
    let sess = server.connect("hog").unwrap();
    let (k, buf, before) = wide_job(&sess);
    let job = sess.enqueue(&k, wide()).unwrap();
    match sess.wait(job) {
        Err(ServeError::QuotaExceeded { what: QuotaKind::JobCycles, .. }) => {}
        other => panic!("expected JobCycles quota, got {other:?}"),
    }
    assert_untouched(&sess, buf, &before);
}

#[test]
fn cancel_between_slices_leaves_no_trace() {
    let server = one_slot_500();
    let a = server.connect("cancelled").unwrap();
    let b = server.connect("neighbour").unwrap();
    let (ka, abuf, before) = wide_job(&a);
    let (kb, _, _) = wide_job(&b);
    let ja = a.enqueue(&ka, wide()).unwrap();
    let jb = b.enqueue(&kb, wide()).unwrap();
    spin_until(&server, |t| first_is_requeued(t, 1_000));
    assert!(a.cancel(ja), "the job is still in flight");
    match a.wait(ja) {
        Err(ServeError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_untouched(&a, abuf, &before);
    b.cancel(jb);
    let _ = b.wait(jb);
}

#[test]
fn cancel_mid_slice_leaves_no_trace() {
    // One slice covers the whole job, so the cancel lands inside it.
    let server = Server::new(ServerConfig {
        device_slots: 1,
        slice_cycles: 1 << 40,
        ..ServerConfig::default()
    })
    .unwrap();
    let sess = server.connect("runner").unwrap();
    let (k, buf, before) = wide_job(&sess);
    let job = sess.enqueue(&k, wide()).unwrap();
    let started = Instant::now();
    while server.stats().slices == 0 {
        assert!(started.elapsed() < Duration::from_secs(120), "the job never dispatched");
        std::thread::yield_now();
    }
    // Let the slice write part of the buffer back before it is cancelled.
    std::thread::sleep(Duration::from_millis(400));
    assert!(sess.cancel(job), "the job is still in flight");
    match sess.wait(job) {
        Err(ServeError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_untouched(&sess, buf, &before);
}

#[test]
fn buffer_created_during_a_killed_job_survives_the_rewind() {
    let server = one_slot_500();
    let a = server
        .connect_with_quota(
            "killed",
            TenantQuota { max_job_cycles: 1_500, ..TenantQuota::default() },
        )
        .unwrap();
    let b = server.connect("neighbour").unwrap();
    let (ka, abuf, before) = wide_job(&a);
    let (kb, _, _) = wide_job(&b);
    let ja = a.enqueue(&ka, wide()).unwrap();
    let jb = b.enqueue(&kb, wide()).unwrap();
    spin_until(&server, |t| first_is_requeued(t, 500));
    let extra = a.create_buffer(64).unwrap();
    match a.wait(ja) {
        Err(ServeError::QuotaExceeded { what: QuotaKind::JobCycles, .. }) => {}
        other => panic!("expected JobCycles quota, got {other:?}"),
    }
    assert_untouched(&a, abuf, &before);
    assert_eq!(a.read_buffer(extra).unwrap(), vec![0u8; 64], "the new buffer keeps its bytes");
    let later = a.create_buffer(64).unwrap();
    assert_ne!(later, extra, "the new buffer keeps its id");
    a.write_buffer(later, &[7u8; 64]).unwrap();
    assert_eq!(a.read_buffer(extra).unwrap(), vec![0u8; 64]);
    b.cancel(jb);
    let _ = b.wait(jb);
}
