//! Multi-tenant determinism and fairness.
//!
//! The serve layer's core promise: slices cut at deterministic cycle
//! numbers and snapshots resume bit-identically, so a tenant's results
//! (final cycle count AND device memory bytes) are byte-identical whether
//! it runs alone on a bare [`Context`] or interleaved with other tenants
//! on a shared server — including when neighbours panic, get cancelled,
//! or hit injected hardware faults.

use rand::{Rng, SeedableRng};
use soff_runtime::{Context, Device, Program};
use soff_serve::{NdRange, Server, ServerConfig, TenantQuota};
use std::time::Duration;

const SRC: &str = r#"
__kernel void crunch(__global float* a, int iters, float bias) {
    int i = get_global_id(0);
    float x = a[i];
    for (int k = 0; k < iters; k++) {
        x = x * 0.999f + bias;
    }
    a[i] = x;
}
"#;

/// One tenant's workload: a buffer of `n` floats iterated `iters` times.
#[derive(Clone, Copy)]
struct Work {
    n: usize,
    iters: i32,
    bias: f32,
    seed: u64,
}

fn input(w: &Work) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(w.seed);
    (0..w.n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn as_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Ground truth: the same workload on a bare single-tenant context with
/// no slicing at all.
fn solo(w: &Work) -> (u64, Vec<u8>) {
    let device = Device::system_a();
    let program = Program::build(SRC, &[], &device).expect("solo build");
    let mut ctx = Context::new(device);
    let buf = ctx.create_buffer(w.n * 4);
    ctx.write_buffer(buf, &as_bytes(&input(w))).unwrap();
    let mut k = program.kernel("crunch").unwrap();
    k.set_arg_buffer(0, buf).set_arg_i32(1, w.iters).set_arg_f32(2, w.bias);
    let stats = ctx.enqueue_ndrange(&k, NdRange::dim1(w.n as u64, 4)).unwrap();
    (stats.sim.cycles, ctx.read_buffer(buf).unwrap())
}

/// The same workload as one tenant of `server`; returns what solo()
/// returns so the two can be compared bit-for-bit.
fn serve_tenant(server: &Server, name: &str, w: &Work) -> (u64, Vec<u8>) {
    let sess = server.connect(name).expect("connect");
    let program = sess.build_program(SRC, &[]).expect("build");
    let buf = sess.create_buffer(w.n * 4).unwrap();
    sess.write_buffer(buf, &as_bytes(&input(w))).unwrap();
    let mut k = sess.kernel(&program, "crunch").unwrap();
    k.set_arg_buffer(0, buf).set_arg_i32(1, w.iters).set_arg_f32(2, w.bias);
    let job = sess.enqueue(&k, NdRange::dim1(w.n as u64, 4)).expect("enqueue");
    let out = sess.wait(job).expect("job result");
    (out.cycles, sess.read_buffer(buf).unwrap())
}

#[test]
fn shared_results_match_solo_runs() {
    let works = [
        Work { n: 32, iters: 400, bias: 0.125, seed: 1 },
        Work { n: 48, iters: 250, bias: -0.5, seed: 2 },
        Work { n: 16, iters: 900, bias: 0.25, seed: 3 },
    ];
    let expected: Vec<(u64, Vec<u8>)> = works.iter().map(solo).collect();

    // Small slices over fewer slots than tenants forces real preemption
    // and interleaving.
    let server = Server::new(ServerConfig {
        device_slots: 2,
        slice_cycles: 1_000,
        ..ServerConfig::default()
    })
    .unwrap();

    let got: Vec<(u64, Vec<u8>)> = std::thread::scope(|s| {
        let handles: Vec<_> = works
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let server = &server;
                s.spawn(move || serve_tenant(server, &format!("t{i}"), w))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (exp, got)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(exp.0, got.0, "tenant {i}: cycle count diverged from solo run");
        assert_eq!(exp.1, got.1, "tenant {i}: memory bytes diverged from solo run");
    }
    let stats = server.stats();
    assert!(stats.preemptions > 0, "slices too big: nothing was preempted");
    assert!(stats.slices as usize > works.len(), "no time-slicing happened");
}

/// The server's scheduler knob reaches the simulator (it used to be
/// silently ignored) and both backends — each restoring a snapshot at
/// every slice — slice to the same bit-identical results as a solo
/// unsliced run.
#[test]
fn sliced_results_are_backend_invariant() {
    let works = [
        Work { n: 32, iters: 400, bias: 0.125, seed: 21 },
        Work { n: 16, iters: 900, bias: 0.25, seed: 22 },
    ];
    let expected: Vec<(u64, Vec<u8>)> = works.iter().map(solo).collect();

    for scheduler in [soff_sim::Scheduler::Dense, soff_sim::Scheduler::Fast] {
        let server = Server::new(ServerConfig {
            device_slots: 1,
            slice_cycles: 1_000,
            scheduler,
            ..ServerConfig::default()
        })
        .unwrap();
        let got: Vec<(u64, Vec<u8>)> = works
            .iter()
            .enumerate()
            .map(|(i, w)| serve_tenant(&server, &format!("t{i}"), w))
            .collect();
        for (i, (exp, got)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(exp, got, "tenant {i} diverged from solo under {scheduler:?}");
        }
        let stats = server.stats();
        assert!(stats.preemptions > 0, "{scheduler:?}: slices too big, nothing preempted");
        server.shutdown();
    }
}

#[test]
fn disruptive_neighbours_do_not_perturb_results() {
    let victim = Work { n: 24, iters: 600, bias: 0.0625, seed: 7 };
    let expected = solo(&victim);

    let server = Server::new(ServerConfig {
        device_slots: 1,
        slice_cycles: 800,
        ..ServerConfig::default()
    })
    .unwrap();

    let got = std::thread::scope(|s| {
        // The victim: a clean tenant whose results we check.
        let h = {
            let server = &server;
            s.spawn(move || serve_tenant(server, "victim", &victim))
        };

        // A panicking neighbour: every odd job sabotaged.
        let server2 = &server;
        s.spawn(move || {
            let sess = server2.connect("panicky").unwrap();
            let program = sess.build_program(SRC, &[]).unwrap();
            let buf = sess.create_buffer(16 * 4).unwrap();
            sess.write_buffer(buf, &as_bytes(&[1.0; 16])).unwrap();
            let mut k = sess.kernel(&program, "crunch").unwrap();
            k.set_arg_buffer(0, buf).set_arg_i32(1, 300).set_arg_f32(2, 0.5);
            for j in 0..4u32 {
                if j % 2 == 1 {
                    sess.inject_panic_next();
                }
                let job = sess.enqueue(&k, NdRange::dim1(16, 4)).unwrap();
                // Sabotaged jobs are retried with the sabotage cleared
                // (transient-fault model), so every job still completes.
                let out = sess.wait(job).expect("retried job completes");
                assert_eq!(out.attempts, if j % 2 == 1 { 2 } else { 1 });
            }
        });

        // A flaky neighbour: cancels half its own jobs mid-queue.
        let server3 = &server;
        s.spawn(move || {
            let sess = server3.connect("flaky").unwrap();
            let program = sess.build_program(SRC, &[]).unwrap();
            let buf = sess.create_buffer(16 * 4).unwrap();
            sess.write_buffer(buf, &as_bytes(&[2.0; 16])).unwrap();
            let mut k = sess.kernel(&program, "crunch").unwrap();
            k.set_arg_buffer(0, buf).set_arg_i32(1, 500).set_arg_f32(2, -0.25);
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            for _ in 0..4 {
                let job = sess.enqueue(&k, NdRange::dim1(16, 4)).unwrap();
                if rng.gen_bool(0.5) {
                    sess.cancel(job);
                    match sess.wait(job) {
                        Err(soff_serve::ServeError::Cancelled) | Ok(_) => {}
                        Err(e) => panic!("cancelled job failed oddly: {e}"),
                    }
                } else {
                    sess.wait(job).expect("uncancelled job completes");
                }
            }
        });

        h.join().unwrap()
    });

    assert_eq!(expected.0, got.0, "victim cycle count perturbed by neighbours");
    assert_eq!(expected.1, got.1, "victim memory bytes perturbed by neighbours");
}

#[test]
fn no_tenant_starves_under_overload() {
    // 4 tenants contend for 1 slot, each submitting more work than the
    // slot can absorb promptly. Least-attained-service slicing must let
    // every tenant finish, with completed work perfectly balanced.
    let server = Server::new(ServerConfig {
        device_slots: 1,
        slice_cycles: 500,
        ..ServerConfig::default()
    })
    .unwrap();

    let per_tenant_jobs = 3;
    std::thread::scope(|s| {
        for t in 0..4 {
            let server = &server;
            s.spawn(move || {
                let sess = server.connect(&format!("tenant{t}")).unwrap();
                let program = sess.build_program(SRC, &[]).unwrap();
                let buf = sess.create_buffer(16 * 4).unwrap();
                sess.write_buffer(buf, &as_bytes(&[0.5; 16])).unwrap();
                let mut k = sess.kernel(&program, "crunch").unwrap();
                k.set_arg_buffer(0, buf).set_arg_i32(1, 400).set_arg_f32(2, 0.125);
                let jobs: Vec<_> = (0..per_tenant_jobs)
                    .map(|_| sess.enqueue(&k, NdRange::dim1(16, 4)).unwrap())
                    .collect();
                for job in jobs {
                    sess.wait(job).expect("job completes under overload");
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.tenants.len(), 4);
    for t in &stats.tenants {
        assert_eq!(t.completed, per_tenant_jobs, "tenant {} starved", t.name);
    }
    assert_eq!(stats.completion_fairness(), 1.0);
    assert!(stats.preemptions > 0, "overload never preempted anyone");
}

#[test]
fn light_tenant_is_not_stuck_behind_heavy_tenant() {
    // A heavy tenant's single huge job must not starve a light tenant's
    // small jobs: least-attained-service preempts the hog every slice.
    let server = Server::new(ServerConfig {
        device_slots: 1,
        slice_cycles: 400,
        ..ServerConfig::default()
    })
    .unwrap();

    // Heavy = many work-items (steady retirement keeps the livelock
    // watchdog quiet), not one enormous loop (which trips it by design,
    // serve or no serve).
    let heavy = server.connect("heavy").unwrap();
    let program = heavy.build_program(SRC, &[]).unwrap();
    let hbuf = heavy.create_buffer(1024 * 4).unwrap();
    heavy.write_buffer(hbuf, &as_bytes(&[1.0; 1024])).unwrap();
    let mut hk = heavy.kernel(&program, "crunch").unwrap();
    hk.set_arg_buffer(0, hbuf).set_arg_i32(1, 400).set_arg_f32(2, 0.25);
    let heavy_job = heavy.enqueue(&hk, NdRange::dim1(1024, 4)).unwrap();

    let light = server.connect("light").unwrap();
    let lbuf = light.create_buffer(8 * 4).unwrap();
    light.write_buffer(lbuf, &as_bytes(&[0.5; 8])).unwrap();
    let mut lk = light.kernel(&program, "crunch").unwrap();
    lk.set_arg_buffer(0, lbuf).set_arg_i32(1, 50).set_arg_f32(2, 0.5);
    for _ in 0..3 {
        let job = light.enqueue(&lk, NdRange::dim1(8, 4)).unwrap();
        light.wait(job).expect("light job completes while heavy runs");
    }

    // The light tenant finished all its jobs; the heavy job's total cost
    // dwarfs the light tenant's, so it cannot have finished first unless
    // the light tenant was starved behind it.
    let light_stats = light.stats();
    assert_eq!(light_stats.completed, 3);
    assert!(heavy.stats().cycles > 0, "heavy tenant made no progress at all");
    heavy.wait(heavy_job).expect("heavy job eventually completes");
}

#[test]
fn randomized_tenant_mix_is_deterministic() {
    // Seeded random workloads across tenants; every tenant's serve-side
    // results must equal its solo results no matter the interleaving.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
    let works: Vec<Work> = (0..4)
        .map(|i| Work {
            n: rng.gen_range(8usize..40) & !3,
            iters: rng.gen_range(100..800),
            bias: rng.gen_range(-0.5f32..0.5),
            seed: 100 + i,
        })
        .collect();
    let expected: Vec<(u64, Vec<u8>)> = works.iter().map(solo).collect();

    let server = Server::new(ServerConfig {
        device_slots: 3,
        slice_cycles: 700,
        quota: TenantQuota { max_job_wall: Some(Duration::from_secs(120)), ..TenantQuota::default() },
        ..ServerConfig::default()
    })
    .unwrap();

    let got: Vec<(u64, Vec<u8>)> = std::thread::scope(|s| {
        let handles: Vec<_> = works
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let server = &server;
                s.spawn(move || serve_tenant(server, &format!("r{i}"), w))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (exp, got)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(exp, got, "tenant {i} diverged from its solo run");
    }
}
