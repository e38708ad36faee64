//! Multi-tenant serve-layer soak: N tenants hammer a shared server with
//! deterministic seeded workloads, with per-job turnaround percentiles,
//! an overload fairness self-check, and a run digest over every job's
//! cycle count and read-back bytes.
//!
//! The digest is the crash-recovery witness: because slices cut at
//! deterministic cycle numbers, a capacity run produces the same digest
//! whether its compiles came from a cold frontend or were restored from
//! the on-disk store — so CI can kill -9 a run mid-flight, restart it
//! against the same `--cache-dir`, and diff the digest lines.
//!
//! Usage:
//!   serve_soak [--slots N] [--tenants N] [--jobs N] [--seed S]
//!              [--slice CYCLES] [--cache-dir DIR] [--overload]
//!              [--metrics FILE] [--trace FILE] [--json]
//!
//! `--overload` runs one device slot with tight queue bounds and exits
//! non-zero unless backpressure was exercised (typed queue/quota
//! rejections observed), preemption happened, and no tenant starved.
//!
//! `--metrics FILE` writes the process-global metrics registry as
//! Prometheus-style text exposition after the run: the serve layer's
//! per-tenant queue-wait / slice-duration histograms and per-class
//! rejection counters, the runtime's cache counters, and this binary's
//! own turnaround histogram all come from the same registry.
//!
//! `--trace FILE` records request-path spans and samples every 4th job
//! per tenant through the simulator's cycle profiler, then writes one
//! merged Chrome trace (open in Perfetto / `chrome://tracing`): pid 0 is
//! the serve layer on the wall clock, pids 100+ are sampled kernels on
//! their simulated-cycle clocks. Profiling is observational — the run
//! digest is unchanged.
//!
//! `--json` writes the run's row (flags, counts, turnaround buckets,
//! cache counters, digest) to `BENCH_serve_soak.json`; without it the
//! run writes no file.

use soff_bench::json::{write_bench_rows, Json};
use soff_obs::{
    fnv1a, pair_spans_with_drops, ChromeTraceWriter, SpanKind, TraceBuf, FNV_OFFSET,
};
use soff_serve::{
    JobId, NdRange, ProfileSampling, ServeError, Server, ServerConfig, Session, TenantQuota,
};
use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Three kernel variants so a soak populates the compile store with more
/// than one object and a restart exercises more than one disk hit.
fn source(variant: u64) -> String {
    format!(
        r#"
__kernel void soak{variant}(__global float* a, int iters, float bias) {{
    int i = get_global_id(0);
    float x = a[i];
    for (int k = 0; k < iters; k++) {{
        x = x * 0.99{variant}f + bias;
    }}
    a[i] = x;
}}
"#
    )
}

// ------------------------------------------------------------- determinism

/// splitmix64: the workload generator. Deliberately dependency-free so
/// the soak's job mix is reproducible from `--seed` alone, forever.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Uniform float in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
    }
}

// ------------------------------------------------------------------- jobs

#[derive(Clone, Copy)]
struct JobSpec {
    n: usize,
    iters: i32,
    bias: f32,
    input_seed: u64,
}

/// The job mix for one tenant, derived only from (seed, tenant index).
fn tenant_jobs(seed: u64, tenant: usize, jobs: usize) -> Vec<JobSpec> {
    let mut rng = Rng(seed ^ (tenant as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
    (0..jobs)
        .map(|_| JobSpec {
            n: (16 + 4 * rng.below(12)) as usize,
            iters: (100 + rng.below(200)) as i32,
            bias: rng.unit() * 0.25,
            input_seed: rng.next(),
        })
        .collect()
}

fn input_bytes(spec: &JobSpec) -> Vec<u8> {
    let mut rng = Rng(spec.input_seed);
    (0..spec.n).flat_map(|_| rng.unit().to_le_bytes()).collect()
}

/// What one tenant thread brings home.
struct TenantRun {
    digest: u64,
    /// Per-job turnaround (enqueue → result), µs.
    turnarounds: Vec<u64>,
    backpressure_waits: u64,
}

/// Runs one tenant's whole job list with backpressure: inputs are
/// staged up front (buffer writes drain the in-order queue, so staging
/// mid-stream would cap queue depth at one), then jobs are enqueued in
/// a burst; a rejected enqueue (typed `QueueFull` / `QuotaExceeded`,
/// never a panic) waits out the oldest outstanding job and retries.
fn run_tenant(sess: &Session, specs: &[JobSpec], variant: u64) -> TenantRun {
    let src = source(variant);
    let program = sess.build_program(&src, &[]).expect("soak build");
    let name = format!("soak{variant}");
    let mut digest = FNV_OFFSET;
    let mut turnarounds = Vec::with_capacity(specs.len());
    let mut backpressure_waits = 0u64;

    // Stage every input before the first enqueue: after this the queue
    // can actually fill, because nothing else needs a drained queue.
    let buffers: Vec<soff_serve::Buffer> = specs
        .iter()
        .map(|spec| {
            let buf = sess.create_buffer(spec.n * 4).expect("create buffer");
            sess.write_buffer(buf, &input_bytes(spec)).expect("write buffer");
            buf
        })
        .collect();

    let drain_one = |pending: &mut VecDeque<(JobId, Instant)>,
                     digest: &mut u64,
                     turnarounds: &mut Vec<u64>| {
        let (id, t0) = pending.pop_front().expect("backpressure with empty queue");
        let out = sess.wait(id).expect("soak job failed");
        turnarounds.push(t0.elapsed().as_micros() as u64);
        *digest = fnv1a(*digest, &out.cycles.to_le_bytes());
    };

    let mut pending: VecDeque<(JobId, Instant)> = VecDeque::new();
    for (spec, &buf) in specs.iter().zip(&buffers) {
        let mut k = sess.kernel(&program, &name).expect("kernel");
        k.set_arg_buffer(0, buf).set_arg_i32(1, spec.iters).set_arg_f32(2, spec.bias);
        loop {
            match sess.enqueue(&k, NdRange::dim1(spec.n as u64, 4)) {
                Ok(id) => {
                    pending.push_back((id, Instant::now()));
                    break;
                }
                Err(ServeError::QueueFull { .. } | ServeError::QuotaExceeded { .. }) => {
                    backpressure_waits += 1;
                    drain_one(&mut pending, &mut digest, &mut turnarounds);
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }
    while !pending.is_empty() {
        drain_one(&mut pending, &mut digest, &mut turnarounds);
    }
    // Jobs are independent (one buffer each) and the queue is drained,
    // so reading back in job order is deterministic.
    for &buf in &buffers {
        digest = fnv1a(digest, &sess.read_buffer(buf).expect("read back"));
    }
    TenantRun { digest, turnarounds, backpressure_waits }
}

// ------------------------------------------------------------------- main

struct Opts {
    slots: usize,
    tenants: usize,
    jobs: usize,
    seed: u64,
    slice: u64,
    cache_dir: Option<PathBuf>,
    overload: bool,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_soak [--slots N] [--tenants N] [--jobs N] [--seed S] \
         [--slice CYCLES] [--cache-dir DIR] [--overload] \
         [--metrics FILE] [--trace FILE] [--json]"
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        slots: 2,
        tenants: 4,
        jobs: 6,
        seed: 1,
        slice: 2_000,
        cache_dir: None,
        overload: false,
        metrics: None,
        trace: None,
        json: false,
    };
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        let mut val = |what: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--slots" => o.slots = val("--slots").parse().unwrap_or_else(|_| usage()),
            "--tenants" => o.tenants = val("--tenants").parse().unwrap_or_else(|_| usage()),
            "--jobs" => o.jobs = val("--jobs").parse().unwrap_or_else(|_| usage()),
            "--seed" => o.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--slice" => o.slice = val("--slice").parse().unwrap_or_else(|_| usage()),
            "--cache-dir" => o.cache_dir = Some(PathBuf::from(val("--cache-dir"))),
            "--metrics" => o.metrics = Some(PathBuf::from(val("--metrics"))),
            "--trace" => o.trace = Some(PathBuf::from(val("--trace"))),
            "--overload" => o.overload = true,
            "--json" => o.json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if o.slots == 0 || o.tenants == 0 || o.jobs == 0 {
        eprintln!("--slots/--tenants/--jobs must be positive");
        usage();
    }
    o
}

/// Writes the merged Chrome trace: serve spans on pid 0 (wall-clock µs,
/// one track per session), each sampled kernel profile on its own pid
/// (simulated cycles rendered as µs — a different clock, hence a
/// different process group).
fn write_merged_trace(
    path: &PathBuf,
    buf: &TraceBuf,
    profiles: &[soff_serve::JobProfile],
) -> std::io::Result<usize> {
    let events = buf.snapshot();
    let f = std::fs::File::create(path)?;
    let mut w = ChromeTraceWriter::new(BufWriter::new(f))?;
    w.process_name(0, "soff-serve (wall clock, µs)")?;
    let mut named: Vec<u64> = Vec::new();
    for e in &events {
        if !named.contains(&e.corr.session) {
            named.push(e.corr.session);
            w.thread_name(0, e.corr.session, &e.tenant)?;
        }
    }
    // Drop-aware pairing: on a wrapped ring, ends whose begins were
    // evicted are truncation, not imbalance, and are simply not drawn.
    let paired = pair_spans_with_drops(&events, buf.dropped());
    for s in &paired.complete {
        w.complete(
            0,
            s.corr.session,
            s.name,
            s.start_us,
            s.end_us - s.start_us,
            &[("tenant", s.tenant.to_string()), ("seq", s.corr.seq.to_string())],
        )?;
    }
    for e in &events {
        if e.kind == SpanKind::Instant {
            w.instant(0, e.corr.session, e.name, e.ts_us, &[("seq", e.corr.seq.to_string())])?;
        }
    }
    for (k, jp) in profiles.iter().enumerate() {
        let pid = 100 + k as u64;
        w.process_name(pid, &format!("sim {} job {} (cycles as µs)", jp.tenant, jp.seq))?;
        let (wr, first) = w.parts();
        soff_sim::chrome_trace_events(&jp.report, wr, pid, 0, first)?;
    }
    let mut out = w.finish()?;
    out.flush()?;
    Ok(events.len())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let o = parse(&args);

    let trace_buf = o.trace.as_ref().map(|_| Arc::new(TraceBuf::new(1 << 16)));
    let mut cfg = ServerConfig {
        device_slots: o.slots,
        slice_cycles: o.slice,
        cache_dir: o.cache_dir.clone(),
        trace: trace_buf.clone(),
        // Sample every 4th job per tenant through the cycle profiler when
        // a trace is requested. Profiling only observes: cycle counts and
        // the run digest are unchanged.
        profile: o.trace.as_ref().map(|_| ProfileSampling {
            every: 4,
            max_reports: 32,
            ..ProfileSampling::default()
        }),
        ..ServerConfig::default()
    };
    if o.overload {
        // One slot, tight bounds: admission control must push back and
        // least-attained-service must keep every tenant moving.
        cfg.device_slots = 1;
        cfg.global_queue_cap = 2 * o.tenants;
        cfg.quota = TenantQuota { queue_depth: 2, max_in_flight: 3, ..TenantQuota::default() };
    }
    println!(
        "serve_soak: slots={} tenants={} jobs={} seed={} slice={} overload={} cache={}",
        cfg.device_slots,
        o.tenants,
        o.jobs,
        o.seed,
        o.slice,
        o.overload,
        o.cache_dir.as_deref().map_or("none".into(), |p| p.display().to_string()),
    );

    soff_runtime::cache::clear();
    soff_runtime::cache::reset_stats();
    let server = Server::new(cfg).expect("start server");
    let wall = Instant::now();

    let runs: Vec<TenantRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..o.tenants)
            .map(|t| {
                let server = &server;
                let specs = tenant_jobs(o.seed, t, o.jobs);
                s.spawn(move || {
                    let sess = server.connect(&format!("t{t}")).expect("connect");
                    let run = run_tenant(&sess, &specs, (t % 3) as u64);
                    sess.close();
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });
    let wall = wall.elapsed();

    // Combine per-tenant digests in tenant order (thread-timing free).
    let mut digest = FNV_OFFSET;
    for (t, run) in runs.iter().enumerate() {
        digest = fnv1a(digest, &(t as u64).to_le_bytes());
        digest = fnv1a(digest, &run.digest.to_le_bytes());
    }

    // Turnarounds go through the shared log-scale histogram; percentiles
    // use its explicit nearest-rank rule (rank = clamp(ceil(p·N), 1, N),
    // reported as the bucket's upper bound — an "at most" value). The
    // old sorted-vec `round((len-1)·p)` index was off by one at the
    // boundaries: p99 of 100 samples picked index 98, i.e. rank 99.
    let turnaround = soff_obs::global().histogram("soff_soak_turnaround_us", &[]);
    for r in &runs {
        for &us in &r.turnarounds {
            turnaround.record(us);
        }
    }
    let tsnap = turnaround.snapshot();
    let p50_us = tsnap.percentile(0.50);
    let p99_us = tsnap.percentile(0.99);
    let backpressure: u64 = runs.iter().map(|r| r.backpressure_waits).sum();

    let stats = server.stats();
    let fairness = stats.completion_fairness();
    let (mut completed, mut failed, mut rej_queue, mut rej_quota, mut rej_shed, mut retries) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for t in &stats.tenants {
        completed += t.completed;
        failed += t.failed;
        rej_queue += t.rejected_queue_full;
        rej_quota += t.rejected_quota;
        rej_shed += t.rejected_shedding;
        retries += t.retries;
        println!(
            "  tenant {}: completed={} failed={} cycles={} rejected(queue={} quota={})",
            t.name, t.completed, t.failed, t.cycles, t.rejected_queue_full, t.rejected_quota
        );
    }
    let (profiles, profiles_dropped) = server.take_profiles();
    server.shutdown();
    let cache = soff_runtime::cache::stats();

    println!(
        "jobs: completed={completed} failed={failed} in {:.2}s  turnaround p50<={:.1}ms p99<={:.1}ms",
        wall.as_secs_f64(),
        p50_us as f64 / 1e3,
        p99_us as f64 / 1e3,
    );
    println!(
        "scheduling: slices={} preemptions={} fairness(max/min completed)={fairness:.2} \
         backpressure_waits={backpressure}",
        stats.slices, stats.preemptions,
    );
    println!(
        "rejections: queue_full={rej_queue} quota={rej_quota} shedding={rej_shed} retries={retries}"
    );
    println!(
        "disk cache: hits={} misses={} writes={} corrupt={}",
        cache.disk_hits, cache.disk_misses, cache.disk_writes, cache.disk_corrupt
    );
    println!("serve digest {digest:016x}");

    let row = Json::obj(vec![
        ("slots", Json::Int(if o.overload { 1 } else { o.slots as i64 })),
        ("tenants", Json::Int(o.tenants as i64)),
        ("jobs_per_tenant", Json::Int(o.jobs as i64)),
        ("seed", Json::Int(o.seed as i64)),
        ("slice_cycles", Json::Int(o.slice as i64)),
        ("overload", Json::Bool(o.overload)),
        ("completed", Json::Int(completed as i64)),
        ("failed", Json::Int(failed as i64)),
        ("rejected_queue_full", Json::Int(rej_queue as i64)),
        ("rejected_quota", Json::Int(rej_quota as i64)),
        ("backpressure_waits", Json::Int(backpressure as i64)),
        ("slices", Json::Int(stats.slices as i64)),
        ("preemptions", Json::Int(stats.preemptions as i64)),
        ("fairness", Json::Num(fairness)),
        ("wall_seconds", Json::Num(wall.as_secs_f64())),
        ("p50_ms", Json::Num(p50_us as f64 / 1e3)),
        ("p99_ms", Json::Num(p99_us as f64 / 1e3)),
        ("turnaround_count", Json::Int(tsnap.count as i64)),
        ("turnaround_sum_us", Json::Int(tsnap.sum.min(i64::MAX as u64) as i64)),
        // Nonzero log-scale buckets as [upper_bound_us, count] pairs.
        ("turnaround_buckets", Json::Arr(
            tsnap
                .nonzero_buckets()
                .iter()
                .map(|&(le, c)| {
                    Json::Arr(vec![
                        Json::Int(le.min(i64::MAX as u64) as i64),
                        Json::Int(c as i64),
                    ])
                })
                .collect(),
        )),
        ("disk_hits", Json::Int(cache.disk_hits as i64)),
        ("disk_misses", Json::Int(cache.disk_misses as i64)),
        ("disk_writes", Json::Int(cache.disk_writes as i64)),
        ("disk_corrupt", Json::Int(cache.disk_corrupt as i64)),
        ("digest", Json::str(format!("{digest:016x}"))),
    ]);
    if o.json {
        match write_bench_rows("serve_soak", vec![row]) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write BENCH_serve_soak.json: {e}"),
        }
    }

    if let Some(path) = &o.metrics {
        // Serve histograms/counters, runtime cache counters, and the
        // turnaround histogram above all live on the global registry, so
        // one exposition covers the whole run.
        match std::fs::write(path, soff_obs::global().expose()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("could not write metrics to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &o.trace {
        let buf = trace_buf.as_ref().expect("trace buffer exists with --trace");
        if buf.dropped() > 0 {
            eprintln!("trace ring wrapped: {} oldest events dropped", buf.dropped());
        }
        if profiles_dropped > 0 {
            eprintln!("profile reports dropped to max_reports bound: {profiles_dropped}");
        }
        // Self-check: with every job settled and the server shut down,
        // any span imbalance left in the ring is an instrumentation bug
        // (a begin without its end, or vice versa). Ring-wrap orphans
        // are truncation and do not count — `pair_spans_with_drops`
        // already classifies those separately.
        let paired = pair_spans_with_drops(&buf.snapshot(), buf.dropped());
        if !paired.balanced() {
            eprintln!(
                "FAIL: span imbalance — {} unmatched begins, {} unmatched ends",
                paired.unmatched_begins.len(),
                paired.unmatched_ends.len()
            );
            std::process::exit(1);
        }
        match write_merged_trace(path, buf, &profiles) {
            Ok(n) => println!("wrote {} ({n} serve events, {} sim profiles)", path.display(), profiles.len()),
            Err(e) => {
                eprintln!("could not write trace to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if o.overload {
        // Self-check: overload must actually overload, and nobody may
        // starve. Everything here is a typed, accounted outcome — a
        // violation is a scheduling bug, not a flaky environment.
        let mut bad = false;
        if completed != (o.tenants * o.jobs) as u64 {
            eprintln!("FAIL: {completed} jobs completed, expected {}", o.tenants * o.jobs);
            bad = true;
        }
        if failed != 0 {
            eprintln!("FAIL: {failed} jobs failed under overload");
            bad = true;
        }
        if !(fairness.is_finite() && fairness <= 1.5) {
            eprintln!("FAIL: starvation — completion fairness {fairness:.2} (want <= 1.50)");
            bad = true;
        }
        if stats.preemptions == 0 {
            eprintln!("FAIL: overload never preempted anyone");
            bad = true;
        }
        if rej_queue + rej_quota == 0 {
            eprintln!("FAIL: overload never hit a queue bound or quota");
            bad = true;
        }
        if bad {
            std::process::exit(1);
        }
        println!("overload self-check passed");
    }
}
