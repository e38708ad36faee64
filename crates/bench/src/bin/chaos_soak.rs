//! Deterministic cross-layer chaos soak for the serve stack.
//!
//! Two phases over the *same* seeded job mix:
//!
//! 1. **Reference** — a chaos-free run records every job's cycle count
//!    and read-back bytes.
//! 2. **Chaos** — a fresh server (supervision on: quarantine, breakers,
//!    checkpoint slot recovery) runs the identical mix while a seeded
//!    [`ChaosSchedule`] injects simulator faults, host panics, a poison
//!    job, device-slot deaths, disk-store I/O faults (EIO / ENOSPC /
//!    torn / bit-flip), and torn journal appends — all through the
//!    deterministic shims, no wall-clock anywhere.
//!
//! The soak then asserts the crash-only contract and exits non-zero on
//! any violation:
//!
//! - **Conservation** — every admitted job settles exactly once
//!   (client outcomes == jobs; server accounting agrees; a second wait
//!   is `UnknownJob`). Nothing lost, nothing double-completed.
//! - **Bit-identity** — every *surviving* job's cycles and bytes equal
//!   the reference run exactly; every *failed* job's buffer equals its
//!   original input (containment rollback).
//! - **Bounded recovery** — slot re-admissions and quarantines are
//!   bounded by what the schedule injected.
//! - **Self-healing** — after the chaos window [`Server::health`]
//!   reports `Ok` again, and the journal replays clean (unique keys,
//!   one record per settled job).
//! - **Determinism** — the schedule digest is a pure function of the
//!   seed (printed, so two runs of the same seed can be diffed).
//!
//! Usage:
//!   chaos_soak [--slots N] [--tenants N] [--jobs N] [--seed S]
//!              [--slice CYCLES] [--events N] [--cache-dir DIR] [--json]
//!
//! `--json` writes the run's row (flags, schedule digest, outcome and
//! recovery counts) to `BENCH_chaos.json`; without it the run writes no
//! file.

use soff_bench::json::{write_bench_rows, Json};
use soff_obs::Registry;
use soff_serve::{
    chaos::{stall_all_channels, ChaosConfig, ChaosEvent, ChaosSchedule},
    BreakerConfig, HealthState, JobId, NdRange, RetryPolicy, ServeError, Server, ServerConfig,
    Session, Supervision,
};
use soff_workloads::journal::{self, Journal, JournalFaults, Record};
use soff_workloads::AppResult;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Three kernel variants (as in `serve_soak`) so the chaos run exercises
/// more than one disk-store object; variant 7 is reserved for the heal
/// build.
fn source(variant: u64) -> String {
    format!(
        r#"
__kernel void chaos{variant}(__global float* a, int iters, float bias) {{
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

/// splitmix64 (project-standard seedable stream) for the job mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn unit(&mut self) -> f32 {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
    }
}

#[derive(Clone, Copy)]
struct JobSpec {
    n: usize,
    iters: i32,
    bias: f32,
    input_seed: u64,
}

/// The job mix for one tenant, a pure function of (seed, tenant index) —
/// identical across the reference and chaos phases.
fn tenant_jobs(seed: u64, tenant: usize, jobs: usize) -> Vec<JobSpec> {
    let mut rng = Rng(seed ^ (tenant as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
    (0..jobs)
        .map(|_| JobSpec {
            n: (16 + 4 * rng.below(12)) as usize,
            // Long enough that every job spans several slices (so slot
            // deaths usually hit a checkpointed job).
            iters: (150 + rng.below(200)) as i32,
            bias: rng.unit() * 0.25,
            input_seed: rng.next(),
        })
        .collect()
}

fn input_bytes(spec: &JobSpec) -> Vec<u8> {
    let mut rng = Rng(spec.input_seed);
    (0..spec.n).flat_map(|_| rng.unit().to_le_bytes()).collect()
}

/// What a job injection does to its first attempt(s).
#[derive(Clone, Copy, PartialEq)]
enum Injection {
    None,
    SimFault,
    Panic,
    Sticky(u32),
}

/// One settled job as a client saw it.
struct JobResult {
    outcome: Result<(u64, u32), String>,
    bytes: Vec<u8>,
    input: Vec<u8>,
}

/// Probes the channel count of the machine a (variant, spec) launch
/// instantiates, so `stall_all_channels` wedges every channel exactly.
fn probe_nchans(variant: u64, spec: &JobSpec) -> usize {
    let device = soff_serve::Device::system_a();
    let src = source(variant);
    let program = soff_runtime::Program::build(&src, &[], &device).expect("probe build");
    let mut ctx = soff_runtime::Context::new(device);
    let buf = ctx.create_buffer(spec.n * 4);
    let mut k = program.kernel(&format!("chaos{variant}")).expect("probe kernel");
    k.set_arg_buffer(0, buf).set_arg_i32(1, spec.iters).set_arg_f32(2, spec.bias);
    let nd = NdRange::dim1(spec.n as u64, 4);
    let args = ctx.prepare_launch(&k, nd).expect("probe launch");
    let ck = k.compiled();
    let cfg = ctx.launch_config(ck);
    soff_sim::Machine::new(&ck.kernel, &ck.datapath, &cfg, nd, &args)
        .expect("probe machine")
        .num_channels()
}

/// Crash-only journal handle: a torn append triggers `Journal::recover`
/// (truncate the torn tail, reopen) and a bounded re-append.
struct ChaosJournal {
    path: PathBuf,
    identity: u64,
    inner: Mutex<(Journal, u64)>,
}

impl ChaosJournal {
    fn create(path: PathBuf, identity: u64) -> ChaosJournal {
        let j = Journal::create(&path, identity).expect("create chaos journal");
        ChaosJournal { path, identity, inner: Mutex::new((j, 0)) }
    }

    fn append(&self, record: &Record) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..4 {
            match g.0.append(record) {
                Ok(()) => return,
                Err(_) => {
                    // Crash-only: recover (truncates the torn tail) and
                    // try again; the shim injects at op indices, so the
                    // retry is a different op and eventually lands.
                    g.1 += 1;
                    let (_, fresh) = Journal::recover(&self.path, self.identity)
                        .expect("journal recovery after torn append");
                    g.0 = fresh;
                }
            }
        }
        panic!("journal append failed 4 times in a row");
    }

    fn recoveries(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).1
    }
}

/// Runs one tenant's whole job list; `injections[j]` poisons job j's
/// early attempts. Backpressure (queue/quota/breaker rejections) drains
/// the oldest pending job and retries.
#[allow(clippy::too_many_arguments)]
fn run_tenant(
    sess: &Session,
    tenant: usize,
    specs: &[JobSpec],
    variant: u64,
    injections: &[Injection],
    journal: Option<&ChaosJournal>,
) -> Vec<JobResult> {
    let src = source(variant);
    let program = sess.build_program(&src, &[]).expect("soak build");
    let name = format!("chaos{variant}");

    let inputs: Vec<Vec<u8>> = specs.iter().map(input_bytes).collect();
    let buffers: Vec<soff_serve::Buffer> = specs
        .iter()
        .zip(&inputs)
        .map(|(spec, input)| {
            let buf = sess.create_buffer(spec.n * 4).expect("create buffer");
            sess.write_buffer(buf, input).expect("write buffer");
            buf
        })
        .collect();

    let mut outcomes: Vec<Option<Result<(u64, u32), String>>> = vec![None; specs.len()];
    let mut pending: VecDeque<(usize, JobId)> = VecDeque::new();
    let settle = |pending: &mut VecDeque<(usize, JobId)>,
                      outcomes: &mut Vec<Option<Result<(u64, u32), String>>>| {
        let (j, id) = pending.pop_front().expect("settle with empty pending");
        let outcome = match sess.wait(id) {
            Ok(out) => Ok((out.cycles, out.attempts)),
            Err(e) => Err(e.class().to_string()),
        };
        // No job settles twice: a second wait on a settled id is typed.
        assert!(
            matches!(sess.wait(id), Err(ServeError::UnknownJob)),
            "job t{tenant}/j{j} was waitable twice"
        );
        if let Some(journal) = journal {
            journal.append(&job_record(tenant, j, &outcome));
        }
        assert!(outcomes[j].replace(outcome).is_none(), "job t{tenant}/j{j} settled twice");
    };

    for (j, (spec, &buf)) in specs.iter().zip(&buffers).enumerate() {
        let mut k = sess.kernel(&program, &name).expect("kernel");
        k.set_arg_buffer(0, buf).set_arg_i32(1, spec.iters).set_arg_f32(2, spec.bias);
        match injections[j] {
            Injection::None => {}
            Injection::SimFault => {
                sess.inject_faults_next(stall_all_channels(probe_nchans(variant, spec)));
            }
            Injection::Panic => sess.inject_panic_next(),
            Injection::Sticky(n) => sess.inject_sticky_panics_next(n),
        }
        loop {
            match sess.enqueue(&k, NdRange::dim1(spec.n as u64, 4)) {
                Ok(id) => {
                    pending.push_back((j, id));
                    break;
                }
                Err(ServeError::QueueFull { .. } | ServeError::QuotaExceeded { .. }) => {
                    settle(&mut pending, &mut outcomes);
                }
                Err(ServeError::CircuitOpen) => {
                    // Shed: drain if anything is in flight (its settle
                    // feeds the breaker), else keep pressing — rejections
                    // are the breaker's clock and half-open is bounded by
                    // its shed budget.
                    if pending.is_empty() {
                        std::thread::yield_now();
                    } else {
                        settle(&mut pending, &mut outcomes);
                    }
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }
    while !pending.is_empty() {
        settle(&mut pending, &mut outcomes);
    }

    specs
        .iter()
        .enumerate()
        .map(|(j, _)| JobResult {
            outcome: outcomes[j].take().expect("every job settled"),
            bytes: sess.read_buffer(buffers[j]).expect("read back"),
            input: inputs[j].clone(),
        })
        .collect()
}

/// Renders one settled job as a journal record (`app` carries the
/// (tenant, job) key; cycles 0 and a non-Ok outcome mark failures).
fn job_record(tenant: usize, job: usize, outcome: &Result<(u64, u32), String>) -> Record {
    let (ok, cycles, attempts) = match outcome {
        Ok((cycles, attempts)) => (true, *cycles, *attempts),
        Err(_) => (false, 0, 0),
    };
    Record {
        app: format!("t{tenant}j{job}"),
        fw: "Soff".to_string(),
        scale: "Small".to_string(),
        result: AppResult {
            outcome: if ok {
                soff_baseline::Outcome::Ok
            } else {
                soff_baseline::Outcome::RuntimeError
            },
            seconds: 0.0,
            cycles,
            launches: 1,
            replication: 1,
        },
        panicked: false,
        attempts: attempts.max(1),
    }
}

struct Opts {
    slots: usize,
    tenants: usize,
    jobs: usize,
    seed: u64,
    slice: u64,
    events: u32,
    cache_dir: Option<PathBuf>,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos_soak [--slots N] [--tenants N] [--jobs N] [--seed S] \
         [--slice CYCLES] [--events N] [--cache-dir DIR] [--json]"
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        slots: 2,
        tenants: 3,
        jobs: 8,
        seed: 1,
        slice: 2_000,
        events: 14,
        cache_dir: None,
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
            "--events" => o.events = val("--events").parse().unwrap_or_else(|_| usage()),
            "--cache-dir" => o.cache_dir = Some(PathBuf::from(val("--cache-dir"))),
            "--json" => o.json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if o.slots == 0 || o.tenants == 0 || o.jobs < 4 {
        eprintln!("--slots/--tenants must be positive, --jobs at least 4");
        usage();
    }
    o
}

fn run_phase(
    server: &Server,
    o: &Opts,
    injections: &HashMap<(usize, usize), Injection>,
    journal: Option<&ChaosJournal>,
) -> Vec<Vec<JobResult>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..o.tenants)
            .map(|t| {
                let specs = tenant_jobs(o.seed, t, o.jobs);
                let inj: Vec<Injection> = (0..o.jobs)
                    .map(|j| injections.get(&(t, j)).copied().unwrap_or(Injection::None))
                    .collect();
                s.spawn(move || {
                    let sess = server.connect(&format!("t{t}")).expect("connect");
                    let run = run_tenant(&sess, t, &specs, (t % 3) as u64, &inj, journal);
                    sess.close();
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    })
}

fn cleanup(dir: &Path, journal_path: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_file(journal_path);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let o = parse(&args);

    let chaos_cfg = ChaosConfig {
        seed: o.seed,
        tenants: o.tenants as u32,
        jobs_per_tenant: o.jobs as u32,
        events: o.events,
    };
    let schedule = ChaosSchedule::generate(chaos_cfg);
    assert_eq!(
        schedule.digest(),
        ChaosSchedule::generate(chaos_cfg).digest(),
        "schedule must be a pure function of its config"
    );
    let digest = schedule.digest();

    // Render the schedule into per-layer plans.
    let mut injections: HashMap<(usize, usize), Injection> = HashMap::new();
    let mut slot_deaths: Vec<u64> = Vec::new();
    let mut io = soff_runtime::store::IoFaultPlan::default();
    let mut torn_appends: Vec<u64> = Vec::new();
    for e in schedule.events() {
        match *e {
            ChaosEvent::SimFault { tenant, job } => {
                injections.insert((tenant as usize, job as usize), Injection::SimFault);
            }
            ChaosEvent::JobPanic { tenant, job } => {
                injections.insert((tenant as usize, job as usize), Injection::Panic);
            }
            ChaosEvent::StickyPanic { tenant, job, attempts } => {
                injections
                    .insert((tenant as usize, job as usize), Injection::Sticky(attempts));
            }
            ChaosEvent::SlotDeath { slice } => slot_deaths.push(slice),
            ChaosEvent::DiskReadError { op } => io.read_errors.push(op),
            ChaosEvent::DiskWriteError { op } => io.write_errors.push(op),
            ChaosEvent::DiskTornWrite { op } => io.torn_writes.push(op),
            ChaosEvent::DiskBitFlip { op } => io.bit_flips.push(op),
            ChaosEvent::JournalTear { append } => torn_appends.push(append),
        }
    }
    let stickies =
        injections.values().filter(|i| matches!(i, Injection::Sticky(_))).count() as u64;
    println!(
        "chaos_soak: seed={} tenants={} jobs={} slots={} slice={} schedule={:016x}",
        o.seed, o.tenants, o.jobs, o.slots, o.slice, digest
    );
    println!(
        "schedule: {} events ({} job injections, {} slot deaths, {} disk faults, {} journal tears)",
        schedule.events().len(),
        injections.len(),
        slot_deaths.len(),
        io.read_errors.len() + io.write_errors.len() + io.torn_writes.len() + io.bit_flips.len(),
        torn_appends.len(),
    );

    // ------------------------------------------------- phase 1: reference
    soff_runtime::cache::clear();
    soff_runtime::cache::reset_stats();
    let reference_server = Server::new(ServerConfig {
        device_slots: o.slots,
        slice_cycles: o.slice,
        ..ServerConfig::default()
    })
    .expect("start reference server");
    let t0 = Instant::now();
    let reference = run_phase(&reference_server, &o, &HashMap::new(), None);
    reference_server.shutdown();
    let ref_wall = t0.elapsed();
    for (t, run) in reference.iter().enumerate() {
        for (j, r) in run.iter().enumerate() {
            assert!(r.outcome.is_ok(), "reference job t{t}/j{j} failed: {:?}", r.outcome);
        }
    }
    println!("reference: {} jobs in {:.2}s", o.tenants * o.jobs, ref_wall.as_secs_f64());

    // ----------------------------------------------------- phase 2: chaos
    let cache_dir = o.cache_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("soff-chaos-soak-{}-{}", std::process::id(), o.seed))
    });
    let _ = std::fs::remove_dir_all(&cache_dir);
    let journal_path = cache_dir.with_extension("journal");
    let _ = std::fs::remove_file(&journal_path);
    let journal = ChaosJournal::create(journal_path.clone(), o.seed);

    soff_runtime::cache::clear();
    soff_runtime::cache::reset_stats();
    soff_runtime::store::set_io_faults(Some(io.clone()));
    journal::set_journal_faults(Some(JournalFaults { torn_appends: torn_appends.clone() }));

    let registry = std::sync::Arc::new(Registry::new());
    let chaos_server = Server::new(ServerConfig {
        device_slots: o.slots,
        slice_cycles: o.slice,
        cache_dir: Some(cache_dir.clone()),
        retry: RetryPolicy { max_attempts: 3, ..Default::default() },
        supervision: Supervision {
            quarantine_after: 3,
            max_slot_recoveries: 5,
            breaker: BreakerConfig { failure_threshold: 2, open_budget: 2, probe_budget: 1 },
        },
        registry: Some(std::sync::Arc::clone(&registry)),
        ..ServerConfig::default()
    })
    .expect("start chaos server");
    chaos_server.inject_slot_deaths(&slot_deaths);

    let t1 = Instant::now();
    let chaos = run_phase(&chaos_server, &o, &injections, Some(&journal));
    let chaos_wall = t1.elapsed();

    // Chaos window over: snapshot the shim counters (clearing a plan
    // resets them), then clear every shim and heal the store with one
    // clean write (self-healing is part of the contract under test).
    let injected_io = soff_runtime::store::injected_io_faults();
    let injected_journal = journal::injected_journal_faults();
    soff_runtime::store::set_io_faults(None);
    journal::set_journal_faults(None);
    {
        let healer = chaos_server.connect("healer").expect("connect healer");
        healer.build_program(&source(7), &[]).expect("heal build");
        healer.close();
    }
    let health = chaos_server.health();
    let stats = chaos_server.stats();
    chaos_server.shutdown();

    // ------------------------------------------------------- invariants
    let mut violations: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            eprintln!("VIOLATION: {what}");
            violations.push(what);
        }
    };

    // Conservation: every job settled exactly once, client and server
    // agree. (run_tenant already asserted no job settles twice.)
    let (mut survived, mut failed_jobs) = (0u64, 0u64);
    let mut identical = 0u64;
    for (t, run) in chaos.iter().enumerate() {
        check(
            run.len() == o.jobs,
            format!("tenant {t}: {} outcomes for {} jobs", run.len(), o.jobs),
        );
        for (j, r) in run.iter().enumerate() {
            let reference = &reference[t][j];
            let (ref_cycles, _) = reference.outcome.as_ref().expect("reference all-ok");
            match &r.outcome {
                Ok((cycles, attempts)) => {
                    survived += 1;
                    check(
                        cycles == ref_cycles,
                        format!("t{t}/j{j}: {cycles} cycles, reference {ref_cycles}"),
                    );
                    check(
                        r.bytes == reference.bytes,
                        format!("t{t}/j{j}: surviving bytes differ from reference"),
                    );
                    check(
                        *attempts <= 3,
                        format!("t{t}/j{j}: {attempts} attempts exceeds the retry budget"),
                    );
                    if cycles == ref_cycles && r.bytes == reference.bytes {
                        identical += 1;
                    }
                }
                Err(class) => {
                    failed_jobs += 1;
                    check(
                        class == "quarantined",
                        format!("t{t}/j{j}: failed with `{class}`, only quarantine may kill"),
                    );
                    check(
                        r.bytes == r.input,
                        format!("t{t}/j{j}: failed job's memory not rolled back"),
                    );
                }
            }
        }
    }
    let total = (o.tenants * o.jobs) as u64;
    check(
        survived + failed_jobs == total,
        format!("{survived} + {failed_jobs} settled != {total} admitted"),
    );
    check(
        failed_jobs == stickies,
        format!("{failed_jobs} failed jobs but {stickies} poison jobs scheduled"),
    );
    let (srv_completed, srv_failed): (u64, u64) = stats
        .tenants
        .iter()
        .filter(|t| t.name != "healer")
        .fold((0, 0), |(c, f), t| (c + t.completed, f + t.failed));
    check(
        srv_completed == survived && srv_failed == failed_jobs,
        format!(
            "server accounting ({srv_completed} ok, {srv_failed} failed) disagrees with \
             clients ({survived} ok, {failed_jobs} failed)"
        ),
    );

    // Bounded recovery: what recovered is bounded by what was injected.
    let slot_recoveries =
        registry.counter("soff_serve_recoveries_total", &[("kind", "slot")]).get();
    let quarantines: u64 = stats.tenants.iter().map(|t| t.quarantined).sum();
    check(
        slot_recoveries <= slot_deaths.len() as u64,
        format!("{slot_recoveries} slot recoveries from {} scheduled deaths", slot_deaths.len()),
    );
    check(
        quarantines == stickies,
        format!("{quarantines} quarantines from {stickies} poison jobs"),
    );

    // Self-healing: health is Ok again and the journal replays clean.
    check(
        health.state == HealthState::Ok,
        format!("health did not return to Ok: {:?}", health.causes),
    );
    match journal::replay(&journal_path, o.seed) {
        Err(e) => check(false, format!("journal replay failed: {e}")),
        Ok(replayed) => {
            let mut keys: Vec<String> = replayed.iter().map(|r| r.app.clone()).collect();
            let n = keys.len();
            keys.sort();
            keys.dedup();
            check(
                keys.len() == n,
                format!("journal replayed {} records, {} unique", n, keys.len()),
            );
            check(
                n as u64 == total,
                format!("journal holds {n} records for {total} settled jobs"),
            );
        }
    }

    let cache = soff_runtime::cache::stats();
    println!(
        "chaos: {survived} survived ({identical} bit-identical), {failed_jobs} quarantined, \
         in {:.2}s",
        chaos_wall.as_secs_f64()
    );
    println!(
        "recoveries: retry={} slot={} breaker={} quarantines={quarantines} \
         journal_recoveries={}",
        registry.counter("soff_serve_recoveries_total", &[("kind", "retry")]).get(),
        slot_recoveries,
        registry.counter("soff_serve_recoveries_total", &[("kind", "breaker")]).get(),
        journal.recoveries(),
    );
    println!(
        "injected: store_io={injected_io} journal={injected_journal}  \
         disk: io_errors={} corrupt={} heals={}",
        cache.disk_io_errors, cache.disk_corrupt, cache.disk_heals
    );
    println!("schedule digest {digest:016x}");

    let row = Json::obj(vec![
        ("seed", Json::Int(o.seed as i64)),
        ("tenants", Json::Int(o.tenants as i64)),
        ("jobs_per_tenant", Json::Int(o.jobs as i64)),
        ("slots", Json::Int(o.slots as i64)),
        ("slice_cycles", Json::Int(o.slice as i64)),
        ("events", Json::Int(schedule.events().len() as i64)),
        ("schedule_digest", Json::str(format!("{digest:016x}"))),
        ("survived", Json::Int(survived as i64)),
        ("bit_identical", Json::Int(identical as i64)),
        ("quarantined", Json::Int(failed_jobs as i64)),
        ("slot_deaths_scheduled", Json::Int(slot_deaths.len() as i64)),
        ("slot_recoveries", Json::Int(slot_recoveries as i64)),
        (
            "retry_recoveries",
            Json::Int(
                registry.counter("soff_serve_recoveries_total", &[("kind", "retry")]).get()
                    as i64,
            ),
        ),
        ("journal_recoveries", Json::Int(journal.recoveries() as i64)),
        ("store_faults_injected", Json::Int(injected_io as i64)),
        ("journal_faults_injected", Json::Int(injected_journal as i64)),
        ("disk_io_errors", Json::Int(cache.disk_io_errors as i64)),
        ("disk_corrupt", Json::Int(cache.disk_corrupt as i64)),
        ("disk_heals", Json::Int(cache.disk_heals as i64)),
        ("health_ok", Json::Bool(health.state == HealthState::Ok)),
        ("reference_wall_seconds", Json::Num(ref_wall.as_secs_f64())),
        ("chaos_wall_seconds", Json::Num(chaos_wall.as_secs_f64())),
        ("violations", Json::Int(violations.len() as i64)),
    ]);
    if o.json {
        match write_bench_rows("chaos", vec![row]) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write BENCH_chaos.json: {e}"),
        }
    }

    if o.cache_dir.is_none() {
        cleanup(&cache_dir, &journal_path);
    }
    if !violations.is_empty() {
        eprintln!("chaos_soak: {} invariant violation(s)", violations.len());
        std::process::exit(1);
    }
    println!("chaos_soak: all invariants held");
}
