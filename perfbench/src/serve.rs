//! `serve-mixed`: two tenants share one `soff-serve` device slot with
//! small preemption slices, each driven by one client thread in a closed
//! loop (the app's host code waits for every launch).
//!
//! - `long` runs Full-scale atax and mvt over and over for the whole run,
//!   in the background: their 1 MB matrices exceed the 64 KB caches, so
//!   its launches are DRAM-bound and cut into hundreds of slices, each
//!   with a full-memory snapshot.
//! - `short` runs many-launch iterative apps in rounds, one round being
//!   one run of each of its apps. A round's time, and each launch's
//!   enqueue→result time, are what a user of the service sees. Every round
//!   runs the same jobs, so each app and each job is timed by its lower
//!   quartile over the rounds (see `stats::Repeats`).
//!
//! The traced run replays every app alone through the public `Machine`
//! API at the same slice length, to split slice time into construct,
//! restore, run and snapshot, and checks the replay matches serve's
//! cycles and slice counts exactly.

use crate::check::Digest;
use crate::cpus::Cpus;
use crate::report::{PeakRss, Report, APP_RUN_PREFIX};
use crate::runner::{JobFacts, LayerTimes, LocalRunner, ServeRunner};
use crate::stats::{lowest_median, median, Repeats};
use crate::suite::simulated_stats;
use crate::{run_app, shuffled, Args, Golden, SplitMix};
use soff_obs::Registry;
use soff_runtime::{Device, Program};
use soff_serve::{Server, ServerConfig, Session};
use soff_workloads::data::Scale;
use soff_workloads::{all_apps, App};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const NAME: &str = "serve-mixed";

/// Set-ups in each of two bursts, one before serving starts and one after
/// it ends, while no tenant runs. A set-up takes a few milliseconds, and
/// set-ups that ran beside the long tenant would time how soon the host's
/// scheduler wakes the new server's worker thread instead. Within a burst
/// the process moves to the next CPU every `SETUPS_PER_CPU` set-ups; each
/// CPU's median set-up is taken, and the lowest reported.
const SETUPS_PER_BURST: usize = 20;
const SETUPS_PER_CPU: usize = 5;

/// The device slot's worker thread (`soff-serve-slot-0`), as its `comm`
/// reads: at most 15 bytes.
const SLOT_THREAD: &str = "soff-serve-slot";

/// The percentile of each app's and job's repeats that is kept (see
/// [`Repeats`]): the lower quartile. How long a job waits for the long
/// tenant's slices varies from round to round, and a lower percentile
/// would keep the luckiest waits.
const KEPT_PERCENTILE: f64 = 25.0;

/// Cycles per preemption slice.
const SLICE_CYCLES: u64 = 500;

/// The short tenant's apps and scales: one round.
const SHORT: [(&str, Scale); 3] = [
    ("125.lud", Scale::Small),
    ("126.ge", Scale::Small),
    ("117.bfs", Scale::Small),
];

/// The long tenant's apps and scales, repeated in the background.
const LONG: [(&str, Scale); 2] = [("atax", Scale::Full), ("mvt", Scale::Full)];

fn lookup(list: &[(&str, Scale)]) -> Vec<(App, Scale)> {
    let apps = all_apps();
    list.iter()
        .map(|(name, scale)| {
            let app = apps
                .iter()
                .find(|a| a.name == *name)
                .expect("serve-mixed app is registered");
            (*app, *scale)
        })
        .collect()
}

fn config(registry: Arc<Registry>) -> ServerConfig {
    ServerConfig {
        device_slots: 1,
        slice_cycles: SLICE_CYCLES,
        registry: Some(registry),
        ..ServerConfig::default()
    }
}

/// One app run through a serve session.
struct AppRun {
    name: &'static str,
    ok: Result<(), String>,
    digest: Digest,
    latencies: Vec<f64>,
    jobs: Vec<JobFacts>,
    times: LayerTimes,
    wall: f64,
    host: f64,
}

fn run_one(session: &Session, app: &App, scale: Scale, traced: bool) -> AppRun {
    let started = Instant::now();
    let mut runner = match ServeRunner::new(session, app.source, traced) {
        Ok(r) => r,
        Err(o) => {
            return AppRun {
                name: app.name,
                ok: Err(format!("build failed ({})", o.code())),
                digest: Digest::default(),
                latencies: Vec::new(),
                jobs: Vec::new(),
                times: LayerTimes::default(),
                wall: 0.0,
                host: 0.0,
            }
        }
    };
    let ok = run_app(app, &mut runner, scale);
    let wall = started.elapsed().as_secs_f64();
    let times = runner.times.unwrap_or_default();
    let host = wall - times.launch.as_secs_f64() - times.buffer_io.as_secs_f64();
    AppRun {
        name: app.name,
        ok,
        digest: runner.digest,
        latencies: runner.latencies,
        jobs: runner.jobs,
        times,
        wall,
        host,
    }
}

/// One round of the short tenant.
struct Round {
    traced: bool,
    seconds: f64,
    runs: Vec<AppRun>,
    queue_wait_mean_us: f64,
    slice_mean_us: f64,
}

/// Exact `(sum, count)` of a histogram over both tenants.
fn hist_totals(reg: &Registry, name: &str) -> (u64, u64) {
    ["short", "long"]
        .iter()
        .fold((0, 0), |(sum, count), tenant| {
            let h = reg.histogram(name, &[("tenant", tenant)]);
            (sum + h.sum(), count + h.count())
        })
}

/// Mean of a histogram's samples recorded between two totals.
fn mean_between(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// What one run against one server produced.
struct Served {
    rounds: Vec<Round>,
    long: Vec<AppRun>,
    slices: u64,
    preemptions: u64,
}

/// Runs a warm-up round and then short rounds until `deadline`, and until
/// an untraced round (and, when `trace` is set, a traced one; they
/// alternate) has been measured, while the long tenant repeats its apps
/// in the background. The long tenant then finishes the app it is in,
/// and runs each of its apps at least once. `on_round` sees each round's
/// start and end.
fn serve(
    short: &[(App, Scale)],
    long: &[(App, Scale)],
    rng: &mut SplitMix,
    trace: bool,
    deadline: Instant,
    on_round: &mut dyn FnMut(bool, bool),
) -> Result<Served, String> {
    let registry = Arc::new(Registry::new());
    let server = Server::new(config(Arc::clone(&registry))).map_err(|e| e.to_string())?;
    let connect = |name| server.connect(name).map_err(|e| e.to_string());
    let (s_short, s_long) = (connect("short")?, connect("long")?);
    let mut long_rng = SplitMix(rng.next());
    let stop = AtomicBool::new(false);
    let (rounds, long) = std::thread::scope(|s| {
        let background = s.spawn(|| {
            let mut runs: Vec<AppRun> = Vec::new();
            let mut order = Vec::new();
            let every_app_ran = |runs: &[AppRun]| {
                long.iter()
                    .all(|(app, _)| runs.iter().any(|r| r.name == app.name))
            };
            let done = |runs: &[AppRun]| stop.load(Ordering::Acquire) && every_app_ran(runs);
            while !long.is_empty() && !done(&runs) {
                if order.is_empty() {
                    order = shuffled(long, &mut long_rng);
                }
                let (app, scale) = order.pop().expect("refilled above");
                runs.push(run_one(&s_long, &app, scale, false));
            }
            runs
        });
        let mut rounds: Vec<Round> = Vec::new();
        let measured = |rounds: &[Round], traced| {
            rounds[1.min(rounds.len())..]
                .iter()
                .any(|r| r.traced == traced)
        };
        while Instant::now() < deadline
            || !measured(&rounds, false)
            || (trace && !measured(&rounds, true))
        {
            let traced = trace && rounds.len() % 2 == 1;
            let order = shuffled(short, rng);
            let waits = hist_totals(&registry, "soff_serve_queue_wait_us");
            let slices = hist_totals(&registry, "soff_serve_slice_us");
            on_round(traced, true);
            let started = Instant::now();
            let runs = order
                .iter()
                .map(|(app, scale)| run_one(&s_short, app, *scale, traced))
                .collect();
            let seconds = started.elapsed().as_secs_f64();
            on_round(traced, false);
            rounds.push(Round {
                traced,
                seconds,
                runs,
                queue_wait_mean_us: mean_between(
                    waits,
                    hist_totals(&registry, "soff_serve_queue_wait_us"),
                ),
                slice_mean_us: mean_between(slices, hist_totals(&registry, "soff_serve_slice_us")),
            });
        }
        stop.store(true, Ordering::Release);
        (rounds, background.join())
    });
    let stats = server.stats();
    server.shutdown();
    let long = long.map_err(|_| "the long tenant's client thread panicked".to_string())?;
    Ok(Served {
        rounds,
        long,
        slices: stats.slices,
        preemptions: stats.preemptions,
    })
}

/// Slices and preemptions of `runs`' jobs: every slice but a job's last
/// ends in a preemption.
fn slice_counts<'a>(runs: impl Iterator<Item = &'a AppRun>) -> (u64, u64) {
    runs.flat_map(|r| &r.jobs).fold((0, 0), |(s, p), j| {
        let n = u64::from(j.slices);
        (s + n, p + n.saturating_sub(1))
    })
}

/// One set-up: start a server, connect both tenants and build every
/// program cold through a session.
fn set_up(short: &[(App, Scale)], long: &[(App, Scale)]) -> (f64, Result<(), String>) {
    soff_runtime::cache::clear();
    let started = Instant::now();
    let built = Server::new(config(Arc::new(Registry::new())))
        .map_err(|e| e.to_string())
        .and_then(|server| {
            let s_short = server.connect("short").map_err(|e| e.to_string())?;
            let s_long = server.connect("long").map_err(|e| e.to_string())?;
            for (session, apps) in [(&s_short, short), (&s_long, long)] {
                for (app, _) in apps {
                    session
                        .build_program(app.source, &[])
                        .map_err(|e| e.to_string())?;
                }
            }
            server.shutdown();
            Ok(())
        });
    (started.elapsed().as_secs_f64(), built)
}

pub fn run(args: &Args, golden: &Golden, report: &mut Report) {
    let (short_apps, long_apps) = (lookup(&SHORT), lookup(&LONG));
    let mut rng = args.rng();

    let mut setups = Vec::new();
    let mut setup_cpus = Cpus::allowed();
    let mut set_up_burst = |report: &mut Report| {
        let mut cpu = None;
        for i in 0..SETUPS_PER_BURST {
            if i % SETUPS_PER_CPU == 0 {
                cpu = setup_cpus.step_process();
            }
            let (seconds, built) = set_up(&short_apps, &long_apps);
            setups.push((cpu, seconds));
            if let Err(e) = built {
                report.op(false, || format!("set-up failed: {e}"));
            }
        }
        // The tenants' threads inherit the process's CPUs.
        setup_cpus.release_process();
    };
    set_up_burst(report);
    let mut rss = PeakRss::default();
    // Each round moves the slot's worker thread, which runs every slice,
    // to the next CPU; the client threads stay free to run on any CPU,
    // so a client woken by its result need not wait for the worker.
    let mut cpus = Cpus::allowed();
    let served = serve(
        &short_apps,
        &long_apps,
        &mut rng,
        args.trace,
        args.deadline(),
        &mut |traced, starting| match (traced, starting) {
            (true, true) => cpus.step_thread(SLOT_THREAD),
            (true, false) => {}
            (false, true) => {
                cpus.step_thread(SLOT_THREAD);
                rss.start();
            }
            (false, false) => rss.stop(),
        },
    );
    set_up_burst(report);
    report.set("setup_s", lowest_median(&setups));
    let served = match served {
        Ok(s) => s,
        Err(e) => {
            report.op(false, || format!("serving failed: {e}"));
            return;
        }
    };
    let all_runs = || {
        served
            .rounds
            .iter()
            .flat_map(|r| &r.runs)
            .chain(&served.long)
    };
    for run in all_runs() {
        report.check(
            run.name,
            golden.verdict(NAME, run.name, run.ok.clone(), &run.digest),
        );
    }
    let (slices, preemptions) = slice_counts(all_runs());
    report.conserve(
        "serve slices / sum of job slices",
        served.slices as f64 / slices as f64,
        1.0,
        1.0,
    );
    report.conserve(
        "serve preemptions / sum of job preemptions",
        served.preemptions as f64 / preemptions as f64,
        1.0,
        1.0,
    );

    // The first round warms up and is not measured.
    let measured = || served.rounds.iter().skip(1);
    let mut repeats = Repeats::new(KEPT_PERCENTILE);
    for round in measured().filter(|r| !r.traced) {
        for run in &round.runs {
            repeats.push(run.name, run.wall, &run.latencies);
        }
    }
    let untraced: Vec<f64> = measured()
        .filter(|r| !r.traced)
        .map(|r| r.seconds)
        .collect();
    report.set("peak_rss_mb", rss.lowest());
    report.timings(
        NAME,
        &repeats,
        &format!(
            "{} short-tenant rounds after a warm-up round, beside {} runs of the long tenant's \
             apps; a unit is one app run, an operation one job from enqueue to result",
            untraced.len(),
            served.long.len()
        ),
    );

    let traced: Vec<&Round> = measured().filter(|r| r.traced).collect();
    if let Some(last) = traced.last() {
        report_traced(report, &traced, &served.long);
        let seconds: Vec<f64> = traced.iter().map(|r| r.seconds).collect();
        report.set(
            "obs.trace_overhead",
            median(&seconds) / median(&untraced) - 1.0,
        );
        let mut served_runs: Vec<&AppRun> = last.runs.iter().collect();
        for (app, _) in &long_apps {
            served_runs.extend(served.long.iter().find(|r| r.name == app.name));
        }
        replay(report, &short_apps, &long_apps, &served_runs);
    }
}

fn report_traced(report: &mut Report, rounds: &[&Round], long: &[AppRun]) {
    let m = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let sum = |r: &Round, f: &dyn Fn(&AppRun) -> f64| r.runs.iter().map(f).sum::<f64>();
    let jobs = |r: &Round| r.runs.iter().map(|a| a.jobs.len()).sum::<usize>() as f64;
    report.set(
        "serve.enqueue_us",
        m(&|r| sum(r, &|a| a.times.enqueue.as_secs_f64()) / jobs(r) * 1e6),
    );
    report.set(
        "serve.build_program_s",
        m(&|r| sum(r, &|a| a.times.build_program.as_secs_f64())),
    );
    report.set(
        "runtime.buffer_io_s",
        m(&|r| sum(r, &|a| a.times.buffer_io.as_secs_f64())),
    );
    report.set("workloads.host_s", m(&|r| sum(r, &|a| a.host)));
    report.set("serve.queue_wait_mean_us", m(&|r| r.queue_wait_mean_us));
    report.set("serve.slice_mean_us", m(&|r| r.slice_mean_us));
    // Slice counts of one round plus one run of each long app: a function
    // of the simulated cycles alone, so they repeat exactly.
    let last = rounds.last().expect("at least one traced round");
    let mut once: Vec<&AppRun> = last.runs.iter().collect();
    for run in long {
        if !once.iter().any(|r| r.name == run.name) {
            once.push(run);
        }
    }
    let (slices, preemptions) = slice_counts(once.iter().copied());
    let jobs_once = once.iter().map(|r| r.jobs.len()).sum::<usize>();
    report.set("serve.slices", slices as f64);
    report.set("serve.preemptions", preemptions as f64);
    report.set("serve.slices_per_job", slices as f64 / jobs_once as f64);
    report.note(format!(
        "{NAME}: serve layer times are medians over {} traced rounds; slice counts are one \
         round's plus one run of each long app",
        rounds.len()
    ));
}

/// Replays every app alone through the public `Machine` API in the same
/// slices, timing each slice phase; the replay must match `served`'s
/// cycles, retirements and slice counts job by job.
fn replay(report: &mut Report, short: &[(App, Scale)], long: &[(App, Scale)], served: &[&AppRun]) {
    // The set-ups keep clearing the compile cache: warm it, so the hit
    // ratio below is the replay's own.
    for (app, _) in short.iter().chain(long) {
        let _ = Program::build(app.source, &[], &Device::system_a());
    }
    soff_runtime::cache::reset_stats();
    let mut times = LayerTimes::default();
    let mut results = Vec::new();
    let (mut slices, mut serve_slices) = (0u64, 0u64);
    for (app, scale) in short.iter().chain(long) {
        let mut runner = match LocalRunner::sliced(app.source, SLICE_CYCLES) {
            Ok(r) => r,
            Err(o) => {
                report.op(false, || {
                    format!("{}: replay build failed ({})", app.name, o.code())
                });
                continue;
            }
        };
        let ok = run_app(app, &mut runner, *scale);
        let t = &runner.times;
        report.set(
            &format!("{APP_RUN_PREFIX}{}", app.name),
            t.slice_run.as_secs_f64(),
        );
        for (acc, d) in [
            (&mut times.prepare, t.prepare),
            (&mut times.slice_construct, t.slice_construct),
            (&mut times.slice_restore, t.slice_restore),
            (&mut times.slice_run, t.slice_run),
            (&mut times.slice_snapshot, t.slice_snapshot),
        ] {
            *acc += d;
        }
        slices += runner.jobs.iter().map(|j| u64::from(j.slices)).sum::<u64>();
        let serve_run = served.iter().find(|r| r.name == app.name);
        serve_slices += serve_run.map_or(0, |r| slice_counts(std::iter::once(*r)).0);
        let same = ok.is_ok() && serve_run.is_some_and(|r| r.jobs == runner.jobs);
        report.op(same, || {
            format!("{}: solo replay differs from serve ({ok:?})", app.name)
        });
        results.extend(runner.results);
    }
    let secs = |d: std::time::Duration| d.as_secs_f64();
    report.set("runtime.prepare_s", secs(times.prepare));
    report.set("sim.slice_construct_s", secs(times.slice_construct));
    report.set("sim.slice_restore_s", secs(times.slice_restore));
    report.set("sim.slice_run_s", secs(times.slice_run));
    report.set("sim.slice_snapshot_s", secs(times.slice_snapshot));
    report.set("sim.elaborate_s", secs(times.slice_construct));
    report.set("sim.run_s", secs(times.slice_run));
    let cycles = simulated_stats(report, results.iter());
    report.set("sim.ns_per_cycle", secs(times.slice_run) / cycles * 1e9);
    report.set("sim.cycles_per_s", cycles / secs(times.slice_run));
    report.set(
        "runtime.cache_hit_ratio",
        soff_runtime::cache::stats().hit_rate(),
    );
    report.note(format!(
        "{NAME}: slice phases from one solo replay of {} jobs",
        results.len()
    ));
    report.conserve(
        "replayed slices / serve slices",
        slices as f64 / serve_slices as f64,
        1.0,
        1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_replay_slices_exactly_like_serve() {
        let short = lookup(&[("gramschm", Scale::Small)]);
        let served = serve(
            &short,
            &[],
            &mut SplitMix(1),
            true,
            Instant::now(),
            &mut |_, _| {},
        )
        .expect("serving runs");
        let round = &served.rounds[1];
        assert!(round.traced);
        assert_eq!(round.runs[0].ok, Ok(()));
        let (app, scale) = short[0];
        let mut solo = LocalRunner::sliced(app.source, SLICE_CYCLES).expect("builds");
        run_app(&app, &mut solo, scale).expect("checked run");
        assert_eq!(round.runs[0].jobs, solo.jobs);
        let slices: u64 = solo.jobs.iter().map(|j| u64::from(j.slices)).sum();
        // A warm-up round, then a traced and an untraced one.
        assert_eq!(served.rounds.len(), 3);
        assert_eq!(served.slices, 3 * slices);
        assert_eq!(
            slice_counts(served.rounds.iter().flat_map(|r| &r.runs)),
            (served.slices, served.preemptions)
        );
        assert!(
            slices > solo.jobs.len() as u64,
            "jobs must be cut into several slices"
        );
    }
}
