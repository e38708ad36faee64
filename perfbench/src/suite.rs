//! `sim-suite`: every registry app SOFF runs, at `Scale::Small`, from a
//! warm compile cache, each checked against its own host reference and
//! against the golden digest of its simulated statistics and outputs.
//!
//! Untraced passes run every app on `SimRunner`, the launch path users
//! take. The traced run times the runtime and simulator calls of every
//! launch through the benchmark's `LocalRunner`, checks that they add up
//! to the launch, and checks that `LocalRunner` simulates exactly what
//! `SimRunner` does.

use crate::cpus::Cpus;
use crate::report::{PeakRss, Report, APP_RUN_PREFIX};
use crate::runner::{LayerTimes, LocalRunner, TimedSimRunner};
use crate::stats::{lowest_median, median, Repeats};
use crate::{run_app, shuffled, Args, Golden};
use soff_baseline::{Framework, Outcome};
use soff_sim::SimResult;
use soff_workloads::data::Scale;
use soff_workloads::runner::SimRunner;
use soff_workloads::{all_apps, App};
use std::collections::BTreeMap;
use std::time::Instant;

const NAME: &str = "sim-suite";

/// The percentile of each app's and launch's repeats that is kept (see
/// [`Repeats`]). A launch simulates the same cycles every time, so a low
/// one: it holds when outside load slows most of a run.
const KEPT_PERCENTILE: f64 = 10.0;

/// The registry apps SOFF cannot build (Table II `IR`: a single datapath
/// instance exceeds the device); `compile-cold` checks that outcome.
pub const INSUFFICIENT_RESOURCES: [&str; 3] = ["122.cfd", "128.heartwall", "140.bplustree"];

/// The apps this workload runs, in registry order.
pub fn apps() -> Vec<App> {
    all_apps()
        .into_iter()
        .filter(|a| !INSUFFICIENT_RESOURCES.contains(&a.name))
        .collect()
}

/// Per-pass totals of a traced pass.
#[derive(Default)]
struct Traced {
    times: LayerTimes,
    host: f64,
    per_app_run: BTreeMap<&'static str, f64>,
    results: BTreeMap<&'static str, Vec<SimResult>>,
}

fn build_failed(o: Outcome) -> String {
    format!("build failed ({})", o.code())
}

/// Runs `app` on `SimRunner`, the user's launch path, and checks it;
/// returns its per-launch host times.
fn run_untraced(app: &App, golden: &Golden, report: &mut Report) -> Vec<f64> {
    match TimedSimRunner::new(app.source) {
        Ok(mut r) => {
            let ok = run_app(app, &mut r, Scale::Small);
            report.check(app.name, golden.verdict(NAME, app.name, ok, &r.digest));
            r.latencies
        }
        Err(o) => {
            report.check(app.name, Err(build_failed(o)));
            Vec::new()
        }
    }
}

/// Runs `app` on the benchmark's `LocalRunner`, checks it, and adds its
/// layer times and results to `pass`.
fn run_traced(app: &App, golden: &Golden, report: &mut Report, pass: &mut Traced) {
    let started = Instant::now();
    let mut r = match LocalRunner::like_sim_runner(app.source) {
        Ok(r) => r,
        Err(o) => return report.check(app.name, Err(build_failed(o))),
    };
    let ok = run_app(app, &mut r, Scale::Small);
    let wall = started.elapsed().as_secs_f64();
    report.check(app.name, golden.verdict(NAME, app.name, ok, &r.digest));
    let t = &r.times;
    pass.host += wall - t.launch.as_secs_f64() - t.buffer_io.as_secs_f64();
    pass.per_app_run.insert(app.name, t.run.as_secs_f64());
    add_times(&mut pass.times, t);
    pass.results.insert(app.name, r.results);
}

pub fn run(args: &Args, golden: &Golden, report: &mut Report) {
    let apps = apps();
    let mut rng = args.rng();

    // Set-up: build every program cold, which leaves the compile cache
    // warm for the measured passes. One set-up runs before the first pass
    // and one after each untraced pass; then the process moves to the
    // next CPU. Spread over the run, set-ups meet the host in the states
    // the passes do. Each CPU's median set-up is taken, and the lowest
    // reported.
    let set_up = || {
        soff_runtime::cache::clear();
        let started = Instant::now();
        for app in &apps {
            std::hint::black_box(soff_baseline::build(Framework::Soff, app.source, &[]).ok());
        }
        started.elapsed().as_secs_f64()
    };
    let mut cpus = Cpus::allowed();
    let mut cpu = cpus.step_process();
    let mut setups = vec![(cpu, set_up())];

    let deadline = args.deadline();
    let mut repeats = Repeats::new(KEPT_PERCENTILE);
    let mut rss = PeakRss::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_passes: Vec<Traced> = Vec::new();
    // Traced runs alternate untraced and traced passes (so both see the
    // same conditions) and end on a traced one.
    let mut i = 0usize;
    while untraced_walls.is_empty()
        || Instant::now() < deadline
        || (args.trace && traced_passes.is_empty())
    {
        let traced = args.trace && i % 2 == 1;
        i += 1;
        let order = shuffled(&apps, &mut rng);
        if traced {
            // The hit ratio is that of the last traced pass.
            soff_runtime::cache::reset_stats();
            let started = Instant::now();
            let mut pass = Traced::default();
            for app in &order {
                run_traced(app, golden, report, &mut pass);
            }
            traced_walls.push(started.elapsed().as_secs_f64());
            traced_passes.push(pass);
        } else {
            rss.start();
            let started = Instant::now();
            for app in &order {
                let app_started = Instant::now();
                let latencies = run_untraced(app, golden, report);
                repeats.push(app.name, app_started.elapsed().as_secs_f64(), &latencies);
            }
            let wall = started.elapsed().as_secs_f64();
            rss.stop();
            untraced_walls.push(wall);
            setups.push((cpu, set_up()));
            cpu = cpus.step_process();
        }
    }
    report.set("setup_s", lowest_median(&setups));

    let what = format!(
        "{} passes of {} apps; a unit is one checked app run, an operation one launch",
        untraced_walls.len(),
        apps.len()
    );
    report.set("peak_rss_mb", rss.lowest());
    report.timings(NAME, &repeats, &what);
    if args.trace {
        report_traced(report, &apps, &traced_passes);
        report.set(
            "obs.trace_overhead",
            median(&traced_walls) / median(&untraced_walls) - 1.0,
        );
        let last = traced_passes.last().expect("at least one traced pass");
        check_against_sim_runner(report, &apps, &last.results);
    }
}

fn add_times(acc: &mut LayerTimes, t: &LayerTimes) {
    acc.prepare += t.prepare;
    acc.elaborate += t.elaborate;
    acc.run += t.run;
    acc.launch += t.launch;
    acc.buffer_io += t.buffer_io;
}

fn report_traced(report: &mut Report, apps: &[App], passes: &[Traced]) {
    let m = |f: &dyn Fn(&Traced) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let prepare = m(&|p| p.times.prepare.as_secs_f64());
    let elaborate = m(&|p| p.times.elaborate.as_secs_f64());
    let run = m(&|p| p.times.run.as_secs_f64());
    report.set("runtime.prepare_s", prepare);
    report.set(
        "runtime.buffer_io_s",
        m(&|p| p.times.buffer_io.as_secs_f64()),
    );
    report.set("sim.elaborate_s", elaborate);
    report.set("sim.run_s", run);
    report.set("workloads.host_s", m(&|p| p.host));
    for app in apps {
        let name = format!("{APP_RUN_PREFIX}{}", app.name);
        report.set(
            &name,
            m(&|p| p.per_app_run.get(app.name).copied().unwrap_or(0.0)),
        );
    }
    report.set(
        "runtime.cache_hit_ratio",
        soff_runtime::cache::stats().hit_rate(),
    );
    let last = passes.last().expect("at least one traced pass");
    let cycles = simulated_stats(report, last.results.values().flatten());
    report.set("sim.ns_per_cycle", run / cycles * 1e9);
    report.set("sim.cycles_per_s", cycles / run);
    report.note(format!(
        "{NAME}: layer times are medians over {} traced passes",
        passes.len()
    ));
    let parts = m(&|p| {
        let t = &p.times;
        (t.prepare + t.elaborate + t.run).as_secs_f64() / t.launch.as_secs_f64()
    });
    report.conserve(
        "prepare_launch + Machine::new + run_with / launch",
        parts,
        0.9,
        1.0,
    );
}

/// Sets the simulated-statistic metrics from `results`; returns the
/// total simulated cycles.
pub fn simulated_stats<'a>(
    report: &mut Report,
    results: impl Iterator<Item = &'a SimResult>,
) -> f64 {
    let (mut launches, mut cycles, mut out_st, mut iss_st) = (0u64, 0u64, 0u64, 0u64);
    let (mut hits, mut misses, mut dram, mut lb) = (0u64, 0u64, 0u64, 0u64);
    for r in results {
        launches += 1;
        cycles += r.cycles;
        out_st += r.output_stalls;
        iss_st += r.issue_stalls;
        hits += r.cache.hits;
        misses += r.cache.misses;
        dram += r.dram.reads + r.dram.writes;
        lb += r.line_buf.window_hits;
    }
    for (name, v) in [
        ("sim.launches", launches),
        ("sim.device_cycles", cycles),
        ("sim.output_stalls", out_st),
        ("sim.issue_stalls", iss_st),
        ("mem.cache_hits", hits),
        ("mem.cache_misses", misses),
        ("mem.dram_lines", dram),
        ("mem.linebuf_window_hits", lb),
    ] {
        report.set(name, v as f64);
    }
    cycles as f64
}

/// Every app's per-launch results from the benchmark's runner must equal
/// `SimRunner`'s (the registry's own runner) exactly.
fn check_against_sim_runner(
    report: &mut Report,
    apps: &[App],
    ours: &BTreeMap<&'static str, Vec<SimResult>>,
) {
    for app in apps {
        let theirs = SimRunner::new(Framework::Soff, app.source, &[])
            .map_err(|o| format!("build failed ({})", o.code()))
            .and_then(|mut r| run_app(app, &mut r, Scale::Small).map(|()| r.launch_results));
        let same = theirs.as_ref().is_ok_and(|t| Some(t) == ours.get(app.name));
        report.op(same, || match theirs {
            Err(e) => format!("{}: SimRunner failed: {e}", app.name),
            Ok(_) => format!("{}: SimResults differ from SimRunner's", app.name),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_runner_simulates_what_sim_runner_does() {
        for name in ["atax", "125.lud", "116.histo"] {
            let app = apps()
                .into_iter()
                .find(|a| a.name == name)
                .expect("registered app");
            let mut ours = LocalRunner::like_sim_runner(app.source).expect("builds");
            run_app(&app, &mut ours, Scale::Small).expect("checked run");
            let mut theirs = SimRunner::new(Framework::Soff, app.source, &[]).expect("builds");
            run_app(&app, &mut theirs, Scale::Small).expect("checked run");
            assert_eq!(ours.results, theirs.launch_results, "{name}");
            let mut timed = TimedSimRunner::new(app.source).expect("builds");
            run_app(&app, &mut timed, Scale::Small).expect("checked run");
            assert_eq!(ours.digest, timed.digest, "{name}");
            let t = &ours.times;
            assert!(
                t.launch >= t.prepare + t.elaborate + t.run,
                "{name}: parts exceed the whole"
            );
        }
    }

    #[test]
    fn insufficient_resources_apps_are_registered() {
        let names: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
        assert!(INSUFFICIENT_RESOURCES.iter().all(|n| names.contains(n)));
        assert_eq!(apps().len(), names.len() - INSUFFICIENT_RESOURCES.len());
    }
}
