//! Acceptance gate for both schedulers and checkpoint/restore on real
//! workloads. Every registry application SOFF can run (all but the three
//! `IR` apps) runs once under Dense, uninterrupted: the reference. Three
//! more runs must be bit-identical to it — Dense with launches preempted
//! every few thousand cycles (snapshot → **freshly built** machine →
//! restore), Fast, and Fast preempted the same way — with the same
//! verification verdict, the same per-launch `SimResult`s (cycle counts,
//! per-cache statistics, stall counters) and the same device totals.

use soff_baseline::Framework;
use soff_sim::Scheduler;
use soff_workloads::data::Scale;
use soff_workloads::runner::SimRunner;
use soff_workloads::{all_apps, App, Suite};

/// The apps that exceed the Arria 10's capacity (`run_all_soff.rs`).
const IR: [&str; 3] = ["122.cfd", "128.heartwall", "140.bplustree"];

/// One full app run: verification verdict plus every launch's complete
/// simulation result and the accumulated device totals.
struct Observed {
    correct: bool,
    launches: Vec<soff_sim::SimResult>,
    total_cycles: u64,
    total_seconds: f64,
}

fn run_app(app: &App, scheduler: Scheduler, checkpoint: Option<u64>) -> Observed {
    let mut runner = SimRunner::new(Framework::Soff, app.source, &[])
        .unwrap_or_else(|o| panic!("{}: build failed ({})", app.name, o.code()));
    runner.set_scheduler(scheduler);
    runner.set_checkpoint_interval(checkpoint);
    let correct = (app.run)(&mut runner, Scale::Small)
        .unwrap_or_else(|e| panic!("{}: host program failed: {e}", app.name));
    Observed {
        correct,
        launches: runner.launch_results,
        total_cycles: runner.total_cycles,
        total_seconds: runner.total_seconds,
    }
}

/// Dense with launches preempted every 2048 cycles: small enough to
/// interrupt every launch at least once, large enough to keep the rebuild
/// count (and test time) bounded.
const DENSE_PREEMPTED: (Scheduler, Option<u64>) = (Scheduler::Dense, Some(2048));
const FAST: (Scheduler, Option<u64>) = (Scheduler::Fast, None);
const FAST_PREEMPTED: (Scheduler, Option<u64>) = (Scheduler::Fast, Some(2048));

/// Runs `app` once under Dense, uninterrupted, and asserts that every
/// `(scheduler, checkpoint interval)` of `configs` reproduces it exactly.
fn assert_bit_identical(app: &App, configs: &[(Scheduler, Option<u64>)]) {
    let reference = run_app(app, Scheduler::Dense, None);
    assert!(reference.correct, "{}: uninterrupted Dense run must verify", app.name);
    for &(scheduler, checkpoint) in configs {
        let run = run_app(app, scheduler, checkpoint);
        let config = format!("{} ({scheduler:?}, checkpoint {checkpoint:?})", app.name);
        assert!(run.correct, "{config}: run must verify");
        assert_eq!(reference.launches, run.launches, "{config}: per-launch results diverged");
        assert_eq!(reference.total_cycles, run.total_cycles, "{config}: device cycles");
        assert!(reference.total_seconds == run.total_seconds, "{config}: device seconds");
    }
}

/// Checks every runnable app of `apps` against `configs` and returns how
/// many ran.
fn check_runnable(apps: Vec<App>, configs: &[(Scheduler, Option<u64>)]) -> usize {
    let runnable: Vec<App> = apps.into_iter().filter(|a| !IR.contains(&a.name)).collect();
    for app in &runnable {
        assert_bit_identical(app, configs);
    }
    runnable.len()
}

fn polybench_apps() -> Vec<App> {
    all_apps().into_iter().filter(|a| a.suite == Suite::PolyBench).collect()
}

// Three tests, so the harness runs them in parallel; 15 + 21 = the 36
// runnable registry apps, each checked in all three configurations.

#[test]
fn every_polybench_app_survives_preemption_dense() {
    assert_eq!(check_runnable(polybench_apps(), &[DENSE_PREEMPTED]), 15);
}

#[test]
fn every_polybench_app_survives_preemption_fast() {
    assert_eq!(check_runnable(polybench_apps(), &[FAST, FAST_PREEMPTED]), 15);
}

#[test]
fn every_spec_and_stencil_app_matches_uninterrupted_dense() {
    let apps = all_apps().into_iter().filter(|a| a.suite != Suite::PolyBench).collect();
    assert_eq!(check_runnable(apps, &[DENSE_PREEMPTED, FAST, FAST_PREEMPTED]), 21);
}
