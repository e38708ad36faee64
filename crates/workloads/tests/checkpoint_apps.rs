//! Acceptance gate for checkpoint/restore on real workloads: every
//! PolyBench application, run with launches preempted every few thousand
//! cycles (snapshot → **freshly built** machine → restore), must be
//! bit-identical to the uninterrupted run under both schedulers — same
//! verification verdict, same per-launch `SimResult`s (cycle counts,
//! per-cache statistics, stall counters), same device totals.

use soff_baseline::Framework;
use soff_sim::Scheduler;
use soff_workloads::data::Scale;
use soff_workloads::runner::SimRunner;
use soff_workloads::{polybench, App};

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

fn assert_bit_identical(app: &App, scheduler: Scheduler) {
    let plain = run_app(app, scheduler, None);
    // Small enough to interrupt every launch at least once, large enough
    // to keep the rebuild count (and test time) bounded.
    let sliced = run_app(app, scheduler, Some(2048));
    assert!(plain.correct, "{}: uninterrupted run must verify", app.name);
    assert!(sliced.correct, "{}: interrupted run must verify", app.name);
    assert_eq!(
        plain.launches, sliced.launches,
        "{} ({scheduler:?}): per-launch results diverged after restore",
        app.name
    );
    assert_eq!(plain.total_cycles, sliced.total_cycles, "{}: device cycles", app.name);
    assert!(
        (plain.total_seconds - sliced.total_seconds).abs() == 0.0,
        "{}: device seconds",
        app.name
    );
}

#[test]
fn every_polybench_app_survives_preemption_dense() {
    for app in polybench::apps() {
        assert_bit_identical(&app, Scheduler::Dense);
    }
}

#[test]
fn every_polybench_app_survives_preemption_fast() {
    for app in polybench::apps() {
        assert_bit_identical(&app, Scheduler::Fast);
    }
}
