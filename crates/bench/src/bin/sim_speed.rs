//! Wall-clock benchmark of the fast scheduler.
//!
//! Runs each selected application twice — under the dense reference loop
//! and under the fast scheduler — checks that every per-launch
//! `SimResult` is bit-identical between the two, and reports the
//! wall-clock speedup over dense. Only the kernel launches are timed, not
//! input generation or the host-side reference check. Exits nonzero if
//! the schedulers disagree anywhere or any app fails to run.
//!
//! ```text
//! cargo run --release -p soff-bench --bin sim_speed [--apps atax,mvt] [--full] [--jobs N]
//! ```
//!
//! Writes `BENCH_sim_speed.json` in the repo root.

use soff_baseline::Framework;
use soff_bench::json::{write_bench_rows, Json};
use soff_bench::{fmt_geomean, jobs_flag};
use soff_ir::ir::NdRange;
use soff_sim::Scheduler;
use soff_workloads::data::Scale;
use soff_workloads::runner::{Arg, BufId, RunError, Runner, SimRunner};
use soff_workloads::{all_apps, App, Suite};
use std::time::Instant;

/// A [`SimRunner`] that accumulates the host time of its launches.
struct LaunchTimer {
    inner: SimRunner,
    seconds: f64,
}

impl Runner for LaunchTimer {
    fn alloc_bytes(&mut self, data: &[u8]) -> BufId {
        self.inner.alloc_bytes(data)
    }

    fn launch(&mut self, kernel: &str, args: &[Arg], nd: NdRange) -> Result<(), RunError> {
        let start = Instant::now();
        let out = self.inner.launch(kernel, args, nd);
        self.seconds += start.elapsed().as_secs_f64();
        out
    }

    fn read_bytes(&mut self, b: BufId) -> Vec<u8> {
        self.inner.read_bytes(b)
    }
}

struct Measured {
    launch_seconds: f64,
    cycles: u64,
    launches: u32,
    results: Vec<soff_sim::SimResult>,
}

fn run_once(app: &App, scale: Scale, scheduler: Scheduler) -> Result<Measured, String> {
    let mut inner = SimRunner::new(Framework::Soff, app.source, &[])
        .map_err(|o| format!("build failed ({})", o.code()))?;
    inner.set_scheduler(scheduler);
    let mut runner = LaunchTimer { inner, seconds: 0.0 };
    let correct = (app.run)(&mut runner, scale).map_err(|e| e.to_string())?;
    if !correct {
        return Err("incorrect answer".to_string());
    }
    let LaunchTimer { inner, seconds } = runner;
    Ok(Measured {
        launch_seconds: seconds,
        cycles: inner.total_cycles,
        launches: inner.launches,
        results: inner.launch_results,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") { Scale::Full } else { Scale::Small };
    let only: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--apps")
        .and_then(|i| args.get(i + 1))
        .map(|list| list.split(',').map(|s| s.trim().to_string()).collect());

    let apps: Vec<App> = all_apps()
        .into_iter()
        .filter(|a| match &only {
            Some(names) => names.iter().any(|n| n == a.name),
            // Default sweep: the PolyBench suite (every app runs on SOFF).
            None => a.suite == Suite::PolyBench,
        })
        .collect();
    if apps.is_empty() {
        eprintln!("no matching applications");
        std::process::exit(2);
    }

    println!("Simulator launch time: dense vs. fast ({scale:?} scale)");
    println!("{:-<66}", "");
    println!(
        "{:<12} {:>11} {:>11} {:>8} {:>13} {:>7}",
        "app", "dense (ms)", "fast (ms)", "speedup", "cycles", "agree"
    );
    println!("{:-<66}", "");

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut failed = false;
    // One pool task per app runs its dense+fast pair back to back on the
    // same thread, so each row's wall-clock comparison stays
    // apples-to-apples even when apps run concurrently.
    let jobs = jobs_flag(&args);
    let pairs = soff_exec::run_tasks(jobs, apps.clone(), |_, app: App| {
        (run_once(&app, scale, Scheduler::Dense), run_once(&app, scale, Scheduler::Fast))
    });
    for (app, pair) in apps.iter().zip(pairs) {
        let (dense, fast) = match pair {
            Ok((Ok(d), Ok(f))) => (d, f),
            Ok((d, f)) => {
                let why = d.err().or_else(|| f.err()).unwrap_or_default();
                println!("{:<12} failed: {why}", app.name);
                failed = true;
                continue;
            }
            Err(soff_exec::TaskError::Panicked { message }) => {
                println!("{:<12} failed: task panicked: {message}", app.name);
                failed = true;
                continue;
            }
            Err(soff_exec::TaskError::Cancelled) => {
                println!("{:<12} failed: cancelled", app.name);
                failed = true;
                continue;
            }
        };
        // Bit-identity: every launch's full SimResult (cycle counts,
        // per-cache statistics, stall counters) must match.
        let agree = dense.results == fast.results
            && dense.cycles == fast.cycles
            && dense.launches == fast.launches;
        if !agree {
            failed = true;
        }
        let speedup = dense.launch_seconds / fast.launch_seconds.max(1e-9);
        speedups.push(speedup);
        println!(
            "{:<12} {:>11.1} {:>11.1} {:>7.2}x {:>13} {:>7}",
            app.name,
            dense.launch_seconds * 1e3,
            fast.launch_seconds * 1e3,
            speedup,
            dense.cycles,
            if agree { "yes" } else { "NO" },
        );
        rows.push(Json::obj(vec![
            ("app", Json::str(app.name)),
            ("dense_seconds", Json::Num(dense.launch_seconds)),
            ("fast_seconds", Json::Num(fast.launch_seconds)),
            ("speedup", Json::Num(speedup)),
            ("cycles", Json::Int(dense.cycles as i64)),
            ("launches", Json::Int(dense.launches as i64)),
            ("agree", Json::Bool(agree)),
        ]));
    }
    println!("{:-<66}", "");
    println!("geomean speedup of fast over dense: {}", fmt_geomean(&speedups));
    if let Some(g) = soff_bench::geomean(&speedups) {
        rows.push(Json::obj(vec![("geomean_speedup", Json::Num(g))]));
    }
    match write_bench_rows("sim_speed", rows) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write results: {e}");
            failed = true;
        }
    }
    if failed {
        eprintln!("FAILED: scheduler disagreement or app failure (see above)");
        std::process::exit(1);
    }
}
