//! Cycle-count benchmark of the sliding-window line buffer.
//!
//! Runs each stencil application with the line buffer on and off, each
//! under both schedulers (dense and fast), and reports the
//! simulated-cycle speedup plus the cache-miss and DRAM-traffic deltas
//! the window path buys. Within each mode the two schedulers must agree
//! bit-for-bit, and the output buffers must be byte-identical across all
//! four runs (the line buffer is a performance feature, never a semantic
//! one). Exits nonzero on any disagreement, any incorrect answer, or —
//! the CI self-check — if the line-buffer path is slower than the cache
//! path on `2dconv`.
//!
//! ```text
//! cargo run --release -p soff-bench --bin stencil_speed [--apps 2dconv,jacobi] [--jobs N]
//! ```
//!
//! Writes `BENCH_stencil.json` in the repo root.

use soff_bench::json::{write_bench_rows, Json};
use soff_bench::{fmt_geomean, geomean, jobs_flag};
use soff_sim::Scheduler;
use soff_workloads::data::Scale;
use soff_workloads::stencil::{run_stencil, stencil_app_names, StencilRun};
use soff_workloads::{all_apps, App};

const SCHEDULERS: [Scheduler; 2] = [Scheduler::Dense, Scheduler::Fast];

/// One line-buffer mode: the dense-scheduler run plus agreement with the
/// fast one.
struct Mode {
    run: StencilRun,
    agree: bool,
}

fn run_mode(app: &App, line_buffer: bool) -> Result<Mode, String> {
    let mut first: Option<StencilRun> = None;
    let mut agree = true;
    for sched in SCHEDULERS {
        let run = run_stencil(app, Scale::Small, sched, line_buffer)
            .map_err(|o| format!("{sched:?} failed ({})", o.code()))?;
        if !run.correct {
            return Err(format!("incorrect answer ({sched:?})"));
        }
        match &first {
            None => first = Some(run),
            Some(f) => {
                agree &= f.cycles == run.cycles
                    && f.buffers == run.buffers
                    && f.line_buf == run.line_buf
                    && f.cache_misses == run.cache_misses
                    && f.dram_lines == run.dram_lines;
            }
        }
    }
    Ok(Mode { run: first.unwrap(), agree })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--apps")
        .and_then(|i| args.get(i + 1))
        .map(|list| list.split(',').map(|s| s.trim().to_string()).collect());

    let registry = all_apps();
    let apps: Vec<App> = stencil_app_names()
        .iter()
        .filter(|n| match &only {
            Some(names) => names.iter().any(|m| m == *n),
            None => true,
        })
        .map(|n| *registry.iter().find(|a| a.name == *n).expect("registry"))
        .collect();
    if apps.is_empty() {
        eprintln!("no matching applications");
        std::process::exit(2);
    }

    println!("Line buffer vs. per-access cache: simulated cycles (Small scale)");
    println!("{:-<96}", "");
    println!(
        "{:<16} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "app", "cache (cyc)", "LB (cyc)", "speedup", "miss-off", "miss-on", "dram-off", "dram-on", "agree"
    );
    println!("{:-<96}", "");

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut blocked_speedups = Vec::new();
    let mut conv2d_self_check_ok = true;
    let mut failed = false;
    // One pool task per app runs its four configurations back to back.
    let jobs = jobs_flag(&args);
    let pairs = soff_exec::run_tasks(jobs, apps.clone(), |_, app: App| {
        let off = run_mode(&app, false);
        let on = run_mode(&app, true);
        (off, on)
    });
    for (app, pair) in apps.iter().zip(pairs) {
        let (off, on) = match pair {
            Ok(p) => p,
            Err(soff_exec::TaskError::Panicked { message }) => {
                println!("{:<16} failed: task panicked: {message}", app.name);
                failed = true;
                continue;
            }
        };
        let (off, on) = match (off, on) {
            (Ok(off), Ok(on)) => (off, on),
            (off, on) => {
                let why = off.err().or_else(|| on.err()).unwrap_or_default();
                println!("{:<16} failed: {why}", app.name);
                failed = true;
                continue;
            }
        };
        // Cross-mode bit-identity on the functional state.
        let agree = off.agree && on.agree && off.run.buffers == on.run.buffers;
        if !agree {
            failed = true;
        }
        let speedup = off.run.cycles as f64 / (on.run.cycles as f64).max(1.0);
        speedups.push(speedup);
        if app.name.ends_with("-blocked") {
            blocked_speedups.push(speedup);
        }
        if app.name == "2dconv" && on.run.cycles > off.run.cycles {
            conv2d_self_check_ok = false;
        }
        let lb = &on.run.line_buf;
        println!(
            "{:<16} {:>12} {:>12} {:>7.2}x {:>10} {:>10} {:>10} {:>10} {:>6}",
            app.name,
            off.run.cycles,
            on.run.cycles,
            speedup,
            off.run.cache_misses,
            on.run.cache_misses,
            off.run.dram_lines,
            on.run.dram_lines,
            if agree { "yes" } else { "NO" },
        );
        rows.push(Json::obj(vec![
            ("app", Json::str(app.name)),
            ("cycles_off", Json::Int(off.run.cycles as i64)),
            ("cycles_on", Json::Int(on.run.cycles as i64)),
            ("speedup", Json::Num(speedup)),
            ("cache_misses_off", Json::Int(off.run.cache_misses as i64)),
            ("cache_misses_on", Json::Int(on.run.cache_misses as i64)),
            ("dram_lines_off", Json::Int(off.run.dram_lines as i64)),
            ("dram_lines_on", Json::Int(on.run.dram_lines as i64)),
            ("window_hits", Json::Int(lb.window_hits as i64)),
            ("stream_refills", Json::Int(lb.stream_refills as i64)),
            ("bytes_from_dram", Json::Int(lb.bytes_from_dram as i64)),
            ("bytes_served", Json::Int(lb.bytes_served as i64)),
            ("agree", Json::Bool(agree)),
        ]));
    }
    println!("{:-<96}", "");
    println!(
        "geomean cycle speedup: all {}, blocked {}",
        fmt_geomean(&speedups),
        fmt_geomean(&blocked_speedups),
    );
    let mut trailer = vec![("self_check_2dconv", Json::Bool(conv2d_self_check_ok))];
    if let Some(g) = geomean(&speedups) {
        trailer.push(("geomean_speedup", Json::Num(g)));
    }
    if let Some(g) = geomean(&blocked_speedups) {
        trailer.push(("geomean_blocked_speedup", Json::Num(g)));
    }
    rows.push(Json::obj(trailer));
    match write_bench_rows("stencil", rows) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write results: {e}");
            failed = true;
        }
    }
    if !conv2d_self_check_ok {
        eprintln!("FAILED: line buffer slower than cache on 2dconv");
        failed = true;
    }
    if failed {
        eprintln!("FAILED: disagreement or app failure (see above)");
        std::process::exit(1);
    }
}
