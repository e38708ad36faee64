//! Regenerates **Table II** (functional correctness of Intel OpenCL,
//! Xilinx SDAccel, and SOFF), extended beyond the paper's 34 applications
//! with the temporally-blocked stencil suite (column `W`: sliding-window
//! kernels served by the line buffer).
//!
//! ```text
//! cargo run --release -p soff-bench --bin table2 \
//!     [--json] [--jobs N] [--resume <journal>] [--digest]
//! ```
//!
//! `--resume <journal>` makes the sweep crash-recoverable: completed
//! cells are durably appended to the journal, and a journal left by a
//! killed run of the same sweep is replayed (its cells skipped) — the
//! resumed output is byte-identical to an uninterrupted run. `--digest`
//! prints the sweep-digest fingerprint on its own line so the CI smoke
//! can compare runs with `grep`.

use soff_baseline::{Framework, Outcome};
use soff_bench::json::{write_bench_rows, Json};
use soff_bench::{jobs_flag, paper, resume_flag};
use soff_workloads::sweep::{digest_fingerprint, grid, run_cells, SweepOptions};
use soff_workloads::{all_apps, data::Scale, Suite};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::Small;
    let json = args.iter().any(|a| a == "--json");
    let want_digest = args.iter().any(|a| a == "--digest");
    let jobs = jobs_flag(&args);
    let resume = resume_flag(&args);
    let mut jrows = Vec::new();
    println!(
        "Table II: Applications (L = local memory, B = barrier, A = atomics, \
         W = sliding window)"
    );
    println!("{:-<72}", "");
    println!(
        "{:<16} {:<8} {:>2}{:>2}{:>2}{:>2}  {:>8} {:>8} {:>8}",
        "Application", "Suite", "L", "B", "A", "W", "Intel", "Xilinx", "SOFF"
    );
    println!("{:-<72}", "");
    let mut fails = [0u32; 3];
    let mut soff_correct = 0u32;
    let apps = all_apps();
    // Fan the whole app × framework grid across the pool; rows come back in
    // app-major input order, so printing stays a straight walk.
    let fws = [Framework::IntelLike, Framework::XilinxLike, Framework::Soff];
    let opts = SweepOptions { jobs, journal: resume };
    let results = match run_cells(&grid(&apps, &fws, scale), &opts) {
        Ok(results) => results,
        // Typed journal failures (stale, corrupt, unwritable) — never a
        // panic, never a silently mixed resume.
        Err(e) => {
            eprintln!("cannot resume: {e}");
            std::process::exit(1);
        }
    };
    for (app, row) in apps.iter().zip(results.chunks(fws.len())) {
        let intel = row[0].result.outcome;
        let xilinx = row[1].result.outcome;
        let soff = row[2].result.outcome;
        for (i, o) in [intel, xilinx, soff].iter().enumerate() {
            if *o != Outcome::Ok {
                fails[i] += 1;
            }
        }
        if soff == Outcome::Ok {
            soff_correct += 1;
        }
        let suite = match app.suite {
            Suite::SpecAccel => "SPEC",
            Suite::PolyBench => "Poly",
            Suite::Stencil => "Stencil",
        };
        let mark = |b: bool| if b { "x" } else { "" };
        println!(
            "{:<16} {:<8} {:>2}{:>2}{:>2}{:>2}  {:>8} {:>8} {:>8}",
            app.name,
            suite,
            mark(app.features.local),
            mark(app.features.barrier),
            mark(app.features.atomics),
            mark(app.features.window),
            intel.code(),
            xilinx.code(),
            soff.code(),
        );
        if json {
            jrows.push(Json::obj(vec![
                ("app", Json::str(app.name)),
                ("suite", Json::str(suite)),
                ("local", Json::Bool(app.features.local)),
                ("barrier", Json::Bool(app.features.barrier)),
                ("atomics", Json::Bool(app.features.atomics)),
                ("window", Json::Bool(app.features.window)),
                ("intel", Json::str(intel.code())),
                ("xilinx", Json::str(xilinx.code())),
                ("soff", Json::str(soff.code())),
            ]));
        }
    }
    println!("{:-<72}", "");
    println!(
        "Failures — Intel: {}, Xilinx: {}, SOFF: {} (paper: {}, {}, {})",
        fails[0], fails[1], fails[2], paper::TABLE2_FAILS.0, paper::TABLE2_FAILS.1, paper::TABLE2_FAILS.2
    );
    println!(
        "SOFF correctly executes {soff_correct} of {} applications \
         (paper: 31 of 34; the stencil suite extends the original grid).",
        apps.len()
    );
    println!(
        "Codes: CE compile error, IA incorrect answer, RE run-time error, \
         H hang, IR insufficient FPGA resources."
    );

    let resumed = results.iter().filter(|c| c.from_journal).count();
    if resumed > 0 {
        println!("resumed: {resumed} of {} cells replayed from the journal", results.len());
    }
    if want_digest {
        println!("sweep digest: {:016x}", digest_fingerprint(&results));
    }

    if json {
        // The audit trailer: enough to tell a resumed run from a fresh one.
        let cache = soff_runtime::cache::stats();
        jrows.push(Json::obj(vec![
            ("resumed_cells", Json::Int(resumed as i64)),
            ("digest", Json::str(format!("{:016x}", digest_fingerprint(&results)))),
            ("frontend_hits", Json::Int(cache.frontend_hits as i64)),
            ("frontend_misses", Json::Int(cache.frontend_misses as i64)),
            ("program_hits", Json::Int(cache.program_hits as i64)),
            ("program_misses", Json::Int(cache.program_misses as i64)),
        ]));
        match write_bench_rows("table2", jrows) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write JSON: {e}"),
        }
    }
}
