//! # soff-bench
//!
//! The benchmark harness of the SOFF reproduction: one binary per table /
//! figure of §VI (run with `cargo run -p soff-bench --bin <name>`). Each
//! binary prints the same rows/series the paper reports together with the
//! published values where the paper gives them, so paper-vs-measured
//! comparison is mechanical (see EXPERIMENTS.md).

use soff_baseline::Framework;
use soff_workloads::journal::JournalError;
use soff_workloads::sweep::{run_cells, Cell, SweepOptions};
use soff_workloads::{all_apps, data::Scale, App, AppResult};

pub mod json;

/// Parses the shared `--jobs N` flag of the bench bins; the default is
/// the machine's available parallelism. `--jobs 1` reproduces the
/// historical sequential sweep exactly.
///
/// # Errors
///
/// A one-line usage message when the value is missing, not a number, or
/// zero (a zero-wide pool is always a typo, never a request).
pub fn parse_jobs_flag(args: &[String]) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == "--jobs") else {
        return Ok(soff_exec::default_jobs());
    };
    let Some(raw) = args.get(i + 1) else {
        return Err("usage: --jobs <N> requires a positive integer".to_string());
    };
    match raw.parse::<usize>() {
        Ok(0) => Err("usage: --jobs must be at least 1 (got 0)".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("usage: --jobs must be a positive integer (got {raw:?})")),
    }
}

/// [`parse_jobs_flag`] for `main`: prints the usage error to stderr and
/// exits with status 2 instead of silently guessing a value.
pub fn jobs_flag(args: &[String]) -> usize {
    parse_jobs_flag(args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// Parses the shared `--resume <journal>` flag: the crash-recovery
/// journal path the sweep appends to and replays from.
///
/// # Errors
///
/// A one-line usage message when the path operand is missing.
pub fn parse_resume_flag(args: &[String]) -> Result<Option<std::path::PathBuf>, String> {
    let Some(i) = args.iter().position(|a| a == "--resume") else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(p) if !p.starts_with("--") => Ok(Some(std::path::PathBuf::from(p))),
        _ => Err("usage: --resume <journal-path> requires a path".to_string()),
    }
}

/// [`parse_resume_flag`] for `main`: prints the usage error to stderr
/// and exits with status 2.
pub fn resume_flag(args: &[String]) -> Option<std::path::PathBuf> {
    parse_resume_flag(args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// Geometric mean of positive values; `None` for an empty slice (the
/// caller decides how to report "no overlapping apps" — a silent NaN
/// propagates into every downstream summary).
pub fn geomean(vals: &[f64]) -> Option<f64> {
    if vals.is_empty() {
        return None;
    }
    Some((vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp())
}

/// [`geomean`] formatted for table output: `(no overlapping apps)` when
/// empty.
pub fn fmt_geomean(vals: &[f64]) -> String {
    match geomean(vals) {
        Some(g) => format!("{g:.2}"),
        None => "(no overlapping apps)".to_string(),
    }
}

/// The 26 applications Intel OpenCL can run (Fig. 11's x-axis). The
/// stencil suite post-dates the paper, so it never appears here.
pub fn fig11_apps() -> Vec<App> {
    all_apps()
        .into_iter()
        .filter(|a| {
            a.suite != soff_workloads::Suite::Stencil
                && soff_baseline::known_issue(Framework::IntelLike, a.name).is_none()
                // SOFF cannot run the IR apps either, so they cannot appear.
                && !matches!(a.name, "122.cfd" | "128.heartwall" | "140.bplustree")
        })
        .collect()
}

/// Per-app speedup of SOFF over a baseline framework at the given scale.
/// Returns `(name, speedup, soff_result, baseline_result)` for apps both
/// frameworks run, in `all_apps` order.
///
/// Runs as two parallel waves on `jobs` workers: all SOFF cells first,
/// then the baseline cells of the apps SOFF completed (preserving the
/// historical behaviour of never simulating a baseline whose SOFF side
/// already failed). With a journal path, each wave journals to its own
/// derived file (`<path>.soff` / `<path>.base` — the two waves run
/// different cell sets, hence different sweep identities) and a killed
/// run resumes from whatever the files already hold.
///
/// # Errors
///
/// [`JournalError`] when either wave's journal is unwritable, stale, or
/// damaged beyond a torn tail.
pub fn speedups_vs_resumable(
    baseline: Framework,
    scale: Scale,
    jobs: usize,
    journal: Option<&std::path::Path>,
) -> Result<Vec<(&'static str, f64, AppResult, AppResult)>, JournalError> {
    let wave_opts = |suffix: &str| SweepOptions {
        jobs,
        journal: journal.map(|p| std::path::PathBuf::from(format!("{}.{suffix}", p.display()))),
    };
    // Paper-figure sweeps stay on the paper's 34 apps; the stencil suite
    // has its own harness (`stencil_speed`).
    let apps: Vec<App> = all_apps()
        .into_iter()
        .filter(|a| a.suite != soff_workloads::Suite::Stencil)
        .collect();
    let soff_cells: Vec<Cell> =
        apps.iter().map(|a| Cell::new(*a, Framework::Soff, scale)).collect();
    let soff = run_cells(&soff_cells, &wave_opts("soff"))?;

    let runnable: Vec<usize> = (0..apps.len())
        .filter(|&i| soff[i].result.outcome == soff_baseline::Outcome::Ok)
        .collect();
    let base_cells: Vec<Cell> =
        runnable.iter().map(|&i| Cell::new(apps[i], baseline, scale)).collect();
    let base = run_cells(&base_cells, &wave_opts("base"))?;

    Ok(runnable
        .iter()
        .zip(&base)
        .filter(|(_, b)| b.result.outcome == soff_baseline::Outcome::Ok)
        .map(|(&i, b)| {
            let s = soff[i].result;
            (apps[i].name, b.result.seconds / s.seconds, s, b.result)
        })
        .collect())
}

/// Published Fig. 11 data points (the bars tall enough for the paper to
/// print their value) and headline numbers, for side-by-side reporting.
pub mod paper {
    /// Fig. 11 geometric-mean speedup of SOFF over Intel OpenCL.
    pub const FIG11_GEOMEAN: f64 = 1.33;
    /// Fig. 11: SOFF outperforms Intel OpenCL on 17 of 26 applications.
    pub const FIG11_WINS: (u32, u32) = (17, 26);
    /// The clipped-bar values the figure annotates.
    pub const FIG11_OUTLIERS: &[(&str, f64)] =
        &[("110.fft", 4.02), ("117.bfs", 21.0), ("mvt", 4.75), ("covar", 4.67)];
    /// Fig. 12 (a): Xilinx-vs-SOFF I geometric mean (SOFF over SDAccel).
    pub const FIG12A_GEOMEAN: f64 = 24.9;
    /// Fig. 12 (b): Xilinx-vs-SOFF II geometric mean under the optimistic
    /// linear-scaling assumption.
    pub const FIG12B_GEOMEAN: f64 = 1.33;
    /// Table II failure counts: Intel fails 8 SPEC apps; Xilinx fails
    /// 9 SPEC + 5 PolyBench; SOFF fails 3 (insufficient resources).
    pub const TABLE2_FAILS: (u32, u32, u32) = (8, 14, 3);
}

/// Formats a ratio for table output.
pub fn fmt_ratio(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:7.0}")
    } else {
        format!("{x:7.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(fmt_geomean(&[]), "(no overlapping apps)");
    }

    #[test]
    fn fig11_has_26_apps() {
        assert_eq!(fig11_apps().len(), 26, "Fig. 11 covers 26 applications");
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jobs_flag_rejects_zero_and_garbage_with_usage_errors() {
        assert_eq!(parse_jobs_flag(&argv(&["--jobs", "4"])), Ok(4));
        assert_eq!(parse_jobs_flag(&argv(&[])), Ok(soff_exec::default_jobs()));
        for bad in [&["--jobs", "0"][..], &["--jobs", "four"], &["--jobs", "-2"], &["--jobs"]] {
            let err = parse_jobs_flag(&argv(bad)).unwrap_err();
            assert!(err.starts_with("usage:"), "one-line usage error, got: {err}");
            assert!(!err.contains('\n'), "usage error must be one line");
        }
    }

    #[test]
    fn resume_flag_parses_paths_and_rejects_missing_operand() {
        assert_eq!(parse_resume_flag(&argv(&[])), Ok(None));
        assert_eq!(
            parse_resume_flag(&argv(&["--resume", "/tmp/j.log"])),
            Ok(Some(std::path::PathBuf::from("/tmp/j.log")))
        );
        for bad in [&["--resume"][..], &["--resume", "--jobs"]] {
            let err = parse_resume_flag(&argv(bad)).unwrap_err();
            assert!(err.starts_with("usage:"), "one-line usage error, got: {err}");
        }
    }
}
