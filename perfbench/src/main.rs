//! The SOFF benchmark: one command per workload, end to end with tracing
//! off, or per layer with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile-cold|sim-suite|serve-mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The seed only orders the apps; every app's inputs are the registry's
//! own deterministic ones. Every operation is checked (the app's host
//! reference, plus golden digests in `golden.txt`). Notes and host facts
//! are printed first; the last line of standard output is the result
//! object. See `README.md` for the metrics.

mod check;
mod compile;
mod cpus;
mod report;
mod runner;
mod serve;
mod stats;
mod suite;

use check::Golden;
use report::{Report, APP_RUN_PREFIX, END_TO_END, PER_LAYER};
use soff_workloads::data::Scale;
use soff_workloads::runner::Runner;
use soff_workloads::App;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["compile-cold", "sim-suite", "serve-mixed"];

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(bad)?,
                "--seconds" => {
                    args.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad value for --seconds: {value}"))?
                }
                "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }

    /// When the measuring budget, starting now, runs out.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds.max(0.0))
    }

    /// The app-order generator for this run.
    pub fn rng(&self) -> SplitMix {
        SplitMix(self.seed)
    }
}

/// splitmix64: orders apps from the seed alone.
pub struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A seeded Fisher–Yates shuffle of `items`.
pub fn shuffled<T: Clone>(items: &[T], rng: &mut SplitMix) -> Vec<T> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    v
}

/// Runs an app's host program on `runner`: it must return a correct
/// answer without error or panic.
pub fn run_app(app: &App, runner: &mut dyn Runner, scale: Scale) -> Result<(), String> {
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (app.run)(runner, scale)));
    match ran {
        Ok(Ok(true)) => Ok(()),
        Ok(Ok(false)) => Err("incorrect answer".to_string()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("host program panicked".to_string()),
    }
}

/// First line of a command's standard output, or `unavailable`.
fn probe(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

/// The facts every result is recorded with.
fn host_facts(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // Never let git search above the working directory.
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(|p| p.to_path_buf()).unwrap_or_default();
    let git = probe(
        Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    );
    let rustc = probe(Command::new("rustc").arg("--version"));
    format!(
        "host: nproc={nproc} profile={profile} git={git} rustc=\"{rustc}\" workload={} seed={} \
         seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_facts(&args));
    let golden = Golden::committed();
    let mut report = Report::default();
    match args.workload.as_str() {
        "compile-cold" => compile::run(&args, &golden, &mut report),
        "sim-suite" => suite::run(&args, &golden, &mut report),
        _ => serve::run(&args, &golden, &mut report),
    }
    for line in &report.notes {
        println!("{line}");
    }
    let names: Vec<(String, &str)> = if args.trace {
        let mut v: Vec<(String, &str)> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
        v.extend(
            suite::apps()
                .iter()
                .map(|a| (format!("{APP_RUN_PREFIX}{}", a.name), "s")),
        );
        v
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    println!("{}", report.result_line(&names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload sim-suite --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim-suite", 7, 12.0, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload sim-suite --seed").is_err());
        assert!(parse("--workload sim-suite --seconds inf").is_err());
    }

    #[test]
    fn shuffle_depends_only_on_the_seed() {
        let items: Vec<u32> = (0..39).collect();
        let a = shuffled(&items, &mut SplitMix(5));
        assert_eq!(a, shuffled(&items, &mut SplitMix(5)));
        assert_ne!(a, shuffled(&items, &mut SplitMix(6)));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, items);
    }
}
