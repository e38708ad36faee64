//! `compile-cold`: cold `Program::build` of every registry source, with
//! the compile cache cleared before each build — frontend, lowering,
//! datapath synthesis (with the FIFO-balancing ILP) and the resource
//! model do all the work; the simulator does none.
//!
//! The traced run splits each build into the public calls it is made of
//! and checks that the stages add up to a cold `Program::build`.

use crate::check::Digest;
use crate::cpus::Cpus;
use crate::report::{PeakRss, Report};
use crate::stats::{lowest_median, median, Repeats};
use crate::suite::INSUFFICIENT_RESOURCES;
use crate::{shuffled, Args, Golden};
use soff_datapath::hierarchy::DatapathOptions;
use soff_datapath::resource::{self, InsufficientResources, Replication};
use soff_datapath::{Datapath, LatencyModel};
use soff_runtime::{cache, BuildError, Device, Program};
use soff_workloads::{all_apps, App};
use std::time::{Duration, Instant};

const NAME: &str = "compile-cold";

/// One set-up runs before the first pass and one after every
/// `SETUP_EVERY`-th untraced pass; then the process moves to the next
/// CPU. Spread over the run, set-ups meet the host in the states the
/// passes do. Each CPU's median set-up is taken, and the lowest reported.
const SETUP_EVERY: usize = 8;

/// The percentile of each build's repeats that is kept (see [`Repeats`]).
/// A cold build does the same work every time, so a low one.
const KEPT_PERCENTILE: f64 = 10.0;

/// Folds one built kernel's datapath shape and replication into `d`.
fn add_kernel(d: &mut Digest, name: &str, dp: &Datapath, replication: &Replication) {
    d.add_debug(&(name, dp.num_units(), dp.l_datapath, dp.wg_slots));
    d.add_debug(replication);
}

/// The digest of a build that stopped at a kernel that does not fit.
fn insufficient(kernel: &str, inner: &InsufficientResources) -> Digest {
    let mut d = Digest::default();
    d.add_debug(&(kernel, inner));
    d
}

/// The build outcome a user sees, reduced to a digest: per kernel its
/// datapath shape and replication, or the typed build error.
fn outcome_digest(built: &Result<Program, BuildError>) -> Digest {
    match built {
        Ok(p) => {
            let mut d = Digest::default();
            for ck in p.kernels() {
                add_kernel(&mut d, &ck.kernel.name, &ck.datapath, &ck.replication);
            }
            d
        }
        Err(BuildError::InsufficientResources { kernel, inner }) => insufficient(kernel, inner),
        Err(e @ BuildError::Compile(_)) => {
            let mut d = Digest::default();
            d.add(e.to_string().as_bytes());
            d
        }
    }
}

/// One cold build: clears the cache, builds, and returns the outcome
/// digest, the build's host time, and whether the outcome is the
/// expected one (`InsufficientResources` for exactly the Table II `IR`
/// apps, success for every other).
fn cold_build(app: &App, device: &Device) -> (Digest, Duration, bool) {
    cache::clear();
    let started = Instant::now();
    let built = Program::build(app.source, &[], device);
    let took = started.elapsed();
    let expect_ir = INSUFFICIENT_RESOURCES.contains(&app.name);
    let expected = match &built {
        Ok(_) => !expect_ir,
        Err(e) => expect_ir && matches!(e, BuildError::InsufficientResources { .. }),
    };
    (outcome_digest(&built), took, expected)
}

/// Per-pass host time and work counts of the compile stages.
#[derive(Default)]
struct Stages {
    preprocess: f64,
    lex: f64,
    parse: f64,
    sema: f64,
    lower: f64,
    datapath: f64,
    unbalanced: f64,
    resource: f64,
    tokens: u64,
    instrs: u64,
    units: u64,
}

impl Stages {
    /// The stages a cold `Program::build` runs (everything but the extra
    /// balance-off datapath build used to isolate the ILP).
    fn build_path(&self) -> f64 {
        self.preprocess
            + self.lex
            + self.parse
            + self.sema
            + self.lower
            + self.datapath
            + self.resource
    }
}

fn lap(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let s = now.duration_since(*t).as_secs_f64();
    *t = now;
    s
}

/// Runs `source` through the same public calls `Program::build` makes,
/// timing each stage, plus one `balance_fifos: false` datapath build.
/// Returns the digest of the outcome, in the form of [`outcome_digest`],
/// so the copy of the build is checked against the real one.
fn staged(source: &str, device: &Device, acc: &mut Stages) -> Result<Digest, String> {
    let lat = LatencyModel::default();
    let mut t = Instant::now();
    let text = soff_frontend::preprocess::preprocess(source, &[]).map_err(|e| e.to_string())?;
    acc.preprocess += lap(&mut t);
    let tokens = soff_frontend::lexer::lex(&text).map_err(|e| e.to_string())?;
    acc.tokens += tokens.len() as u64;
    acc.lex += lap(&mut t);
    let unit = soff_frontend::parser::parse(tokens).map_err(|e| e.to_string())?;
    acc.parse += lap(&mut t);
    let analysis = soff_frontend::sema::analyze(&unit).map_err(|e| e.to_string())?;
    acc.sema += lap(&mut t);
    let parsed = soff_frontend::Parsed {
        unit,
        analysis,
        source: text,
    };
    let module = soff_ir::build::lower(&parsed).map_err(|e| e.to_string())?;
    acc.lower += lap(&mut t);
    let mut digest = Digest::default();
    for kernel in &module.kernels {
        acc.instrs += kernel.values.len() as u64;
        let mut t = Instant::now();
        let dp = Datapath::build(kernel, &lat);
        acc.datapath += lap(&mut t);
        acc.units += dp.num_units() as u64;
        let opts = DatapathOptions {
            balance_fifos: false,
            ..DatapathOptions::default()
        };
        std::hint::black_box(Datapath::build_opts(kernel, &lat, opts));
        acc.unbalanced += lap(&mut t);
        // The resource model as `Program::build` applies it.
        let pa = soff_ir::pointer::analyze(kernel);
        let (groups, unknown) = soff_ir::pointer::global_cache_groups(kernel, &pa);
        let num_caches = groups
            .iter()
            .flatten()
            .copied()
            .max()
            .map_or(usize::from(unknown), |m| m + 1);
        let local_bytes: u64 = kernel.local_vars.iter().map(|v| v.size).sum();
        let windows = soff_ir::window::detect(kernel);
        let cached_groups = num_caches.saturating_sub(windows.len());
        let mut cost = resource::datapath_cost_full(
            &dp,
            cached_groups.max(usize::from(windows.is_empty())),
            local_bytes,
            dp.wg_slots,
            kernel.private_bytes,
        );
        for w in &windows {
            cost.add(resource::line_buffer_cost(
                w.loads.len(),
                w.static_span().unwrap_or(soff_ir::window::DEFAULT_SPAN_CAP),
            ));
        }
        let replicated = resource::replicate(cost, &device.system);
        acc.resource += lap(&mut t);
        match replicated {
            Ok(r) => add_kernel(&mut digest, &kernel.name, &dp, &r),
            // `Program::build` stops at the first kernel that does not fit.
            Err(inner) => return Ok(insufficient(&kernel.name, &inner)),
        }
    }
    Ok(digest)
}

pub fn run(args: &Args, golden: &Golden, report: &mut Report) {
    let apps = all_apps();
    let device = Device::system_a();
    let mut rng = args.rng();

    // Set-up: one cold pass over every source (the first faults in code
    // and allocator state before the clock starts).
    let set_up = || {
        let started = Instant::now();
        for app in &apps {
            std::hint::black_box(cold_build(app, &device));
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
    let mut traced_passes: Vec<Stages> = Vec::new();
    let mut build_path_ratios = Vec::new();
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
        rss.start();
        let started = Instant::now();
        let mut builds = Vec::with_capacity(order.len());
        let mut stages = Stages::default();
        for app in &order {
            let (digest, took, expected) = cold_build(app, &device);
            builds.push((app.name, took.as_secs_f64()));
            report.check(
                app.name,
                if expected {
                    golden.verdict(NAME, app.name, Ok(()), &digest)
                } else {
                    Err("unexpected build outcome".to_string())
                },
            );
            if traced {
                cache::clear();
                let copy = staged(app.source, &device, &mut stages);
                report.op(copy.as_ref() == Ok(&digest), || {
                    format!(
                        "{}: staged compile differs from the build: {copy:?}",
                        app.name
                    )
                });
            }
        }
        let wall = started.elapsed().as_secs_f64();
        if traced {
            let built: f64 = builds.iter().map(|(_, t)| t).sum();
            build_path_ratios.push(stages.build_path() / built);
            traced_walls.push(wall);
            traced_passes.push(stages);
        } else {
            for (name, took) in builds {
                repeats.push(name, took, &[took]);
            }
            rss.stop();
            untraced_walls.push(wall);
            if untraced_walls.len() % SETUP_EVERY == 0 {
                setups.push((cpu, set_up()));
                cpu = cpus.step_process();
            }
        }
    }
    report.set("setup_s", lowest_median(&setups));

    report.set("peak_rss_mb", rss.lowest());
    report.timings(
        NAME,
        &repeats,
        &format!(
            "{} passes of {} cold builds; a unit is one build",
            untraced_walls.len(),
            apps.len()
        ),
    );
    if args.trace {
        let m = |f: fn(&Stages) -> f64| median(&traced_passes.iter().map(f).collect::<Vec<_>>());
        report.set("frontend.preprocess_s", m(|s| s.preprocess));
        report.set("frontend.lex_s", m(|s| s.lex));
        report.set("frontend.parse_s", m(|s| s.parse));
        report.set("frontend.sema_s", m(|s| s.sema));
        report.set("ir.lower_s", m(|s| s.lower));
        report.set("datapath.build_s", m(|s| s.datapath));
        report.set("ilp.balance_s", m(|s| s.datapath - s.unbalanced));
        report.set("datapath.resource_s", m(|s| s.resource));
        let last = traced_passes.last().expect("at least one traced pass");
        report.set("frontend.tokens", last.tokens as f64);
        report.set("ir.instrs", last.instrs as f64);
        report.set("datapath.units", last.units as f64);
        report.set(
            "obs.trace_overhead",
            median(&traced_walls) / median(&untraced_walls) - 1.0,
        );
        report.note(format!(
            "{NAME}: stage times are medians over {} traced passes",
            traced_passes.len()
        ));
        report.conserve(
            "compile stages / cold Program::build",
            median(&build_path_ratios),
            0.85,
            1.15,
        );
    }
}
