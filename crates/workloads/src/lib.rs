//! # soff-workloads
//!
//! The benchmark suite of the SOFF evaluation (§VI-A): 19 SPEC ACCEL
//! stand-ins and 15 PolyBench applications, each with deterministic input
//! generation, a host driver written against the [`runner::Runner`]
//! abstraction, and a host-side reference used to verify results — the
//! ingredients of Table II, Fig. 11, and Fig. 12. The [`stencil`] module
//! adds the temporally-blocked stencil family used to evaluate the
//! sliding-window line-buffer path (DESIGN.md §13).

pub mod data;
pub mod journal;
pub mod polybench;
pub mod runner;
pub mod spec;
pub mod stencil;
pub mod sweep;

use data::Scale;
use runner::{BufId, RunError, Runner, SimRunner};
use soff_baseline::{Framework, Outcome};
use std::fmt;

/// The benchmark suite an application belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// SPEC ACCEL (complicated OpenCL features).
    SpecAccel,
    /// PolyBench (simple kernels).
    PolyBench,
    /// The stencil family used to evaluate the sliding-window line
    /// buffer (DESIGN.md §13): a plain jacobi plus temporally-blocked
    /// variants of the PolyBench stencils.
    Stencil,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::SpecAccel => f.write_str("SPEC ACCEL"),
            Suite::PolyBench => f.write_str("PolyBench"),
            Suite::Stencil => f.write_str("Stencil"),
        }
    }
}

/// The Table II feature columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Uses `__local` memory (column L).
    pub local: bool,
    /// Uses work-group barriers (column B).
    pub barrier: bool,
    /// Uses atomic operations (column A).
    pub atomics: bool,
    /// Contains a compiler-detected sliding window (column W): a group
    /// of constant-offset `__global` loads the line buffer can serve
    /// from shift registers instead of cache ports (DESIGN.md §13).
    pub window: bool,
}

/// One benchmark application. `Copy`: the fields are static references
/// and a function pointer, so sweep cells can carry apps by value.
#[derive(Clone, Copy)]
pub struct App {
    /// The paper's benchmark name (e.g. `"117.bfs"`).
    pub name: &'static str,
    /// Which suite it belongs to.
    pub suite: Suite,
    /// Feature usage (Table II columns L/B/A).
    pub features: Features,
    /// The OpenCL C source of all its kernels.
    pub source: &'static str,
    /// The host program: generates inputs, launches kernels, validates
    /// outputs against the internal reference. Returns whether the device
    /// produced the correct answer.
    pub run: fn(&mut dyn Runner, Scale) -> Result<bool, RunError>,
}

impl fmt::Debug for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("App")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("features", &self.features)
            .finish()
    }
}

/// All 39 applications: the paper's 34 (SPEC ACCEL first, Table II row
/// order) followed by the blocked-stencil family.
pub fn all_apps() -> Vec<App> {
    let mut v = spec::apps();
    v.extend(polybench::apps());
    v.extend(stencil::apps());
    v
}

/// Reconstructs the device address of a runner buffer (buffers are
/// allocated in order, and the device encodes `(buffer, offset)` —
/// see `soff_ir::mem::global_addr`). Used by 140.bplustree to store
/// *indirect pointers* in device memory like the real benchmark does.
pub fn device_addr_of(b: BufId) -> u64 {
    soff_ir::mem::global_addr(b.0 as u32, 0)
}

/// The result of executing one application on one framework.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppResult {
    /// The Table II outcome.
    pub outcome: Outcome,
    /// Total device seconds across all launches (0 if it did not run).
    pub seconds: f64,
    /// Total device cycles.
    pub cycles: u64,
    /// Kernel launches performed.
    pub launches: u32,
    /// Datapath replication the framework used (for the Fig. 12 (b)
    /// linear-scaling extrapolation).
    pub replication: u32,
}

/// Compiles and lowers an application source, mapping frontend and
/// lowering failures to the Table II `CE` outcome instead of panicking
/// (the "no user-reachable panics" rule). Successful results are shared
/// process-wide through the compile cache.
///
/// # Errors
///
/// [`Outcome::CompileError`] when the frontend or lowering rejects the
/// source.
pub fn lower_app(
    source: &str,
    defines: &[(String, String)],
) -> Result<std::sync::Arc<soff_ir::ir::Module>, Outcome> {
    soff_runtime::cache::lower_cached(source, defines).map_err(|_| Outcome::CompileError)
}

/// Builds and runs `app` on `fw` exactly as §VI does: vendor known issues
/// first (the closed-source tools crash/hang before producing results),
/// then compile (feature gates, resource model), then execute and verify.
/// The result is deterministic: two runs of the same cell compare equal.
pub fn execute(app: &App, fw: Framework, scale: Scale) -> AppResult {
    let fail = |outcome| AppResult {
        outcome,
        seconds: 0.0,
        cycles: 0,
        launches: 0,
        replication: 0,
    };

    if let Some(issue) = soff_baseline::known_issue(fw, app.name) {
        return fail(issue);
    }
    let mut runner = match SimRunner::new(fw, app.source, &[]) {
        Ok(r) => r,
        Err(outcome) => return fail(outcome),
    };
    let replication = runner.replication();
    // A buggy host program must produce a failure row (Table II `RE`),
    // not abort the whole sweep.
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        (app.run)(&mut runner, scale)
    }));
    match ran {
        Err(_) => fail(Outcome::RuntimeError),
        Ok(run) => match run {
            Ok(true) => AppResult {
                outcome: Outcome::Ok,
                seconds: runner.total_seconds,
                cycles: runner.total_cycles,
                launches: runner.launches,
                replication,
            },
            Ok(false) => fail(Outcome::IncorrectAnswer),
            Err(RunError::Outcome(o)) => fail(o),
            Err(RunError::MissingKernel(_)) => fail(Outcome::CompileError),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_39_apps() {
        // The paper's 34 (19 SPEC + 15 Poly) plus the 5-app stencil
        // family evaluating the line-buffer path.
        let apps = all_apps();
        assert_eq!(apps.len(), 39);
        assert_eq!(apps.iter().filter(|a| a.suite == Suite::SpecAccel).count(), 19);
        assert_eq!(apps.iter().filter(|a| a.suite == Suite::PolyBench).count(), 15);
        assert_eq!(apps.iter().filter(|a| a.suite == Suite::Stencil).count(), 5);
    }

    #[test]
    fn names_are_unique() {
        let apps = all_apps();
        let mut names: Vec<_> = apps.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 39);
    }

    #[test]
    fn polybench_is_featureless() {
        for a in polybench::apps() {
            assert!(
                !a.features.local && !a.features.barrier && !a.features.atomics,
                "{} must be plain",
                a.name
            );
        }
    }

    #[test]
    fn declared_features_match_compiled_kernels() {
        // The L/B/A/W columns must agree with what the compiler finds.
        let mut bad = Vec::new();
        for a in all_apps() {
            let module = lower_app(a.source, &[]).unwrap_or_else(|o| {
                panic!("{}: compilation failed ({})", a.name, o.code())
            });
            let local = module.kernels.iter().any(|k| k.uses_local);
            let barrier = module.kernels.iter().any(|k| k.uses_barrier);
            let atomics = module.kernels.iter().any(|k| k.uses_atomics);
            let window =
                module.kernels.iter().any(|k| !soff_ir::window::detect(k).is_empty());
            for (col, got, want) in [
                ("L", local, a.features.local),
                ("B", barrier, a.features.barrier),
                ("A", atomics, a.features.atomics),
                ("W", window, a.features.window),
            ] {
                if got != want {
                    bad.push(format!("{}: {col} column (compiled: {got})", a.name));
                }
            }
        }
        assert!(bad.is_empty(), "feature columns disagree:\n{}", bad.join("\n"));
    }

    #[test]
    fn all_kernels_verify() {
        for a in all_apps() {
            let module = lower_app(a.source, &[]).unwrap_or_else(|o| {
                panic!("{}: compilation failed ({})", a.name, o.code())
            });
            for k in &module.kernels {
                soff_ir::verify::verify(k)
                    .unwrap_or_else(|e| panic!("{} kernel {}: {e}", a.name, k.name));
            }
        }
    }

    #[test]
    fn lower_app_maps_failure_to_outcome() {
        // A broken source must surface as a Table II `CE` outcome, not a
        // panic — the sweep engine turns it into a failure row.
        let got = lower_app("__kernel void k() { undeclared = 1; }", &[]);
        assert_eq!(got.err(), Some(Outcome::CompileError));
    }
}
