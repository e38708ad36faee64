//! The parallel sweep driver: fans app × framework cells across the
//! `soff-exec` pool and returns their results in input order.
//!
//! Every cell is an independent simulation — it builds (or fetches from
//! the compile cache) its own program, allocates its own context and
//! global memory, and verifies its own outputs — so cells can run on
//! any thread in any order without observable effect. Every cell runs:
//! a sweep that lists the same cell twice executes it twice (the
//! compile cache still shares its build).
//!
//! * **Panic containment**: a pool-level task panic (a bug that escapes
//!   [`execute`]'s own `catch_unwind`) becomes a per-cell `RE` row with
//!   the panic message attached, never a torn-down sweep.
//! * **Crash recovery** ([`SweepOptions::journal`]): each completed cell
//!   is durably appended to the journal, and a journal left by a killed
//!   run of the same sweep is replayed first, its cells skipped (see
//!   [`crate::journal`]).
//!
//! `jobs = 1` executes the cells in input order on the calling thread —
//! exactly the sequential loop the bench bins used to contain.

use crate::data::Scale;
use crate::journal::{Journal, JournalError, Record};
use crate::{execute, App, AppResult};
use soff_baseline::{Framework, Outcome};
use soff_exec::TaskError;
use soff_obs::{fnv1a, FNV_OFFSET};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// One sweep cell: run `app` on `fw` at `scale`.
#[derive(Clone, Copy)]
pub struct Cell {
    /// The application.
    pub app: App,
    /// The framework executing it.
    pub fw: Framework,
    /// The problem size.
    pub scale: Scale,
}

impl Cell {
    /// Builds a cell.
    pub fn new(app: App, fw: Framework, scale: Scale) -> Cell {
        Cell { app, fw, scale }
    }
}

/// The outcome of one cell, tagged with enough identity to print a row.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Application name.
    pub app: &'static str,
    /// Framework the cell ran on.
    pub fw: Framework,
    /// The execution result (a failure row if the task panicked).
    pub result: AppResult,
    /// The panic message, when the pool had to contain a task panic.
    pub panic: Option<String>,
    /// The result was replayed from the resume journal instead of
    /// executed.
    pub from_journal: bool,
}

/// How to run a sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads; 1 runs sequentially on the caller's thread.
    pub jobs: usize,
    /// Crash-recovery journal: completed cells are durably appended to
    /// this file, and an existing file (from a killed run of the *same*
    /// sweep) is replayed first, skipping its cells.
    pub journal: Option<PathBuf>,
}

/// The journal/replay key of a cell (`Debug` renderings are stable for
/// these field-less enums). Apps are identified by their (unique,
/// static) name; the host program and source are functions of it.
fn key_strings(cell: &Cell) -> (String, String, String) {
    (cell.app.name.to_string(), format!("{:?}", cell.fw), format!("{:?}", cell.scale))
}

/// The identity of a sweep: the FNV-1a hash of its ordered cell keys. A
/// resume journal must carry this exact identity — a journal from a
/// different sweep (different cells or a different order) is stale.
///
/// **What is deliberately *excluded*:** run-control knobs — the
/// simulator scheduler ([`soff_sim::Scheduler`]) and the preemption
/// checkpoint interval (`Context::checkpoint_interval`), and with them
/// the serve layer's slice length. The determinism contract (enforced by
/// the `checkpoint_apps` and serve test suites) makes every digest-
/// visible field of an [`AppResult`] invariant under those knobs, so a
/// journal written under one configuration is *valid* to resume under
/// another: rows replayed from the journal and rows recomputed under the
/// new knobs combine into the same digest an uninterrupted run produces.
/// Keying them would needlessly strand journals across a knob change;
/// the `resume_across_run_control_knob_change` regression test pins this
/// invariant. Anything that *does* change results (app set, framework,
/// scale, cell order) must go through `key_strings` and therefore this
/// hash.
pub fn sweep_identity(cells: &[Cell]) -> u64 {
    let mut desc = String::new();
    for cell in cells {
        let (app, fw, scale) = key_strings(cell);
        writeln!(desc, "{app}|{fw}|{scale}").expect("writing to a String cannot fail");
    }
    fnv1a(FNV_OFFSET, desc.as_bytes())
}

/// The full `apps` × `frameworks` grid at one scale, app-major (the
/// Table II row order).
pub fn grid(apps: &[App], frameworks: &[Framework], scale: Scale) -> Vec<Cell> {
    apps.iter().flat_map(|app| frameworks.iter().map(|&fw| Cell::new(*app, fw, scale))).collect()
}

/// Runs every cell through [`execute`] and returns results **in input
/// order**. Failures become per-cell rows, never an error; with
/// [`SweepOptions::journal`] set, the sweep journals and resumes as the
/// module docs describe.
///
/// # Errors
///
/// [`JournalError`] — only with a journal — when it cannot be written,
/// belongs to a different sweep, or is damaged beyond a torn tail.
pub fn run_cells(cells: &[Cell], opts: &SweepOptions) -> Result<Vec<CellResult>, JournalError> {
    run_cells_with(cells, opts, |cell| execute(&cell.app, cell.fw, cell.scale))
}

/// [`run_cells`] over a caller-supplied executor (the injection point
/// for the crash-recovery tests).
///
/// # Errors
///
/// As [`run_cells`].
pub fn run_cells_with<F>(
    cells: &[Cell],
    opts: &SweepOptions,
    exec: F,
) -> Result<Vec<CellResult>, JournalError>
where
    F: Fn(&Cell) -> AppResult + Sync,
{
    // `Journal::recover` replays an existing journal of this sweep,
    // truncates any torn tail and reopens it for appending, or starts a
    // fresh one. Last record wins: a cell journaled twice is harmless.
    let (replayed, journal): (HashMap<_, Record>, _) = match &opts.journal {
        Some(path) => {
            let (records, journal) = Journal::recover(path, sweep_identity(cells))?;
            (records.into_iter().map(|r| (r.key(), r)).collect(), Some(journal))
        }
        None => (HashMap::new(), None),
    };
    let record = |cell: &Cell, result: AppResult, panicked: bool| {
        let (app, fw, scale) = key_strings(cell);
        Record { app, fw, scale, result, panicked, attempts: 1 }
    };

    let keys: Vec<_> = cells.iter().map(key_strings).collect();
    let todo: Vec<&Cell> = cells
        .iter()
        .zip(&keys)
        .filter(|(_, k)| !replayed.contains_key(k))
        .map(|(c, _)| c)
        .collect();
    // A journal append failing mid-sweep must surface as a typed error,
    // not silently downgrade durability; the first failure wins.
    let append_error: Mutex<Option<JournalError>> = Mutex::new(None);
    let executed = soff_exec::run_tasks(opts.jobs, todo, |_, cell| {
        let r = exec(cell);
        if let Some(j) = &journal {
            if let Err(e) = j.append(&record(cell, r, false)) {
                append_error.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(e);
            }
        }
        r
    });
    if let Some(e) = append_error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }

    let mut executed = executed.into_iter();
    let mut rows = Vec::with_capacity(cells.len());
    for (cell, key) in cells.iter().zip(&keys) {
        let (result, panic, from_journal) = match replayed.get(key) {
            Some(rec) => {
                (rec.result, rec.panicked.then(|| "(panic replayed from journal)".into()), true)
            }
            None => match executed.next().expect("one pool result per unreplayed cell") {
                Ok(r) => (r, None, false),
                // A contained pool-level panic: the sweep keeps going and
                // this cell becomes a runtime-error row. It is a completed
                // (failed) cell, so it is journaled too: a resume must not
                // re-run a deterministic crash.
                Err(TaskError::Panicked { message }) => {
                    let failed = AppResult {
                        outcome: Outcome::RuntimeError,
                        seconds: 0.0,
                        cycles: 0,
                        launches: 0,
                        replication: 0,
                    };
                    if let Some(j) = &journal {
                        j.append(&record(cell, failed, true))?;
                    }
                    (failed, Some(message), false)
                }
            },
        };
        rows.push(CellResult { app: cell.app.name, fw: cell.fw, result, panic, from_journal });
    }
    record_sweep_metrics(&rows);
    Ok(rows)
}

/// Folds one finished sweep into the global `soff-obs` counters: cells
/// that produced a row (done) and cells served from a resume journal
/// instead of re-executing (resumed).
fn record_sweep_metrics(rows: &[CellResult]) {
    let r = soff_obs::global();
    let resumed = rows.iter().filter(|c| c.from_journal).count() as u64;
    r.counter("soff_sweep_cells_done_total", &[]).add(rows.len() as u64);
    r.counter("soff_sweep_cells_resumed_total", &[]).add(resumed);
}

/// Canonical rendering of a sweep's *deterministic* content: one JSON
/// line per cell covering every field two runs of the same cell must
/// agree on (outcome, device seconds/cycles, launches, replication,
/// whether the cell panicked). Panic messages and journal provenance
/// are excluded — they legitimately vary between runs. Two sweeps over
/// the same cells are correct iff their digests are byte-identical,
/// which is exactly what the differential tests assert.
pub fn digest(results: &[CellResult]) -> String {
    let mut out = String::new();
    for r in results {
        // f64 `{}` formatting is Rust's shortest round-trip form:
        // deterministic for a deterministic value.
        writeln!(
            out,
            "{{\"app\":\"{}\",\"fw\":\"{}\",\"outcome\":\"{}\",\"seconds\":{},\
             \"cycles\":{},\"launches\":{},\"replication\":{},\"panicked\":{}}}",
            r.app,
            r.fw,
            r.result.outcome.code(),
            r.result.seconds,
            r.result.cycles,
            r.result.launches,
            r.result.replication,
            r.panic.is_some(),
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// The FNV-1a hash of [`digest`] — the one-line fingerprint the bench
/// bins print (`--digest`) so the CI crash-recovery smoke can compare a
/// killed-and-resumed sweep against an uninterrupted one with `grep`.
pub fn digest_fingerprint(results: &[CellResult]) -> u64 {
    fnv1a(FNV_OFFSET, digest(results).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_apps;

    fn polybench_pair() -> Vec<App> {
        all_apps().into_iter().filter(|a| a.name == "atax" || a.name == "bicg").collect()
    }

    #[test]
    fn sequential_and_parallel_digests_agree() {
        let cells = grid(&polybench_pair(), &[Framework::Soff, Framework::IntelLike], Scale::Small);
        let run = |jobs| {
            run_cells(&cells, &SweepOptions { jobs, journal: None })
                .expect("a journal-free sweep cannot fail")
        };
        assert_eq!(digest(&run(1)), digest(&run(4)));
    }
}
