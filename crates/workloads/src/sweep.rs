//! The parallel sweep driver: fans app × framework cells across the
//! `soff-exec` work-stealing pool and reassembles results in
//! deterministic input order.
//!
//! Every cell is an independent simulation — it builds (or fetches from
//! the compile cache) its own program, allocates its own context and
//! global memory, and verifies its own outputs — so cells can run on
//! any thread in any order without observable effect. The driver adds
//! two optimizations on top of the raw pool:
//!
//! * **Identical-cell memoization** ([`SweepOptions::dedup`]): the §VI
//!   evaluation re-runs the same (app, framework, scale) cell in
//!   several tables/figures (Table II, Fig. 11, and Fig. 12 all execute
//!   the SOFF column). Cells are deterministic (seeded inputs, exact
//!   simulation), so duplicates of an executed cell can share its
//!   result. The differential tests pin this soundness claim down: a
//!   deduplicated parallel sweep digests byte-identically to the plain
//!   sequential one.
//! * **Panic containment**: a pool-level task panic (i.e. a bug that
//!   escapes [`execute`]'s own `catch_unwind`) becomes a per-cell
//!   failure row with the panic message attached, never a torn-down
//!   sweep.
//!
//! `jobs = 1` with `dedup` off executes the cells in input order on the
//! calling thread — exactly the sequential loop the bench bins used to
//! contain.

use crate::data::Scale;
use crate::journal::{self, Journal, JournalError, Record};
use crate::{execute, App, AppResult};
use soff_baseline::{Framework, Outcome};
use soff_exec::{CancelFlag, RetryPolicy, TaskCtx, TaskError, TaskOptions};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

    /// The memoization identity of this cell. Apps are identified by
    /// their (unique, static) name; the host program and source are
    /// functions of it. Defines are not part of a [`Cell`] — cells
    /// always build with the app's source verbatim.
    fn key(&self) -> (&'static str, Framework, Scale) {
        (self.app.name, self.fw, self.scale)
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
    /// `Some(i)` when this cell's result was shared from the identical
    /// cell at input index `i` instead of being re-executed.
    pub memo_of: Option<usize>,
    /// Attempts the cell took under [`SweepOptions::retry`] (1 = first
    /// try, whether fresh or replayed).
    pub attempts: u32,
    /// The result was replayed from the resume journal instead of
    /// executed.
    pub from_journal: bool,
    /// The cell never ran: the sweep was cancelled before it started.
    /// Its row is a placeholder and the sweep output is partial.
    pub cancelled: bool,
}

/// How to run a sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads; 1 runs sequentially on the caller's thread.
    pub jobs: usize,
    /// Share results between identical cells instead of re-executing.
    pub dedup: bool,
    /// Crash-recovery journal: completed cells are durably appended to
    /// this file, and an existing file (from a killed run of the *same*
    /// sweep) is replayed first, skipping its cells. Only honored by the
    /// fallible entry points ([`run_cells_resumable`],
    /// [`run_suite_resumable`]).
    pub journal: Option<PathBuf>,
    /// Pool-wide cooperative cancellation: raised mid-sweep, cells that
    /// have not started come back as `cancelled` placeholder rows.
    pub cancel: Option<CancelFlag>,
    /// Retry cells whose outcome is transient (`RE`/`H` — e.g. wedged by
    /// an injected fault window) with bounded deterministic backoff.
    pub retry: Option<RetryPolicy>,
    /// Wall-clock budget per cell, bounding retries.
    pub task_deadline: Option<Duration>,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            jobs: soff_exec::default_jobs(),
            dedup: true,
            journal: None,
            cancel: None,
            retry: None,
            task_deadline: None,
        }
    }
}

impl SweepOptions {
    /// The exact legacy path: one cell after another, every duplicate
    /// re-executed.
    pub fn sequential() -> SweepOptions {
        SweepOptions { jobs: 1, dedup: false, ..SweepOptions::default() }
    }
}

/// The journal/replay key of a cell (`Debug` renderings are stable for
/// these field-less enums).
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
/// scale, cell order) must go through [`Cell::key`] and therefore this
/// hash.
pub fn sweep_identity(cells: &[Cell]) -> u64 {
    let mut desc = String::new();
    for cell in cells {
        let (app, fw, scale) = key_strings(cell);
        writeln!(desc, "{app}|{fw}|{scale}").expect("writing to a String cannot fail");
    }
    journal::fnv1a(desc.as_bytes())
}

/// The placeholder row for a cell that produced no value (contained
/// panic, or cancelled before it started).
fn failure_row() -> AppResult {
    AppResult {
        outcome: Outcome::RuntimeError,
        seconds: 0.0,
        cycles: 0,
        launches: 0,
        replication: 0,
    }
}

/// A sweep cell's transient-failure predicate for the retry policy:
/// wedges and runtime errors can be injected-fault artifacts a later
/// attempt dodges; compile errors, wrong answers, and capacity failures
/// are deterministic and retrying them is wasted work.
fn transient(r: &AppResult) -> bool {
    matches!(r.outcome, Outcome::RuntimeError | Outcome::Hang)
}

/// Runs every cell and returns results **in input order**, honoring
/// every [`SweepOptions`] knob except the journal (see
/// [`run_cells_resumable`]). Infallible, like the sequential loop it
/// replaces: failures become per-cell rows.
pub fn run_cells(cells: &[Cell], opts: &SweepOptions) -> Vec<CellResult> {
    let opts = SweepOptions { journal: None, ..opts.clone() };
    run_cells_with(cells, &opts, |cell, _| execute(&cell.app, cell.fw, cell.scale))
        .expect("a journal-free sweep cannot fail")
}

/// [`run_cells`] with crash recovery: when [`SweepOptions::journal`] is
/// set, completed cells are durably appended to the journal as they
/// finish, and an existing journal from a killed run of the same sweep
/// is replayed first (its cells are skipped, byte-identically). The
/// executor is [`execute`]; tests inject their own via
/// [`run_cells_with`].
///
/// # Errors
///
/// [`JournalError`] when the journal cannot be written, belongs to a
/// different sweep, or is damaged beyond a torn tail.
pub fn run_cells_resumable(
    cells: &[Cell],
    opts: &SweepOptions,
) -> Result<Vec<CellResult>, JournalError> {
    run_cells_with(cells, opts, |cell, _| execute(&cell.app, cell.fw, cell.scale))
}

/// The sweep engine, generic over the per-cell executor (the injection
/// point for the crash-recovery tests). The executor receives the cell
/// and the pool's [`TaskCtx`] (attempt number, cancel flag, deadline).
///
/// # Errors
///
/// [`JournalError`] — only when [`SweepOptions::journal`] is set.
pub fn run_cells_with<F>(
    cells: &[Cell],
    opts: &SweepOptions,
    exec: F,
) -> Result<Vec<CellResult>, JournalError>
where
    F: Fn(&Cell, &TaskCtx) -> AppResult + Sync,
{
    // Pick the representative (first occurrence) of each identity.
    let mut rep_of_key: HashMap<(&'static str, Framework, Scale), usize> = HashMap::new();
    let mut rep_index: Vec<usize> = Vec::with_capacity(cells.len()); // cell -> representative cell
    let mut unique: Vec<usize> = Vec::with_capacity(cells.len()); // representative cells, input order
    for (i, cell) in cells.iter().enumerate() {
        if opts.dedup {
            let rep = *rep_of_key.entry(cell.key()).or_insert_with(|| {
                unique.push(i);
                i
            });
            rep_index.push(rep);
        } else {
            unique.push(i);
            rep_index.push(i);
        }
    }

    // Crash recovery: replay an existing journal (same sweep identity),
    // truncate any torn tail, then open it for appending; or start a
    // fresh one. `Journal::recover` does all three — appending directly
    // after a torn tail would merge the next record into the partial
    // line and poison a later resume. Replayed representatives are
    // skipped below.
    let mut replayed: HashMap<(String, String, String), Record> = HashMap::new();
    let journal = match &opts.journal {
        Some(path) => {
            let (records, journal) = Journal::recover(path, sweep_identity(cells))?;
            for r in records {
                // Last record wins: duplicate appends (e.g. a retry
                // race at a kill point) are harmless.
                replayed.insert(r.key(), r);
            }
            Some(journal)
        }
        None => None,
    };

    let todo: Vec<usize> = unique
        .iter()
        .copied()
        .filter(|&i| !replayed.contains_key(&key_strings(&cells[i])))
        .collect();
    let work: Vec<Cell> = todo.iter().map(|&i| cells[i]).collect();

    let topts = TaskOptions {
        cancel: opts.cancel.clone(),
        task_deadline: opts.task_deadline,
        retry: opts.retry,
    };
    // A journal append failing mid-sweep must surface as a typed error,
    // not silently downgrade durability; the first failure wins.
    let append_error: Mutex<Option<JournalError>> = Mutex::new(None);
    let retry = opts.retry;
    let executed = soff_exec::run_tasks_ctl(
        opts.jobs,
        &work,
        &topts,
        |_, cell, ctx| {
            let r = exec(cell, ctx);
            if let Some(j) = &journal {
                // Journal only final attempts: if the pool is about to
                // retry this transient value, the cell has not completed.
                // (The pool re-checks deadline/cancel after us; if it
                // settles where we predicted a retry, the cell is merely
                // missing from the journal and re-runs on resume — safe.)
                let max_attempts = retry.map_or(1, |p| p.max_attempts.max(1));
                let will_retry = ctx.attempt < max_attempts
                    && transient(&r)
                    && !ctx.is_cancelled()
                    && ctx.deadline.is_none_or(|d| Instant::now() < d);
                if !will_retry {
                    let (app, fw, scale) = key_strings(cell);
                    let rec = Record {
                        app,
                        fw,
                        scale,
                        result: r,
                        panicked: false,
                        attempts: ctx.attempt,
                    };
                    if let Err(e) = j.append(&rec) {
                        let mut slot = append_error.lock().unwrap_or_else(|e| e.into_inner());
                        slot.get_or_insert(e);
                    }
                }
            }
            r
        },
        transient,
    );
    if let Some(e) = append_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }

    enum Settled {
        Ran(AppResult, u32),
        Panicked(String),
        Cancelled,
    }
    let mut by_rep: HashMap<usize, Settled> = HashMap::with_capacity(unique.len());
    for (slot, &cell_index) in todo.iter().enumerate() {
        let settled = match &executed[slot] {
            Ok(c) => Settled::Ran(c.value, c.attempts),
            Err(TaskError::Panicked { message }) => {
                if let Some(j) = &journal {
                    // A contained panic is still a completed (failed)
                    // cell: journal it post-hoc so a resume does not
                    // re-run a deterministic crash. Best-effort ordering
                    // (the sweep is already past its kill window here).
                    let (app, fw, scale) = key_strings(&cells[cell_index]);
                    let rec = Record {
                        app,
                        fw,
                        scale,
                        result: failure_row(),
                        panicked: true,
                        attempts: 1,
                    };
                    j.append(&rec)?;
                }
                Settled::Panicked(message.clone())
            }
            Err(TaskError::Cancelled) => Settled::Cancelled,
        };
        by_rep.insert(cell_index, settled);
    }

    let rows: Vec<CellResult> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let rep = rep_index[i];
            let memo_of = (rep != i).then_some(rep);
            if let Some(rec) = replayed.get(&key_strings(cell)) {
                return CellResult {
                    app: cell.app.name,
                    fw: cell.fw,
                    result: rec.result,
                    panic: rec.panicked.then(|| "(panic replayed from journal)".to_string()),
                    memo_of,
                    attempts: rec.attempts,
                    from_journal: true,
                    cancelled: false,
                };
            }
            let (result, panic, attempts, cancelled) = match &by_rep[&rep] {
                Settled::Ran(r, attempts) => (*r, None, *attempts, false),
                // A contained pool-level panic: the sweep keeps going,
                // this cell becomes a runtime-error row.
                Settled::Panicked(message) => (failure_row(), Some(message.clone()), 1, false),
                Settled::Cancelled => (failure_row(), None, 0, true),
            };
            CellResult {
                app: cell.app.name,
                fw: cell.fw,
                result,
                panic,
                memo_of,
                attempts,
                from_journal: false,
                cancelled,
            }
        })
        .collect();
    record_sweep_metrics(&rows);
    Ok(rows)
}

/// Folds one finished sweep into the global `soff-obs` counters: cells
/// that produced a row (done), cells that needed more than one attempt
/// (retried), and cells served from a resume journal instead of
/// re-executing (resumed).
fn record_sweep_metrics(rows: &[CellResult]) {
    let r = soff_obs::global();
    let done = rows.iter().filter(|c| !c.cancelled).count() as u64;
    let retried = rows.iter().filter(|c| c.attempts > 1).count() as u64;
    let resumed = rows.iter().filter(|c| c.from_journal).count() as u64;
    r.counter("soff_sweep_cells_done_total", &[]).add(done);
    r.counter("soff_sweep_cells_retried_total", &[]).add(retried);
    r.counter("soff_sweep_cells_resumed_total", &[]).add(resumed);
}

/// Runs the full `apps` × `frameworks` grid (app-major, matching the
/// Table II row order) and returns one [`CellResult`] per cell in that
/// order.
pub fn run_suite_parallel(
    apps: &[App],
    frameworks: &[Framework],
    scale: Scale,
    opts: &SweepOptions,
) -> Vec<CellResult> {
    let cells: Vec<Cell> = apps
        .iter()
        .flat_map(|app| frameworks.iter().map(|&fw| Cell::new(*app, fw, scale)))
        .collect();
    run_cells(&cells, opts)
}

/// [`run_suite_parallel`] with crash recovery: honors
/// [`SweepOptions::journal`] (see [`run_cells_resumable`]).
///
/// # Errors
///
/// [`JournalError`] when the resume journal is unwritable, stale, or
/// damaged beyond a torn tail.
pub fn run_suite_resumable(
    apps: &[App],
    frameworks: &[Framework],
    scale: Scale,
    opts: &SweepOptions,
) -> Result<Vec<CellResult>, JournalError> {
    let cells: Vec<Cell> = apps
        .iter()
        .flat_map(|app| frameworks.iter().map(|&fw| Cell::new(*app, fw, scale)))
        .collect();
    run_cells_resumable(&cells, opts)
}

/// Canonical rendering of a sweep's *deterministic* content: one JSON
/// line per cell covering every field two runs of the same cell must
/// agree on (outcome, device seconds/cycles, launches, replication,
/// whether the cell panicked). Panic messages and memoization provenance
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
    journal::fnv1a(digest(results).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_apps;

    fn polybench_pair() -> Vec<App> {
        all_apps().into_iter().filter(|a| a.name == "atax" || a.name == "bicg").collect()
    }

    #[test]
    fn dedup_shares_results_between_identical_cells() {
        let apps = polybench_pair();
        let cells = vec![
            Cell::new(apps[0], Framework::Soff, Scale::Small),
            Cell::new(apps[1], Framework::Soff, Scale::Small),
            Cell::new(apps[0], Framework::Soff, Scale::Small), // dup of 0
        ];
        let results =
            run_cells(&cells, &SweepOptions { jobs: 2, dedup: true, ..SweepOptions::default() });
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].memo_of, None);
        assert_eq!(results[2].memo_of, Some(0), "third cell shares the first's result");
        assert_eq!(results[0].result, results[2].result);
    }

    #[test]
    fn sequential_and_parallel_digests_agree() {
        let apps = polybench_pair();
        let fws = [Framework::Soff, Framework::IntelLike];
        let seq = run_suite_parallel(&apps, &fws, Scale::Small, &SweepOptions::sequential());
        let par = run_suite_parallel(
            &apps,
            &fws,
            Scale::Small,
            &SweepOptions { jobs: 4, dedup: true, ..SweepOptions::default() },
        );
        assert_eq!(digest(&seq), digest(&par));
    }
}
