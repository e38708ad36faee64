//! Crash-recovery suite for the resumable sweep engine: a sweep killed
//! at *any* point and resumed from its journal must reproduce the
//! uninterrupted sweep digest byte-for-byte; damaged or mismatched
//! journals must surface as typed errors, never panics; a contained
//! executor panic must be journaled like any completed cell.
//!
//! Cells run a synthetic executor (deterministic `AppResult` derived
//! from the cell key) so the suite exercises the journal machinery —
//! replay, torn tails, staleness — without paying for real simulations.

use soff_baseline::{Framework, Outcome};
use soff_obs::{fnv1a, FNV_OFFSET};
use soff_workloads::data::Scale;
use soff_workloads::journal::{self, JournalError};
use soff_workloads::sweep::{digest, run_cells_with, sweep_identity, Cell, SweepOptions};
use soff_workloads::{all_apps, AppResult};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh scratch path per call (the suite runs tests concurrently).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("soff-resume-{}-{tag}-{n}.journal", std::process::id()))
}

/// A small, duplicate-free grid of real cells (the executor below never
/// actually simulates them).
fn grid() -> Vec<Cell> {
    let apps: Vec<_> = all_apps()
        .into_iter()
        .filter(|a| matches!(a.name, "atax" | "bicg" | "mvt" | "gesummv"))
        .collect();
    let mut cells = Vec::new();
    for app in &apps {
        for fw in [Framework::Soff, Framework::IntelLike] {
            cells.push(Cell::new(*app, fw, Scale::Small));
        }
    }
    cells
}

/// The synthetic executor: a deterministic function of the cell key.
fn fake(cell: &Cell) -> AppResult {
    let h = fnv1a(FNV_OFFSET, format!("{}|{:?}|{:?}", cell.app.name, cell.fw, cell.scale).as_bytes());
    AppResult {
        outcome: Outcome::Ok,
        seconds: (h % 1000) as f64 / 64.0,
        cycles: h % 100_000,
        launches: (h % 7 + 1) as u32,
        replication: (h % 4 + 1) as u32,
    }
}

fn opts(journal: Option<PathBuf>) -> SweepOptions {
    SweepOptions { jobs: 1, journal }
}

/// Cuts the journal at `path` to its header plus its first `k` records:
/// the file a `kill -9` right after the `k`-th durable append leaves.
fn cut_to_records(path: &Path, k: usize) {
    let text = fs::read_to_string(path).unwrap();
    let kept: String = text.split_inclusive('\n').take(1 + k).collect();
    fs::write(path, kept).unwrap();
}

/// For every kill point `k` — the journal holds its header plus `k`
/// records — a resumed sweep replays exactly those `k` cells, runs the
/// rest, and reproduces the uninterrupted digest byte-for-byte.
#[test]
fn killed_sweep_resumed_from_journal_reproduces_digest_at_every_kill_point() {
    let cells = grid();
    let want = digest(&run_cells_with(&cells, &opts(None), fake).unwrap());
    let complete = scratch("complete");
    run_cells_with(&cells, &opts(Some(complete.clone())), fake).unwrap();
    let journal = fs::read_to_string(&complete).unwrap();
    assert_eq!(journal.lines().count(), 1 + cells.len(), "header plus one record per cell");

    for k in 0..=cells.len() {
        let path = scratch("kill");
        fs::write(&path, &journal).unwrap();
        cut_to_records(&path, k);
        let resumed = run_cells_with(&cells, &opts(Some(path.clone())), fake)
            .expect("resume must replay the journal");
        assert_eq!(
            digest(&resumed),
            want,
            "kill point {k}: resumed sweep diverged from uninterrupted"
        );
        let replayed = resumed.iter().filter(|c| c.from_journal).count();
        assert_eq!(replayed, k, "kill point {k}: exactly the journaled cells replay");
        let _ = fs::remove_file(&path);
    }
    let _ = fs::remove_file(&complete);
}

/// A torn final record (the classic kill-during-append shape) is
/// dropped on replay; the resumed sweep re-runs that cell and still
/// reproduces the uninterrupted digest.
#[test]
fn torn_tail_is_dropped_and_the_cell_re_runs() {
    let cells = grid();
    let want = digest(&run_cells_with(&cells, &opts(None), fake).unwrap());

    let path = scratch("torn");
    run_cells_with(&cells, &opts(Some(path.clone())), fake).unwrap();
    // Tear the last record in half, exactly as a kill mid-`write` would.
    let bytes = fs::read(&path).unwrap();
    let cut = bytes.len() - 9;
    fs::write(&path, &bytes[..cut]).unwrap();

    let resumed = run_cells_with(&cells, &opts(Some(path.clone())), fake).unwrap();
    assert_eq!(digest(&resumed), want, "torn-tail resume diverged");
    assert!(
        resumed.iter().any(|c| !c.from_journal),
        "the torn cell must re-execute, not replay"
    );
    let _ = fs::remove_file(&path);
}

/// A journal from a *different* sweep is a typed `Stale` error — resuming
/// into the wrong grid must never silently mix results.
#[test]
fn journal_from_a_different_sweep_is_a_typed_stale_error() {
    let cells = grid();
    let path = scratch("stale");
    run_cells_with(&cells, &opts(Some(path.clone())), fake).unwrap();

    let mut other = cells.clone();
    other.truncate(3); // different cell set → different identity
    match run_cells_with(&other, &opts(Some(path.clone())), fake) {
        Err(JournalError::Stale { .. }) => {}
        other => panic!("expected JournalError::Stale, got {other:?}"),
    }
    let _ = fs::remove_file(&path);
}

/// Damage *before* the tail is corruption, not a torn write: a typed
/// `Corrupt` error naming the line, never a panic or silent skip.
#[test]
fn mid_file_damage_is_a_typed_corrupt_error() {
    let cells = grid();
    let path = scratch("corrupt");
    run_cells_with(&cells, &opts(Some(path.clone())), fake).unwrap();

    let text = fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 3, "need a record to damage");
    lines[2] = "deadbeefdeadbeef this is not a record";
    fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

    match run_cells_with(&cells, &opts(Some(path.clone())), fake) {
        Err(JournalError::Corrupt { line: 3, .. }) => {}
        other => panic!("expected JournalError::Corrupt at line 3, got {other:?}"),
    }
    let _ = fs::remove_file(&path);
}

/// An executor panic that escapes to the pool becomes an `RE` row
/// carrying the panic message and is journaled as `panicked`, so a
/// resume replays the failure instead of re-running a deterministic
/// crash.
#[test]
fn panicking_cell_is_journaled_and_not_rerun_on_resume() {
    let cells = grid();
    let victim = 3;
    let (victim_app, victim_fw) = (cells[victim].app.name, cells[victim].fw);
    let path = scratch("panic");
    let calls = AtomicUsize::new(0);
    let ran = run_cells_with(&cells, &SweepOptions { jobs: 2, journal: Some(path.clone()) }, |c| {
        calls.fetch_add(1, Ordering::SeqCst);
        if c.app.name == victim_app && c.fw == victim_fw {
            panic!("injected executor bug in {}", c.app.name);
        }
        fake(c)
    })
    .unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), cells.len());
    assert_eq!(ran[victim].result.outcome, Outcome::RuntimeError);
    let message = ran[victim].panic.as_deref().unwrap_or("");
    assert!(message.contains("injected executor bug in"), "panic message lost: {message:?}");
    assert!(
        ran.iter().enumerate().all(|(i, c)| (i == victim) == c.panic.is_some()),
        "only the panicked cell's row carries a panic"
    );

    let records = journal::replay(&path, sweep_identity(&cells)).unwrap();
    assert_eq!(records.len(), cells.len(), "every cell, the panicked one included, is journaled");
    let rec = records
        .iter()
        .find(|r| r.app == victim_app && r.fw == format!("{victim_fw:?}"))
        .expect("the panicked cell has a record");
    assert!(rec.panicked);
    assert_eq!(rec.result.outcome, Outcome::RuntimeError);

    let resumed_calls = AtomicUsize::new(0);
    let resumed = run_cells_with(&cells, &opts(Some(path.clone())), |c| {
        resumed_calls.fetch_add(1, Ordering::SeqCst);
        fake(c)
    })
    .unwrap();
    assert_eq!(resumed_calls.load(Ordering::SeqCst), 0, "a resume must not re-run any cell");
    assert!(resumed.iter().all(|c| c.from_journal));
    assert!(resumed[victim].panic.is_some(), "the replayed row still reads as panicked");
    assert_eq!(digest(&resumed), digest(&ran));
    let _ = fs::remove_file(&path);
}

/// Run-control knobs (simulator scheduler, checkpoint interval) are
/// deliberately *not* part of [`soff_workloads::sweep::sweep_identity`]:
/// the determinism contract makes results invariant under them, so a
/// journal written under one configuration must resume cleanly under
/// another and still reproduce the uninterrupted digest. This pins that
/// invariant with *real* simulations (the synthetic executor above
/// cannot witness it).
#[test]
fn resume_across_run_control_knob_change() {
    use soff_sim::Scheduler;
    use soff_workloads::runner::SimRunner;

    // Two real PolyBench apps, one framework, small scale: enough to be
    // meaningful, cheap enough for a tier-1 suite.
    let apps: Vec<_> =
        all_apps().into_iter().filter(|a| matches!(a.name, "atax" | "bicg")).collect();
    assert_eq!(apps.len(), 2);
    let cells: Vec<Cell> =
        apps.iter().map(|a| Cell::new(*a, Framework::Soff, Scale::Small)).collect();

    // The real executor, parameterized over the run-control knobs.
    let run = |cell: &Cell, scheduler: Scheduler, ckpt: Option<u64>| -> AppResult {
        let mut runner = SimRunner::new(cell.fw, cell.app.source, &[])
            .unwrap_or_else(|o| panic!("{}: build failed ({})", cell.app.name, o.code()));
        runner.set_scheduler(scheduler);
        runner.set_checkpoint_interval(ckpt);
        let correct = (cell.app.run)(&mut runner, cell.scale)
            .unwrap_or_else(|e| panic!("{}: host program failed: {e}", cell.app.name));
        AppResult {
            outcome: if correct { Outcome::Ok } else { Outcome::IncorrectAnswer },
            seconds: runner.total_seconds,
            cycles: runner.total_cycles,
            launches: runner.launches,
            replication: runner.replication(),
        }
    };

    // Ground truth: uninterrupted, dense scheduler, no preemption,
    // journaled. Cutting its journal to the first record is a "crash"
    // after that cell completed under (Dense, uninterrupted).
    let path = scratch("knobs");
    let baseline =
        run_cells_with(&cells, &opts(Some(path.clone())), |c| run(c, Scheduler::Dense, None))
            .unwrap();
    let want = digest(&baseline);
    cut_to_records(&path, 1);

    // Phase 2: resume the *same* journal under completely different
    // run-control knobs (fast scheduling, aggressive preemption).
    let resumed =
        run_cells_with(&cells, &opts(Some(path.clone())), |c| run(c, Scheduler::Fast, Some(2048)))
            .unwrap();
    assert_eq!(
        resumed.iter().filter(|c| c.from_journal).count(),
        1,
        "the knob change must not invalidate the journal"
    );
    assert_eq!(
        digest(&resumed),
        want,
        "digest diverged across a run-control knob change — either the \
         determinism contract broke or a knob leaked into results"
    );
    let _ = fs::remove_file(&path);
}
