//! Crash-recovery suite for the resumable sweep engine: a sweep killed
//! at *any* point and resumed from its journal must reproduce the
//! uninterrupted sweep digest byte-for-byte; damaged or mismatched
//! journals must surface as typed errors, never panics; retries and
//! cancellation must be observable in the per-cell results.
//!
//! Cells run a synthetic executor (deterministic `AppResult` derived
//! from the cell key) so the suite exercises the journal machinery —
//! replay, torn tails, staleness, retry bookkeeping — without paying
//! for real simulations.

use soff_baseline::{Framework, Outcome};
use soff_exec::{CancelFlag, RetryPolicy, TaskCtx};
use soff_workloads::data::Scale;
use soff_workloads::journal::JournalError;
use soff_workloads::sweep::{digest, run_cells_with, Cell, SweepOptions};
use soff_workloads::{all_apps, AppResult};
use std::fs;
use std::path::PathBuf;
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

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The synthetic executor: a deterministic function of the cell key.
fn fake(cell: &Cell, _ctx: &TaskCtx) -> AppResult {
    let h = fnv(format!("{}|{:?}|{:?}", cell.app.name, cell.fw, cell.scale).as_bytes());
    AppResult {
        outcome: Outcome::Ok,
        seconds: (h % 1000) as f64 / 64.0,
        cycles: h % 100_000,
        launches: (h % 7 + 1) as u32,
        replication: (h % 4 + 1) as u32,
    }
}

fn opts(journal: Option<PathBuf>) -> SweepOptions {
    SweepOptions { jobs: 1, dedup: true, journal, ..SweepOptions::default() }
}

/// The tentpole acceptance criterion: for every kill point `k`, a sweep
/// cancelled after `k` completed cells and resumed from its journal
/// reproduces the uninterrupted digest byte-for-byte.
#[test]
fn killed_sweep_resumed_from_journal_reproduces_digest_at_every_kill_point() {
    let cells = grid();
    let uninterrupted =
        run_cells_with(&cells, &opts(None), fake).expect("journal-free sweep cannot fail");
    let want = digest(&uninterrupted);

    // k = 0 (killed before anything completes) is the pre-cancelled test
    // below; here the cancel fires after the k-th completion.
    for k in 1..cells.len() {
        let path = scratch("kill");
        // Phase 1: the "crashing" run — cancel fires after the k-th cell
        // completes, so exactly k cells reach the journal.
        let cancel = CancelFlag::new();
        let done = AtomicUsize::new(0);
        let phase1 = {
            let mut o = opts(Some(path.clone()));
            o.cancel = Some(cancel.clone());
            run_cells_with(&cells, &o, |cell, ctx| {
                let r = fake(cell, ctx);
                if done.fetch_add(1, Ordering::SeqCst) + 1 == k {
                    cancel.cancel();
                }
                r
            })
            .expect("phase-1 journal writes must succeed")
        };
        let cancelled = phase1.iter().filter(|c| c.cancelled).count();
        assert!(cancelled > 0, "kill point {k}: the sweep must actually be cut short");
        // Partial output is marked as such — every unstarted cell is a
        // placeholder row, not a fabricated result.
        for c in phase1.iter().filter(|c| c.cancelled) {
            assert_eq!(c.result.outcome, Outcome::RuntimeError);
            assert_eq!(c.attempts, 0);
        }

        // Phase 2: resume. Replays the journaled prefix, runs the rest.
        let resumed = run_cells_with(&cells, &opts(Some(path.clone())), fake)
            .expect("resume must replay the journal");
        assert_eq!(
            digest(&resumed),
            want,
            "kill point {k}: resumed sweep diverged from uninterrupted"
        );
        let replayed = resumed.iter().filter(|c| c.from_journal).count();
        assert!(
            replayed >= k.saturating_sub(1),
            "kill point {k}: expected ≈{k} replayed cells, got {replayed}"
        );
        assert!(resumed.iter().all(|c| !c.cancelled), "resume ran to completion");
        let _ = fs::remove_file(&path);
    }
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

/// Transient failures retry up to the policy bound; the per-cell
/// `attempts` count is surfaced, journaled, and replayed.
#[test]
fn transient_cells_retry_and_the_attempt_count_survives_resume() {
    let cells = grid();
    let path = scratch("retry");
    let mut o = opts(Some(path.clone()));
    o.retry = Some(RetryPolicy { max_attempts: 3, base_delay_ms: 0, max_delay_ms: 0, seed: 7 });

    // First two attempts of every cell wedge (`H`); the third succeeds.
    let flaky = |cell: &Cell, ctx: &TaskCtx| {
        if ctx.attempt < 3 {
            AppResult { outcome: Outcome::Hang, ..fake(cell, ctx) }
        } else {
            fake(cell, ctx)
        }
    };
    let ran = run_cells_with(&cells, &o, flaky).unwrap();
    for c in &ran {
        assert_eq!(c.result.outcome, Outcome::Ok, "{}: retry must rescue the cell", c.app);
        assert_eq!(c.attempts, 3, "{}: three attempts recorded", c.app);
    }

    // Resume replays everything — with the attempt counts intact.
    let replayed = run_cells_with(&cells, &opts(Some(path.clone())), fake).unwrap();
    for c in &replayed {
        assert!(c.from_journal, "{}: fully-journaled sweep replays entirely", c.app);
        assert_eq!(c.attempts, 3, "{}: attempts survive the journal round-trip", c.app);
    }
    assert_eq!(digest(&ran), digest(&replayed));
    let _ = fs::remove_file(&path);
}

/// Deterministically failing cells exhaust the retry budget and keep
/// their failure outcome (retrying is bounded, not infinite).
#[test]
fn permanent_failures_exhaust_the_retry_budget() {
    let cells = grid();
    let mut o = opts(None);
    o.retry = Some(RetryPolicy { max_attempts: 2, base_delay_ms: 0, max_delay_ms: 0, seed: 1 });
    let ran = run_cells_with(&cells, &o, |cell, ctx| AppResult {
        outcome: Outcome::RuntimeError,
        ..fake(cell, ctx)
    })
    .unwrap();
    for c in &ran {
        assert_eq!(c.result.outcome, Outcome::RuntimeError);
        assert_eq!(c.attempts, 2, "{}: stopped at the bound", c.app);
    }
}

/// A sweep cancelled before it starts produces only placeholder rows
/// and journals nothing (there is nothing durable to fabricate).
#[test]
fn pre_cancelled_sweep_is_all_placeholders_and_journals_nothing() {
    let cells = grid();
    let path = scratch("precancel");
    let cancel = CancelFlag::new();
    cancel.cancel();
    let mut o = opts(Some(path.clone()));
    o.cancel = Some(cancel);
    let ran = run_cells_with(&cells, &o, fake).unwrap();
    assert!(ran.iter().all(|c| c.cancelled), "every cell is a cancelled placeholder");

    // The journal holds the header only: a later resume runs everything.
    let resumed = run_cells_with(&cells, &opts(Some(path.clone())), fake).unwrap();
    assert!(resumed.iter().all(|c| !c.from_journal));
    assert_eq!(digest(&resumed), digest(&run_cells_with(&cells, &opts(None), fake).unwrap()));
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

    // Ground truth: uninterrupted, dense scheduler, no preemption.
    let baseline = run_cells_with(&cells, &opts(None), |c, _| {
        run(c, Scheduler::Dense, None)
    })
    .unwrap();
    let want = digest(&baseline);

    // Phase 1: journal the first cell under (Dense, uninterrupted), then
    // "crash".
    let path = scratch("knobs");
    let cancel = CancelFlag::new();
    let phase1 = {
        let mut o = opts(Some(path.clone()));
        o.cancel = Some(cancel.clone());
        run_cells_with(&cells, &o, |c, _| {
            let r = run(c, Scheduler::Dense, None);
            cancel.cancel(); // kill after the first completion
            r
        })
        .unwrap()
    };
    assert!(phase1.iter().any(|c| c.cancelled), "phase 1 must be cut short");

    // Phase 2: resume the *same* journal under completely different
    // run-control knobs (fast scheduling, aggressive preemption).
    let resumed = run_cells_with(&cells, &opts(Some(path.clone())), |c, _| {
        run(c, Scheduler::Fast, Some(2048))
    })
    .unwrap();
    assert!(
        resumed.iter().any(|c| c.from_journal),
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
