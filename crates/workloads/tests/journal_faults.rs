//! Torn journal appends end to end through the injectable shim
//! (`journal::set_journal_faults`), and the `Journal::recover`
//! truncate-then-append discipline that makes a torn tail survivable
//! across *multiple* restarts.
//!
//! Regression context: resume used to `replay` (tolerating a torn tail)
//! and then `append_to` (blind O_APPEND), so the first post-crash append
//! glued onto the torn line and produced a record the *next* replay
//! rejected as mid-file corruption. `recover` truncates the tail first.
//!
//! The shim is process-global, so the tests serialise on one mutex and
//! clear the plan before releasing it.

use soff_workloads::journal::{self, Journal, JournalFaults, Record};
use soff_workloads::AppResult;
use soff_baseline::Outcome;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static GATE: Mutex<()> = Mutex::new(());
static SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "soff-journal-faults-{}-{tag}-{}.journal",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn record(app: &str, cycles: u64) -> Record {
    Record {
        app: app.to_string(),
        fw: "Soff".to_string(),
        scale: "Small".to_string(),
        result: AppResult {
            outcome: Outcome::Ok,
            seconds: cycles as f64 * 1e-9,
            cycles,
            launches: 1,
            replication: 1,
        },
        panicked: false,
        attempts: 1,
    }
}

#[test]
fn torn_append_is_reported_truncated_and_survives_repeated_restarts() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let path = fresh_path("torn");
    const IDENTITY: u64 = 0x5eed;

    // Session 1: two clean appends, then a torn third (the "crash").
    let j = Journal::create(&path, IDENTITY).unwrap();
    j.append(&record("a", 100)).unwrap();
    j.append(&record("b", 200)).unwrap();
    // Append-op indices count from the set call: the very next append
    // is op 0.
    journal::set_journal_faults(Some(JournalFaults { torn_appends: vec![0] }));
    let err = j.append(&record("c", 300)).expect_err("torn append must surface");
    assert!(err.to_string().contains("torn"), "got: {err}");
    assert_eq!(journal::injected_journal_faults(), 1);
    journal::set_journal_faults(None);
    drop(j);

    // Session 2: recover sees only the intact records AND truncates the
    // torn tail, so its own appends land on a clean boundary.
    let (replayed, j2) = Journal::recover(&path, IDENTITY).unwrap();
    assert_eq!(replayed.len(), 2, "torn record must not replay: {replayed:?}");
    assert_eq!(replayed[0].app, "a");
    assert_eq!(replayed[1].app, "b");
    j2.append(&record("c", 300)).unwrap();
    j2.append(&record("d", 400)).unwrap();
    drop(j2);

    // Session 3: all four records are intact — this is exactly the
    // sequence that used to corrupt the journal (append after torn tail).
    let (replayed, _j3) = Journal::recover(&path, IDENTITY).unwrap();
    let apps: Vec<&str> = replayed.iter().map(|r| r.app.as_str()).collect();
    assert_eq!(apps, ["a", "b", "c", "d"]);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_append_of_a_run_can_tear_and_nothing_is_lost_but_the_tails() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let path = fresh_path("all-torn");
    const IDENTITY: u64 = 0xfacade;

    // Crash loop: each "session" recovers, appends its next record, and
    // the append tears every single time. Progress still accretes
    // because recover truncates exactly one torn tail per restart and
    // the *re-append* of the lost record succeeds before the next one
    // tears.
    let mut confirmed = 0usize;
    for session in 0..4u64 {
        let (replayed, j) = Journal::recover(&path, IDENTITY).unwrap();
        assert_eq!(replayed.len(), confirmed, "session {session}");
        // Re-append whatever the last session lost, cleanly.
        journal::set_journal_faults(None);
        if replayed.len() < session as usize {
            for missing in replayed.len()..session as usize {
                j.append(&record(&format!("app{missing}"), missing as u64 + 1)).unwrap();
                confirmed += 1;
            }
        }
        // This session's own new record tears.
        journal::set_journal_faults(Some(JournalFaults { torn_appends: vec![0] }));
        let _ = j.append(&record(&format!("app{session}"), session + 1));
        journal::set_journal_faults(None);
    }

    let (replayed, _j) = Journal::recover(&path, IDENTITY).unwrap();
    assert_eq!(replayed.len(), 3, "sessions 0..3's records, re-appended by 1..4");
    for (i, r) in replayed.iter().enumerate() {
        assert_eq!(r.app, format!("app{i}"));
        assert_eq!(r.result.cycles, i as u64 + 1);
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_header_restart_is_survivable() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let path = fresh_path("torn-header");
    const IDENTITY: u64 = 0xbead;

    // A crash mid-`create` leaves a partial header with no newline.
    std::fs::write(&path, "soff-sweep-journal v1 00").unwrap();
    let (replayed, j) = Journal::recover(&path, IDENTITY).unwrap();
    assert!(replayed.is_empty());
    j.append(&record("x", 7)).unwrap();
    drop(j);

    let (replayed, _j) = Journal::recover(&path, IDENTITY).unwrap();
    assert_eq!(replayed.len(), 1);
    assert_eq!(replayed[0].app, "x");

    let _ = std::fs::remove_file(&path);
}
