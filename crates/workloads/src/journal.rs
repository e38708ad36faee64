//! Crash-recoverable sweep journal: an append-only, fsync'd record of
//! completed sweep cells that a restarted sweep replays to skip work it
//! already did.
//!
//! ## Format
//!
//! Plain text, one record per line:
//!
//! ```text
//! soff-sweep-journal v1 <identity:016x>
//! <fnv1a(payload):016x> <payload>
//! <fnv1a(payload):016x> <payload>
//! ...
//! ```
//!
//! * The **header** carries the sweep identity — an FNV-1a hash over the
//!   ordered cell keys of the sweep. Replaying a journal into a sweep
//!   with a different identity fails with [`JournalError::Stale`]: a
//!   journal is a continuation of *one specific* sweep, never a cache.
//! * Each **record** is a checksum-prefixed `|`-separated payload of the
//!   cell key plus every deterministic result field. Device seconds are
//!   written as the raw `f64` bit pattern in hex, so replayed results are
//!   bit-identical to executed ones (the sweep digest is byte-for-byte
//!   reproducible across a kill/resume).
//! * Appends are flushed and `fsync`'d record-by-record, so a record is
//!   either durable or absent. A **torn tail** — the final line cut short
//!   by a crash mid-write — is tolerated on replay (the half-record is
//!   discarded and its cell re-runs); a corrupt line *before* the tail
//!   means real damage and fails with [`JournalError::Corrupt`].

use crate::AppResult;
use soff_baseline::Outcome;
use soff_obs::{fnv1a, FNV_OFFSET};
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Mutex;

/// Why a journal could not be created, appended to, or replayed.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure (open/write/sync/read).
    Io(std::io::Error),
    /// The journal belongs to a different sweep (different cells or
    /// order): resuming from it would silently mix results.
    Stale {
        /// Identity of the sweep being run.
        expected: u64,
        /// Identity recorded in the journal header.
        found: u64,
    },
    /// A record before the final line is unparsable or fails its
    /// checksum — damage a torn write cannot explain.
    Corrupt {
        /// 1-based line number of the damaged record.
        line: usize,
        /// What was wrong with it.
        what: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Stale { expected, found } => write!(
                f,
                "journal belongs to a different sweep \
                 (journal identity {found:016x}, this sweep is {expected:016x})"
            ),
            JournalError::Corrupt { line, what } => {
                write!(f, "journal corrupt at line {line}: {what}")
            }
        }
    }
}

impl Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One journaled cell: the cell key plus every deterministic result
/// field (host wall time is legitimately nondeterministic and is not
/// journaled; replayed cells report zero wall seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Application name.
    pub app: String,
    /// Framework key (`Debug` rendering, e.g. `Soff`).
    pub fw: String,
    /// Scale key (`Debug` rendering, e.g. `Small`).
    pub scale: String,
    /// The cell's deterministic result.
    pub result: AppResult,
    /// Whether the pool had to contain a task panic for this cell.
    pub panicked: bool,
    /// Attempts the cell took. Sweeps run each cell once and write 1;
    /// the field keeps the v1 record at its ten fields.
    pub attempts: u32,
}

impl Record {
    /// The replay-map key.
    pub fn key(&self) -> (String, String, String) {
        (self.app.clone(), self.fw.clone(), self.scale.clone())
    }

    fn payload(&self) -> String {
        format!(
            "{}|{}|{}|{}|{:016x}|{}|{}|{}|{}|{}",
            self.app,
            self.fw,
            self.scale,
            outcome_code(self.result.outcome),
            self.result.seconds.to_bits(),
            self.result.cycles,
            self.result.launches,
            self.result.replication,
            u8::from(self.panicked),
            self.attempts,
        )
    }

    fn parse(payload: &str) -> Result<Record, String> {
        let parts: Vec<&str> = payload.split('|').collect();
        if parts.len() != 10 {
            return Err(format!("expected 10 fields, found {}", parts.len()));
        }
        let outcome = outcome_from_code(parts[3])
            .ok_or_else(|| format!("unknown outcome code `{}`", parts[3]))?;
        let bits = u64::from_str_radix(parts[4], 16).map_err(|e| format!("bad seconds: {e}"))?;
        let num = |s: &str, what: &str| -> Result<u64, String> {
            s.parse::<u64>().map_err(|e| format!("bad {what}: {e}"))
        };
        Ok(Record {
            app: parts[0].to_string(),
            fw: parts[1].to_string(),
            scale: parts[2].to_string(),
            result: AppResult {
                outcome,
                seconds: f64::from_bits(bits),
                cycles: num(parts[5], "cycles")?,
                launches: num(parts[6], "launches")? as u32,
                replication: num(parts[7], "replication")? as u32,
            },
            panicked: match parts[8] {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad panicked flag `{other}`")),
            },
            attempts: num(parts[9], "attempts")? as u32,
        })
    }
}

/// Stable, parseable outcome codes (`Outcome::code()` renders `Ok` as
/// the empty string, which `split('|')` round-trips fine, but a named
/// code keeps the journal greppable).
fn outcome_code(o: Outcome) -> &'static str {
    match o {
        Outcome::Ok => "OK",
        Outcome::CompileError => "CE",
        Outcome::IncorrectAnswer => "IA",
        Outcome::RuntimeError => "RE",
        Outcome::Hang => "H",
        Outcome::InsufficientResources => "IR",
    }
}

fn outcome_from_code(code: &str) -> Option<Outcome> {
    Some(match code {
        "OK" => Outcome::Ok,
        "CE" => Outcome::CompileError,
        "IA" => Outcome::IncorrectAnswer,
        "RE" => Outcome::RuntimeError,
        "H" => Outcome::Hang,
        "IR" => Outcome::InsufficientResources,
        _ => return None,
    })
}


const HEADER_PREFIX: &str = "soff-sweep-journal v1 ";

/// Deterministic journal fault injection (the chaos harness's hook):
/// 0-based append-op indices at which the write lands *torn* — a
/// partial line with no newline reaches the file and the append reports
/// an I/O error, exactly what a crash mid-`write` leaves behind.
#[derive(Debug, Clone, Default)]
pub struct JournalFaults {
    /// Append ops that tear.
    pub torn_appends: Vec<u64>,
}

#[derive(Default)]
struct JournalShim {
    plan: Option<JournalFaults>,
    appends: u64,
    injected: u64,
}

fn journal_shim() -> &'static Mutex<JournalShim> {
    static SHIM: std::sync::OnceLock<Mutex<JournalShim>> = std::sync::OnceLock::new();
    SHIM.get_or_init(Mutex::default)
}

/// Installs (or with `None` clears) the journal fault plan, resetting
/// the append-op counter. Process-global; for chaos tests only.
pub fn set_journal_faults(plan: Option<JournalFaults>) {
    let mut s = journal_shim().lock().unwrap_or_else(|e| e.into_inner());
    *s = JournalShim { plan, ..JournalShim::default() };
}

/// Number of journal faults actually injected since the plan was set.
pub fn injected_journal_faults() -> u64 {
    journal_shim().lock().unwrap_or_else(|e| e.into_inner()).injected
}

fn shim_torn_append() -> bool {
    let mut s = journal_shim().lock().unwrap_or_else(|e| e.into_inner());
    let idx = s.appends;
    s.appends += 1;
    let hit = s.plan.as_ref().is_some_and(|p| p.torn_appends.contains(&idx));
    if hit {
        s.injected += 1;
    }
    hit
}

/// An open, append-mode sweep journal. Appends are serialized through a
/// mutex (workers on the pool journal concurrently) and each record is
/// flushed and fsync'd before [`Journal::append`] returns, so a crash
/// can lose at most the record being written — never a completed one.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Creates (truncating) a journal for a sweep with `identity` and
    /// durably writes the header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`].
    pub fn create(path: &Path, identity: u64) -> Result<Journal, JournalError> {
        let mut file = File::create(path)?;
        writeln!(file, "{HEADER_PREFIX}{identity:016x}")?;
        file.sync_data()?;
        // The record data is durable, but the *dirent* for a freshly
        // created journal is not until its parent directory is synced —
        // a power cut could silently drop the whole file.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            File::open(dir)?.sync_all()?;
        }
        Ok(Journal { file: Mutex::new(file) })
    }

    /// Opens an existing journal for appending; only [`Journal::recover`]
    /// calls it, after replaying and truncating the file.
    fn append_to(path: &Path) -> Result<Journal, JournalError> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal { file: Mutex::new(file) })
    }

    /// Replays an existing journal, **truncates any torn tail**, and
    /// reopens for appending — the one safe way to resume: appending
    /// after a plain [`replay`] would put the next record onto a torn
    /// partial line, merging the two into one unparsable line that a
    /// *later* resume rejects as mid-file corruption.
    ///
    /// A missing file, an empty file, and a torn header all restart the
    /// journal from scratch (header rewritten, no records).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] / [`JournalError::Stale`] /
    /// [`JournalError::Corrupt`] (mid-file damage only).
    pub fn recover(path: &Path, identity: u64) -> Result<(Vec<Record>, Journal), JournalError> {
        if !path.exists() {
            return Ok((Vec::new(), Journal::create(path, identity)?));
        }
        let records = replay(path, identity)?;
        let mut text = String::new();
        File::open(path)?.read_to_string(&mut text)?;
        // Keep exactly the header + every replayed record: each is one
        // newline-terminated chunk, in file order.
        let mut keep = 0usize;
        let mut kept = 0usize;
        for chunk in text.split_inclusive('\n') {
            if kept == 1 + records.len() || !chunk.ends_with('\n') {
                break;
            }
            keep += chunk.len();
            kept += 1;
        }
        if kept == 0 {
            // Nothing durable landed, not even the header line.
            return Ok((records, Journal::create(path, identity)?));
        }
        if keep < text.len() {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(keep as u64)?;
            f.sync_data()?;
        }
        Ok((records, Journal::append_to(path)?))
    }

    /// Durably appends one completed-cell record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`].
    pub fn append(&self, record: &Record) -> Result<(), JournalError> {
        let payload = record.payload();
        let line = format!("{:016x} {}\n", fnv1a(FNV_OFFSET, payload.as_bytes()), payload);
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if shim_torn_append() {
            let cut = line.len() / 2;
            file.write_all(&line.as_bytes()[..cut])?;
            let _ = file.sync_data();
            return Err(JournalError::Io(std::io::Error::other("injected torn append")));
        }
        file.write_all(line.as_bytes())?;
        file.sync_data()?;
        soff_obs::global().counter("soff_journal_appends_total", &[]).inc();
        Ok(())
    }
}

/// Replays a journal: verifies the header against `identity` and returns
/// the recorded cells in file order (later records for the same cell
/// supersede earlier ones on lookup; the sweep builds the map). A torn
/// final line is discarded; any earlier damage is an error.
///
/// # Errors
///
/// [`JournalError::Io`] / [`JournalError::Stale`] /
/// [`JournalError::Corrupt`].
pub fn replay(path: &Path, identity: u64) -> Result<Vec<Record>, JournalError> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    // A file that ends without a newline ends in a torn line.
    let torn_tail = !text.is_empty() && !text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    let Some(header) = lines.first() else {
        // Empty file: the crash happened before the header landed.
        return Ok(Vec::new());
    };
    if lines.len() == 1 && torn_tail {
        // The crash landed mid-header: nothing durable was recorded.
        return Ok(Vec::new());
    }
    let found = header
        .strip_prefix(HEADER_PREFIX)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or(JournalError::Corrupt {
            line: 1,
            what: format!("bad header `{header}`"),
        })?;
    if found != identity {
        return Err(JournalError::Stale { expected: identity, found });
    }
    let mut records = Vec::new();
    for (i, line) in lines.iter().enumerate().skip(1) {
        let last = i + 1 == lines.len();
        let parsed = (|| -> Result<Record, String> {
            let (sum, payload) =
                line.split_once(' ').ok_or_else(|| "missing checksum".to_string())?;
            let sum = u64::from_str_radix(sum, 16).map_err(|e| format!("bad checksum: {e}"))?;
            if sum != fnv1a(FNV_OFFSET, payload.as_bytes()) {
                return Err("checksum mismatch".to_string());
            }
            Record::parse(payload)
        })();
        match parsed {
            Ok(r) => records.push(r),
            // The final line may be a torn write from the crash that the
            // resume is recovering from; its cell simply re-runs.
            Err(_) if last && torn_tail => break,
            Err(what) => return Err(JournalError::Corrupt { line: i + 1, what }),
        }
    }
    soff_obs::global()
        .counter("soff_journal_replayed_total", &[])
        .add(records.len() as u64);
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(app: &str, cycles: u64) -> Record {
        Record {
            app: app.to_string(),
            fw: "Soff".to_string(),
            scale: "Small".to_string(),
            result: AppResult {
                outcome: Outcome::Ok,
                seconds: 0.1 + cycles as f64 * 1e-9,
                cycles,
                launches: 3,
                replication: 2,
            },
            panicked: false,
            attempts: 1,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("soff-journal-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_records_bit_for_bit() {
        let path = tmp("roundtrip");
        let j = Journal::create(&path, 0xabcd).unwrap();
        let a = record("atax", 12345);
        let b = record("mvt", 67890);
        j.append(&a).unwrap();
        j.append(&b).unwrap();
        let got = replay(&path, 0xabcd).unwrap();
        assert_eq!(got, vec![a, b]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_journal_is_a_typed_error() {
        let path = tmp("stale");
        Journal::create(&path, 1).unwrap();
        match replay(&path, 2) {
            Err(JournalError::Stale { expected: 2, found: 1 }) => {}
            other => panic!("expected Stale, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_but_earlier_damage_is_not() {
        let path = tmp("torn");
        let j = Journal::create(&path, 7).unwrap();
        j.append(&record("atax", 1)).unwrap();
        j.append(&record("mvt", 2)).unwrap();
        drop(j);
        // Tear the final record mid-payload (no trailing newline).
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 10;
        std::fs::write(&path, &text[..cut]).unwrap();
        let got = replay(&path, 7).unwrap();
        assert_eq!(got.len(), 1, "torn tail discarded, intact prefix kept");
        assert_eq!(got[0].app, "atax");
        // Now corrupt a *middle* record (newline intact): typed error.
        let mut damaged = text.clone();
        let pos = damaged.find("atax").unwrap();
        damaged.replace_range(pos..pos + 4, "xxxx");
        std::fs::write(&path, &damaged).unwrap();
        match replay(&path, 7) {
            Err(JournalError::Corrupt { line: 2, .. }) => {}
            other => panic!("expected Corrupt at line 2, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_truncates_torn_tail_so_appends_stay_parsable() {
        let path = tmp("recover");
        let j = Journal::create(&path, 5).unwrap();
        j.append(&record("atax", 1)).unwrap();
        j.append(&record("mvt", 2)).unwrap();
        drop(j);
        // Tear the final record mid-payload.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        // recover replays the intact prefix AND truncates the torn line,
        // so the next append starts on a fresh line.
        let (records, j) = Journal::recover(&path, 5).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].app, "atax");
        j.append(&record("bicg", 3)).unwrap();
        drop(j);
        // A second resume sees both records — with a bare append_to the
        // merged torn+new line would have been mid-file corruption here.
        let (records, _) = Journal::recover(&path, 5).unwrap();
        let apps: Vec<&str> = records.iter().map(|r| r.app.as_str()).collect();
        assert_eq!(apps, ["atax", "bicg"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_restarts_missing_empty_and_torn_header_journals() {
        let path = tmp("recover-fresh");
        std::fs::remove_file(&path).ok();
        // Missing file: created from scratch.
        let (records, j) = Journal::recover(&path, 3).unwrap();
        assert!(records.is_empty());
        j.append(&record("atax", 1)).unwrap();
        drop(j);
        // Torn header (crash during create): restarted, old bytes gone.
        std::fs::write(&path, "soff-sweep-jour").unwrap();
        let (records, j) = Journal::recover(&path, 3).unwrap();
        assert!(records.is_empty());
        j.append(&record("mvt", 2)).unwrap();
        drop(j);
        let (records, _) = Journal::recover(&path, 3).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].app, "mvt");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_propagates_mid_file_corruption() {
        let path = tmp("recover-corrupt");
        let j = Journal::create(&path, 8).unwrap();
        j.append(&record("atax", 1)).unwrap();
        j.append(&record("mvt", 2)).unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let pos = text.find("atax").unwrap();
        let mut damaged = text.clone();
        damaged.replace_range(pos..pos + 4, "xxxx");
        std::fs::write(&path, &damaged).unwrap();
        assert!(matches!(
            Journal::recover(&path, 8),
            Err(JournalError::Corrupt { line: 2, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_replays_to_nothing() {
        let path = tmp("empty");
        std::fs::write(&path, "").unwrap();
        assert!(replay(&path, 9).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
