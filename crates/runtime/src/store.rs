//! On-disk content-addressed object store backing the compile cache.
//!
//! Promotes the in-memory compile cache to one that survives process
//! restarts and is shared across processes: each object is a single file
//! named by layer kind and content hash, written with the same fsync +
//! checksum + tolerate-the-torn-tail discipline as
//! `soff_workloads::journal`:
//!
//! - **Writes are atomic.** An object is staged in a `.tmp-*` file,
//!   flushed with `sync_data`, then `rename`d into place. Readers never
//!   observe a half-written object; a crash mid-write leaves only a stale
//!   temp file, which [`DiskStore::open`] sweeps.
//! - **Reads are defensive.** Every structural problem — short file, bad
//!   magic, implausible length, checksum mismatch — classifies the object
//!   as [`Lookup::Corrupt`]; the store deletes it (self-heal) and the
//!   caller recompiles. Corruption is *never* a hard error, because the
//!   store is a cache: the source of truth is the compiler.
//! - **Concurrent writers are safe.** Compilation is deterministic, so
//!   two processes racing on the same key stage byte-identical content;
//!   whichever `rename` lands last wins and both outcomes are correct.
//!
//! ## Object format
//!
//! ```text
//! "soff-store v1\n"            13-byte magic
//! u64 LE  material length      full key material, kept verbatim so a
//! ...     material bytes       64-bit hash collision degrades to a miss
//! u64 LE  payload length
//! ...     payload bytes        layer-specific (e.g. encoded IR module)
//! u64 LE  FNV-1a-64 checksum   over material + payload bytes
//! ```

use soff_obs::{fnv1a, FNV_OFFSET};
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Leading bytes of every object file.
const MAGIC: &[u8] = b"soff-store v1\n";

/// Per-process counter making staged temp file names unique even within
/// one process (two threads can race on the same key).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The outcome of a store lookup.
#[derive(Debug)]
pub enum Lookup {
    /// The object exists, its checksum verified, and its key material
    /// matched; here is its payload.
    Hit(Vec<u8>),
    /// No object under this key.
    Miss,
    /// The object existed but was damaged (or held a colliding key); it
    /// has been deleted so the next write can replace it.
    Corrupt,
    /// The object could not be *read* (EIO, permissions — a brownout,
    /// not damage). The file is left in place: deleting a possibly-good
    /// object on a transient error would turn a brownout into data loss.
    IoError(io::Error),
}

/// Deterministic I/O fault injection for the disk store (the chaos
/// harness's shim). Each vector names 0-based *operation indices* —
/// the Nth read, put, or directory fsync since [`set_io_faults`] —
/// at which the corresponding fault fires.
#[derive(Debug, Clone, Default)]
pub struct IoFaultPlan {
    /// Read ops that fail with a synthetic EIO before touching the file.
    pub read_errors: Vec<u64>,
    /// Put ops that fail with a synthetic ENOSPC before staging.
    pub write_errors: Vec<u64>,
    /// Put ops that land *torn*: a truncated object is written straight
    /// to the final path (simulating a non-atomic commit) and the put
    /// reports an error. The next read classifies it `Corrupt` and heals.
    pub torn_writes: Vec<u64>,
    /// Put ops that land complete but with one payload byte flipped
    /// (silent media corruption); the put reports success and the
    /// checksum catches it on the next read.
    pub bit_flips: Vec<u64>,
    /// Directory-fsync ops (after rename) that fail with a synthetic EIO.
    pub dirsync_errors: Vec<u64>,
}

#[derive(Default)]
struct ShimState {
    plan: Option<IoFaultPlan>,
    reads: u64,
    puts: u64,
    dirsyncs: u64,
    injected: u64,
}

fn shim() -> &'static Mutex<ShimState> {
    static SHIM: std::sync::OnceLock<Mutex<ShimState>> = std::sync::OnceLock::new();
    SHIM.get_or_init(Mutex::default)
}

/// Installs (or with `None`, clears) the store I/O fault plan and resets
/// the shim's operation counters. Process-global; intended for chaos
/// tests and the `chaos_soak` bench.
pub fn set_io_faults(plan: Option<IoFaultPlan>) {
    let mut s = shim().lock().unwrap_or_else(|e| e.into_inner());
    *s = ShimState { plan, ..ShimState::default() };
}

/// Number of store I/O faults actually injected since the plan was set.
pub fn injected_io_faults() -> u64 {
    shim().lock().unwrap_or_else(|e| e.into_inner()).injected
}

#[derive(Clone, Copy, PartialEq)]
enum PutFault {
    None,
    WriteError,
    Torn,
    BitFlip,
}

fn shim_read_fault() -> bool {
    let mut s = shim().lock().unwrap_or_else(|e| e.into_inner());
    let idx = s.reads;
    s.reads += 1;
    let hit = s.plan.as_ref().is_some_and(|p| p.read_errors.contains(&idx));
    if hit {
        s.injected += 1;
    }
    hit
}

fn shim_put_fault() -> PutFault {
    let mut s = shim().lock().unwrap_or_else(|e| e.into_inner());
    let idx = s.puts;
    s.puts += 1;
    let Some(plan) = s.plan.as_ref() else { return PutFault::None };
    let fault = if plan.write_errors.contains(&idx) {
        PutFault::WriteError
    } else if plan.torn_writes.contains(&idx) {
        PutFault::Torn
    } else if plan.bit_flips.contains(&idx) {
        PutFault::BitFlip
    } else {
        PutFault::None
    };
    if fault != PutFault::None {
        s.injected += 1;
    }
    fault
}

fn shim_dirsync_fault() -> bool {
    let mut s = shim().lock().unwrap_or_else(|e| e.into_inner());
    let idx = s.dirsyncs;
    s.dirsyncs += 1;
    let hit = s.plan.as_ref().is_some_and(|p| p.dirsync_errors.contains(&idx));
    if hit {
        s.injected += 1;
    }
    hit
}

/// A directory of content-addressed compile-cache objects.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// Opens (creating if needed) the store directory and sweeps any
    /// temp files a crashed writer left behind.
    ///
    /// # Errors
    ///
    /// I/O errors creating or listing the directory.
    pub fn open(dir: &Path) -> io::Result<DiskStore> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().starts_with(".tmp-") {
                // A concurrent writer may still own a fresh temp file;
                // losing that race only costs it one recompile.
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(DiskStore { dir: dir.to_path_buf() })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn object_path(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{kind}-{key:016x}.obj"))
    }

    /// Looks up the object for `(kind, key)`, verifying its checksum and
    /// that its stored key material equals `material`.
    pub fn get(&self, kind: &str, key: u64, material: &str) -> Lookup {
        let path = self.object_path(kind, key);
        if shim_read_fault() {
            return Lookup::IoError(io::Error::other("injected read error"));
        }
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            // Unreadable (EIO, permissions): a brownout, not damage — the
            // object may be perfectly good, so it is NOT deleted.
            Err(e) => return Lookup::IoError(e),
        };
        match parse_object(&bytes, material) {
            Some(payload) => Lookup::Hit(payload),
            None => self.heal(&path),
        }
    }

    fn heal(&self, path: &Path) -> Lookup {
        let _ = fs::remove_file(path);
        Lookup::Corrupt
    }

    /// Atomically writes the object for `(kind, key)`.
    ///
    /// # Errors
    ///
    /// I/O errors staging, flushing, or renaming. Callers treat the
    /// store as best-effort and may ignore these.
    pub fn put(&self, kind: &str, key: u64, material: &str, payload: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!(
            ".tmp-{key:016x}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut bytes = Vec::with_capacity(MAGIC.len() + material.len() + payload.len() + 32);
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&(material.len() as u64).to_le_bytes());
        bytes.extend_from_slice(material.as_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        let sum = fnv1a(fnv1a(FNV_OFFSET, material.as_bytes()), payload);
        bytes.extend_from_slice(&sum.to_le_bytes());

        match shim_put_fault() {
            PutFault::None => {}
            PutFault::WriteError => {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "injected write error"));
            }
            PutFault::Torn => {
                // A non-atomic commit cut short: a truncated object lands
                // on the *final* path. Readers classify it Corrupt and
                // heal; the writer learns its put failed.
                let cut = bytes.len() * 2 / 3;
                let _ = fs::write(self.object_path(kind, key), &bytes[..cut]);
                return Err(io::Error::other("injected torn write"));
            }
            PutFault::BitFlip => {
                // Silent media corruption inside the checksummed region:
                // the write "succeeds", the next read catches it.
                let at = MAGIC.len() + 8 + material.len() + 8;
                bytes[at] ^= 0x40;
            }
        }

        let result = (|| {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
            drop(f);
            fs::rename(&tmp, self.object_path(kind, key))
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
            return result;
        }
        // Make the rename itself durable: fsync the parent directory so
        // the dirent survives a power cut. Unlike the file-data path a
        // failure here cannot serve bad data, but it IS a durability
        // fault, so it is reported (callers treating the store as
        // best-effort count it and degrade instead of trusting it).
        self.sync_dir()
    }

    fn sync_dir(&self) -> io::Result<()> {
        if shim_dirsync_fault() {
            return Err(io::Error::other("injected directory fsync error"));
        }
        File::open(&self.dir)?.sync_all()
    }

    /// Number of committed objects currently in the store (diagnostics).
    ///
    /// # Errors
    ///
    /// I/O errors listing the directory.
    pub fn object_count(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in fs::read_dir(&self.dir)? {
            if entry?.file_name().to_string_lossy().ends_with(".obj") {
                n += 1;
            }
        }
        Ok(n)
    }
}

/// Parses and verifies one object file; `None` means damage of any kind.
fn parse_object(bytes: &[u8], want_material: &str) -> Option<Vec<u8>> {
    let mut r = bytes;
    let mut magic = [0u8; 14];
    r.read_exact(&mut magic).ok()?;
    if magic != MAGIC {
        return None;
    }
    let material = read_chunk(&mut r)?;
    let payload = read_chunk(&mut r)?;
    let mut sum_bytes = [0u8; 8];
    r.read_exact(&mut sum_bytes).ok()?;
    if !r.is_empty() {
        return None;
    }
    let sum = fnv1a(fnv1a(FNV_OFFSET, &material), &payload);
    if sum != u64::from_le_bytes(sum_bytes) {
        return None;
    }
    // A hash collision stores different material under our key; the
    // comparison turns that into a (healed) miss, mirroring the in-memory
    // shelves' full-material comparison.
    if material != want_material.as_bytes() {
        return None;
    }
    Some(payload)
}

/// Reads a u64-length-prefixed chunk, bounding the allocation by the
/// bytes actually present.
fn read_chunk(r: &mut &[u8]) -> Option<Vec<u8>> {
    let mut len_bytes = [0u8; 8];
    r.read_exact(&mut len_bytes).ok()?;
    let len = usize::try_from(u64::from_le_bytes(len_bytes)).ok()?;
    if len > r.len() {
        return None;
    }
    let mut chunk = vec![0u8; len];
    r.read_exact(&mut chunk).ok()?;
    Some(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "soff-store-test-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_and_reopen() {
        let dir = tmp_dir("rt");
        let store = DiskStore::open(&dir).unwrap();
        store.put("fe", 7, "mat", b"payload").unwrap();
        assert!(matches!(store.get("fe", 7, "mat"), Lookup::Hit(p) if p == b"payload"));
        // A second handle (a "restarted process") sees the object.
        let store2 = DiskStore::open(&dir).unwrap();
        assert!(matches!(store2.get("fe", 7, "mat"), Lookup::Hit(p) if p == b"payload"));
        assert_eq!(store2.object_count().unwrap(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_colliding_material() {
        let dir = tmp_dir("miss");
        let store = DiskStore::open(&dir).unwrap();
        assert!(matches!(store.get("fe", 1, "m"), Lookup::Miss));
        store.put("fe", 1, "material-a", b"a").unwrap();
        // Same key, different material = 64-bit collision: heals to miss.
        assert!(matches!(store.get("fe", 1, "material-b"), Lookup::Corrupt));
        assert!(matches!(store.get("fe", 1, "material-a"), Lookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_and_healed() {
        let dir = tmp_dir("corrupt");
        let store = DiskStore::open(&dir).unwrap();
        store.put("pg", 3, "mat", b"payload-bytes").unwrap();
        let path = dir.join("pg-0000000000000003.obj");
        // Flip one payload byte.
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 12;
        bytes[at] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.get("pg", 3, "mat"), Lookup::Corrupt));
        assert!(!path.exists(), "damaged object removed");
        assert!(matches!(store.get("pg", 3, "mat"), Lookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_length_is_corrupt() {
        let dir = tmp_dir("trunc");
        let store = DiskStore::open(&dir).unwrap();
        store.put("fe", 9, "the-material", b"the-payload").unwrap();
        let path = dir.join("fe-0000000000000009.obj");
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(matches!(store.get("fe", 9, "the-material"), Lookup::Corrupt), "cut {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_temp_files() {
        let dir = tmp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(".tmp-dead"), b"half-written").unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert!(!dir.join(".tmp-dead").exists());
        assert_eq!(store.object_count().unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
