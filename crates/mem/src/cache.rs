//! Direct-mapped, single-port, non-blocking in-order caches (§V-A).
//!
//! SOFF instantiates one cache per (OpenCL buffer × datapath instance) —
//! or one shared cache group when the kernel uses atomics or has
//! unattributable pointers. Functional units reach a cache through a
//! round-robin **datapath-cache arbiter**, modeled here as per-port
//! request latches served one per cycle in round-robin order. Misses go
//! to the shared [`crate::dram::Dram`] through the cache-memory arbiter
//! (address-interleaved channels).
//!
//! Functional data lives in [`soff_ir::mem::GlobalMemory`]; the cache
//! performs the functional access at *acceptance* time, which equals
//! single-ported in-order semantics. Tags/dirty bits are tracked exactly,
//! so hit/miss timing, write-backs, and the end-of-kernel flush cost are
//! faithful.
//!
//! The sets live in copy-on-write chunks of 64 sets behind an `Arc`, so a
//! clone (a machine snapshot or restore) copies one handle per chunk, and
//! a cache copies a chunk only on its first write after the clone.

use crate::dram::Dram;
use crate::request::{MemOp, MemRequest, MemResponse, PortId};
use soff_ir::eval;
use soff_ir::mem::GlobalMemory;
use std::collections::VecDeque;
use std::sync::{Arc, LazyLock};

/// Cache geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (§VI-A: 64 KB).
    pub bytes: u64,
    /// Line size in bytes.
    pub line: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
    /// Maximum outstanding misses (MSHRs). SOFF sizes this near the
    /// global-memory near-maximum latency; static-pipelining baselines
    /// use a much smaller value, which is where their global stalls come
    /// from.
    pub max_outstanding_misses: u32,
    /// Sequential next-line prefetch on a miss. The commercial HLS
    /// compilers infer bursts for statically regular streams, which this
    /// models; it is useless for data-dependent (irregular) access.
    pub prefetch_next: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            bytes: 64 * 1024,
            line: 64,
            hit_latency: 4,
            max_outstanding_misses: 64,
            prefetch_next: false,
        }
    }
}

/// Why a [`CacheConfig`] cannot describe a real cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// `line == 0`: a line must hold at least one byte.
    ZeroLine,
    /// `bytes < line` (including `bytes == 0`): the capacity holds no
    /// complete line, so the cache would have zero sets and every set
    /// lookup would divide by zero.
    ZeroSets {
        /// Configured capacity.
        bytes: u64,
        /// Configured line size.
        line: u32,
    },
    /// `bytes` is not a multiple of `line`: the trailing partial line
    /// cannot be indexed.
    UnalignedCapacity {
        /// Configured capacity.
        bytes: u64,
        /// Configured line size.
        line: u32,
    },
    /// `max_outstanding_misses == 0`: no miss could ever be accepted, so
    /// the first miss would stall forever.
    ZeroMshrs,
}

impl std::fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheConfigError::ZeroLine => write!(f, "cache line size is zero"),
            CacheConfigError::ZeroSets { bytes, line } => write!(
                f,
                "cache capacity ({bytes} B) is smaller than one line ({line} B): zero sets"
            ),
            CacheConfigError::UnalignedCapacity { bytes, line } => write!(
                f,
                "cache capacity ({bytes} B) is not a multiple of the line size ({line} B)"
            ),
            CacheConfigError::ZeroMshrs => {
                write!(f, "max_outstanding_misses is zero: no miss could ever complete")
            }
        }
    }
}

impl std::error::Error for CacheConfigError {}

impl CacheConfig {
    /// Checks that the geometry describes a buildable cache.
    ///
    /// # Errors
    ///
    /// [`CacheConfigError`] when the line size is zero, the capacity
    /// holds no complete line, the capacity is not line-aligned, or no
    /// MSHRs are configured.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.line == 0 {
            return Err(CacheConfigError::ZeroLine);
        }
        if self.bytes < self.line as u64 {
            return Err(CacheConfigError::ZeroSets { bytes: self.bytes, line: self.line });
        }
        if !self.bytes.is_multiple_of(self.line as u64) {
            return Err(CacheConfigError::UnalignedCapacity { bytes: self.bytes, line: self.line });
        }
        if self.max_outstanding_misses == 0 {
            return Err(CacheConfigError::ZeroMshrs);
        }
        Ok(())
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accepted requests.
    pub accesses: u64,
    /// Line hits.
    pub hits: u64,
    /// Line misses.
    pub misses: u64,
    /// Dirty lines written back (including the final flush).
    pub writebacks: u64,
    /// Cycles ports spent with a latched request not yet accepted.
    pub arbitration_stalls: u64,
    /// Requests rejected because all MSHRs were busy.
    pub mshr_stalls: u64,
    /// Atomic lock-contention delay cycles.
    pub lock_delay: u64,
    /// Hits on a line that was brought in by the next-line prefetcher and
    /// had not been demand-touched yet (first touch only).
    pub prefetch_hits: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    port: usize,
    ready: u64,
    value: u64,
    was_miss: bool,
}

/// Number of atomic locks per cache (§IV-F2).
pub const NUM_LOCKS: usize = 16;

/// Sets per copy-on-write chunk: one bit of each of a chunk's two bit
/// words per set.
const CHUNK_SETS: usize = 64;

/// Tag of an invalid set. Only the last byte of the address space, cached
/// in 1-byte lines, has this line address (`install` checks it in debug
/// builds).
const INVALID: u64 = u64::MAX;

/// [`CHUNK_SETS`] consecutive sets (528 bytes).
#[derive(Debug, Clone)]
struct Chunk {
    /// Line address held per set, or [`INVALID`].
    tags: [u64; CHUNK_SETS],
    /// Bit `i`: set `i` holds a line written since its fill. Only a valid
    /// set is ever dirty.
    dirty: u64,
    /// Bit `i`: set `i` was filled by the prefetcher and not yet
    /// demand-touched.
    prefetched: u64,
}

/// The chunk every set of a new or flushed cache shares.
static EMPTY: LazyLock<Arc<Chunk>> =
    LazyLock::new(|| Arc::new(Chunk { tags: [INVALID; CHUNK_SETS], dirty: 0, prefetched: 0 }));

/// The chunk holding `set` and the set's bit within it.
fn chunk_of(set: usize) -> (usize, usize) {
    (set / CHUNK_SETS, set % CHUNK_SETS)
}

/// A direct-mapped write-back cache with per-port in-order responses.
///
/// Cloning shares the set array: the clone and the original copy a
/// chunk only when one of them first writes it (`Arc::make_mut`).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Number of sets (`bytes / line`).
    sets: u64,
    /// The sets, [`CHUNK_SETS`] per chunk; the last chunk's sets past
    /// `sets` stay invalid.
    chunks: Vec<Arc<Chunk>>,
    /// One-deep request latch per port.
    latches: Vec<Option<MemRequest>>,
    /// Occupied latches (kept with every latch and take, so the idle test
    /// need not scan the ports).
    latched: usize,
    /// Round-robin pointer of the datapath-cache arbiter.
    rr: usize,
    /// Accepted requests, in order; responses pop from the front.
    inflight: VecDeque<InFlight>,
    /// Ready cycles of in-flight *misses*, in acceptance order. Because
    /// in-order delivery clamps every ready to be monotone, the front is
    /// always the next miss to age out, which makes MSHR occupancy an
    /// O(1) pop-and-count instead of an O(n) rescan of `inflight`.
    miss_readies: VecDeque<u64>,
    /// Completed responses per port.
    out: Vec<VecDeque<MemResponse>>,
    /// Atomic locks: cycle each lock frees up.
    lock_free_at: [u64; NUM_LOCKS],
    /// Fault injection: while set, ports refuse to latch new requests
    /// (stuck request wires between datapath and cache).
    fault_jam_ports: bool,
    /// Fault injection: while set, the datapath-cache arbiter withholds
    /// every grant (latched requests are never accepted).
    fault_withhold_grants: bool,
    /// Statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`CacheConfig::validate`]); use [`Cache::try_new`] to handle that
    /// as an error instead.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache::try_new(cfg).expect("invalid cache configuration")
    }

    /// Creates a cache, rejecting ungeometric configurations.
    ///
    /// # Errors
    ///
    /// [`CacheConfigError`] when [`CacheConfig::validate`] fails.
    pub fn try_new(cfg: CacheConfig) -> Result<Self, CacheConfigError> {
        cfg.validate()?;
        let sets = cfg.bytes / cfg.line as u64;
        Ok(Cache {
            cfg,
            sets,
            chunks: vec![Arc::clone(&EMPTY); (sets as usize).div_ceil(CHUNK_SETS)],
            latches: Vec::new(),
            latched: 0,
            rr: 0,
            inflight: VecDeque::new(),
            miss_readies: VecDeque::new(),
            out: Vec::new(),
            lock_free_at: [0; NUM_LOCKS],
            fault_jam_ports: false,
            fault_withhold_grants: false,
            stats: CacheStats::default(),
        })
    }

    /// Fault injection: wedges or releases the port request latches.
    pub fn set_fault_jam_ports(&mut self, jam: bool) {
        self.fault_jam_ports = jam;
    }

    /// Fault injection: makes the arbiter withhold (or resume) grants.
    pub fn set_fault_withhold_grants(&mut self, withhold: bool) {
        self.fault_withhold_grants = withhold;
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Registers a new port (one per connected functional unit) and
    /// returns its id.
    pub fn add_port(&mut self) -> PortId {
        self.latches.push(None);
        self.out.push(VecDeque::new());
        PortId(self.latches.len() - 1)
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.latches.len()
    }

    /// Whether port `p` can latch a new request this cycle.
    pub fn can_request(&self, p: PortId) -> bool {
        self.latches[p.0].is_none() && !self.fault_jam_ports
    }

    /// Latches a request on port `p`.
    ///
    /// # Panics
    ///
    /// Panics if the port already holds a latched request
    /// (check [`Cache::can_request`]).
    pub fn request(&mut self, p: PortId, req: MemRequest) {
        assert!(self.latches[p.0].is_none(), "port {p:?} already has a pending request");
        self.latches[p.0] = Some(req);
        self.latched += 1;
    }

    /// Pops the next in-order response for port `p`, if any.
    pub fn pop_response(&mut self, p: PortId) -> Option<MemResponse> {
        self.out[p.0].pop_front()
    }

    /// Advances the cache by one cycle: completes at most one in-flight
    /// request and accepts at most one latched request (round-robin).
    ///
    /// Returns whether the cache made *observable progress* this cycle —
    /// delivered a response or accepted a request. A `false` return also
    /// guarantees the next cycle would behave identically except for the
    /// round-robin rotation and stall counters, which
    /// [`Cache::replay_blocked`] can reproduce in closed form; the
    /// fast scheduler relies on this to fast-forward idle gaps.
    pub fn tick(&mut self, now: u64, dram: &mut Dram, gm: &mut GlobalMemory) -> bool {
        let mut moved = false;
        // Single-ported SRAM: one response per cycle, strictly in order.
        if let Some(head) = self.inflight.front() {
            if head.ready <= now {
                let h = self.inflight.pop_front().expect("front checked");
                self.out[h.port].push_back(MemResponse { value: h.value });
                moved = true;
            }
        }

        // Count arbitration stalls (latched but not yet served ports).
        debug_assert_eq!(self.latched, self.latches.iter().flatten().count());
        let waiting = self.latched as u64;
        if waiting > 1 {
            self.stats.arbitration_stalls += waiting - 1;
        }

        // Round-robin accept.
        if self.fault_withhold_grants {
            return moved;
        }
        let n = self.latches.len();
        if n == 0 {
            return moved;
        }
        for k in 0..n {
            let p = (self.rr + k) % n;
            if self.latches[p].is_none() {
                continue;
            }
            // Peek: would this request miss while MSHRs are full?
            let req = self.latches[p].as_ref().expect("checked above");
            let (set, line_addr) = self.locate(req.addr);
            let hit = self.tag(set) == line_addr;
            let outstanding_misses = self.mshr_occupancy(now);
            if !hit && outstanding_misses >= self.cfg.max_outstanding_misses {
                self.stats.mshr_stalls += 1;
                // A blocked miss blocks the port (in-order), but the
                // arbiter moves on to other ports next cycle. The
                // rotation can land on a port whose request *would* be
                // served, so this only counts as no-progress when every
                // latched request would stall the same way.
                self.rr = (p + 1) % n;
                let all_blocked = self.latches.iter().flatten().all(|r| !self.holds(r.addr));
                return moved || !all_blocked;
            }
            let req = self.latches[p].take().expect("checked above");
            self.latched -= 1;
            self.accept(now, p, req, hit, set, line_addr, dram, gm);
            self.rr = (p + 1) % n;
            return true;
        }
        moved
    }

    /// MSHR occupancy at `now`: misses accepted but not yet aged past
    /// their ready cycle. Incremental replacement for the old O(n)
    /// `inflight` rescan — `miss_readies` is monotone (in-order delivery
    /// clamps readies), so expired entries pop from the front.
    fn mshr_occupancy(&mut self, now: u64) -> u32 {
        while self.miss_readies.front().is_some_and(|&r| r <= now) {
            self.miss_readies.pop_front();
        }
        debug_assert!(
            self.mshr_counter_consistent(now),
            "incremental MSHR counter diverged from the inflight recount"
        );
        self.miss_readies.len() as u32
    }

    /// Whether the incremental MSHR counter agrees with a full recount of
    /// `inflight` (the invariant the simulator checks under
    /// `check_invariants`).
    pub fn mshr_counter_consistent(&self, now: u64) -> bool {
        let incremental = self.miss_readies.iter().filter(|&&r| r > now).count();
        let recount = self.inflight.iter().filter(|f| f.was_miss && f.ready > now).count();
        incremental == recount
    }

    /// The cycle the next in-order response becomes deliverable, if any
    /// request is in flight.
    pub fn next_response_ready(&self) -> Option<u64> {
        self.inflight.front().map(|f| f.ready)
    }

    /// Replays `cycles` consecutive no-progress cycles starting after
    /// `now` in closed form: arbitration/MSHR stall counters and the
    /// round-robin rotation advance exactly as `cycles` dense
    /// [`Cache::tick`] calls would, without accepting or delivering
    /// anything.
    ///
    /// Only valid when the tick at `now` reported no progress and no
    /// response becomes deliverable within the window (both hold by
    /// construction when the fast scheduler fast-forwards).
    pub fn replay_blocked(&mut self, now: u64, cycles: u64) {
        if cycles == 0 {
            return;
        }
        debug_assert!(
            self.inflight.front().is_none_or(|f| f.ready > now + cycles),
            "replay window overlaps a response delivery"
        );
        let waiting = self.latched as u64;
        if waiting > 1 {
            self.stats.arbitration_stalls += (waiting - 1) * cycles;
        }
        if self.fault_withhold_grants || waiting == 0 {
            return;
        }
        // Every latched request is a miss against full MSHRs (otherwise
        // the preceding tick would have reported progress), so each
        // replayed cycle charges one MSHR stall to the cyclically-next
        // occupied port and rotates past it.
        #[cfg(debug_assertions)]
        {
            let occupied =
                self.inflight.iter().filter(|f| f.was_miss && f.ready > now).count() as u32;
            debug_assert!(occupied >= self.cfg.max_outstanding_misses, "MSHRs not actually full");
            for r in self.latches.iter().flatten() {
                debug_assert!(!self.holds(r.addr), "latched hit would have been accepted");
            }
        }
        self.stats.mshr_stalls += cycles;
        let n = self.latches.len();
        let occ: Vec<usize> = (0..n).filter(|&i| self.latches[i].is_some()).collect();
        let first = occ.iter().position(|&i| i >= self.rr).unwrap_or(0);
        let last = occ[(first + ((cycles - 1) % occ.len() as u64) as usize) % occ.len()];
        self.rr = (last + 1) % n;
    }

    #[allow(clippy::too_many_arguments)]
    fn accept(
        &mut self,
        now: u64,
        port: usize,
        req: MemRequest,
        hit: bool,
        set: usize,
        line_addr: u64,
        dram: &mut Dram,
        gm: &mut GlobalMemory,
    ) {
        self.stats.accesses += 1;
        let mut ready = now + self.cfg.hit_latency as u64;
        if hit {
            self.stats.hits += 1;
            let (c, i) = chunk_of(set);
            if self.chunks[c].prefetched & (1 << i) != 0 {
                self.stats.prefetch_hits += 1;
                Arc::make_mut(&mut self.chunks[c]).prefetched &= !(1 << i);
            }
        } else {
            self.stats.misses += 1;
            self.evict(now, set, dram);
            let fill_done = dram.request_line(now, line_addr, false);
            ready = fill_done + self.cfg.hit_latency as u64;
            self.install(set, line_addr, false);
            // Burst/prefetch: also fill the next sequential line.
            if self.cfg.prefetch_next {
                let next = line_addr + 1;
                let nset = (next % self.sets) as usize;
                if self.tag(nset) != next {
                    self.evict(now, nset, dram);
                    dram.request_line(now, next, false);
                    self.install(nset, next, true);
                }
            }
        }

        // Functional access at acceptance (in-order single-port semantics).
        let value = match &req.op {
            MemOp::Load => gm.read(req.addr, req.ty),
            MemOp::Store { value } => {
                gm.write(req.addr, req.ty, *value);
                self.mark_dirty(set);
                0
            }
            MemOp::Atomic { op, operands } => {
                // §IV-F2: take the lock keyed by the cache-line address.
                let lock = ((req.addr >> 6) % NUM_LOCKS as u64) as usize;
                let lock_start = now.max(self.lock_free_at[lock]);
                self.stats.lock_delay += lock_start - now;
                ready = ready.max(lock_start + self.cfg.hit_latency as u64) + 2;
                self.lock_free_at[lock] = ready;
                let old = gm.read(req.addr, req.ty);
                let (new, ret) = eval::eval_atomic(*op, req.ty, old, operands);
                gm.write(req.addr, req.ty, new);
                self.mark_dirty(set);
                ret
            }
        };

        // In-order delivery: never earlier than the previous response.
        if let Some(last) = self.inflight.back() {
            ready = ready.max(last.ready);
        }
        if !hit {
            // Clamped readies are monotone, so this queue stays sorted.
            self.miss_readies.push_back(ready);
        }
        self.inflight.push_back(InFlight { port, ready, value, was_miss: !hit });
    }

    /// The set `addr`'s line maps to, and that line's address.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr / self.cfg.line as u64;
        ((line_addr % self.sets) as usize, line_addr)
    }

    /// The line address `set` holds, or [`INVALID`].
    fn tag(&self, set: usize) -> u64 {
        let (c, i) = chunk_of(set);
        self.chunks[c].tags[i]
    }

    /// Whether `addr`'s line is resident.
    fn holds(&self, addr: u64) -> bool {
        let (set, line_addr) = self.locate(addr);
        self.tag(set) == line_addr
    }

    /// Writes back `set`'s line if it is dirty (timing only; the data is
    /// functionally in global memory already).
    fn evict(&mut self, now: u64, set: usize, dram: &mut Dram) {
        let (c, i) = chunk_of(set);
        let chunk = &self.chunks[c];
        if chunk.dirty & (1 << i) != 0 {
            self.stats.writebacks += 1;
            dram.request_line(now, chunk.tags[i], true);
        }
    }

    /// Makes `set` hold the clean line `line_addr`.
    fn install(&mut self, set: usize, line_addr: u64, prefetched: bool) {
        debug_assert_ne!(line_addr, INVALID, "line address collides with the invalid tag");
        let (c, i) = chunk_of(set);
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        chunk.tags[i] = line_addr;
        chunk.dirty &= !(1 << i);
        if prefetched {
            chunk.prefetched |= 1 << i;
        } else {
            chunk.prefetched &= !(1 << i);
        }
    }

    /// Marks `set`'s line written, copying its chunk only if the line was
    /// clean.
    fn mark_dirty(&mut self, set: usize) {
        let (c, i) = chunk_of(set);
        if self.chunks[c].dirty & (1 << i) == 0 {
            Arc::make_mut(&mut self.chunks[c]).dirty |= 1 << i;
        }
    }

    /// Whether any request is latched or in flight.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.latched == 0
    }

    /// Whether the cache still has timed events scheduled in the future:
    /// accepted requests whose responses are not yet deliverable. Used by
    /// the simulator's progress watchdog to avoid declaring a deadlock
    /// while memory is merely slow (e.g. under a DRAM latency spike).
    pub fn has_pending_events(&self, now: u64) -> bool {
        self.inflight.iter().any(|f| f.ready > now)
    }

    /// Number of ports with a latched, not-yet-accepted request.
    pub fn latched_requests(&self) -> usize {
        self.latched
    }

    /// Number of accepted requests awaiting response delivery.
    pub fn inflight_requests(&self) -> usize {
        self.inflight.len()
    }

    /// Whether fault injection currently wedges this cache (either the
    /// port latches or the arbiter grants).
    pub fn fault_active(&self) -> bool {
        self.fault_jam_ports || self.fault_withhold_grants
    }

    /// Flushes all dirty lines (end-of-kernel, §III-B) and invalidates
    /// every set; returns the cycle the flush completes.
    pub fn flush(&mut self, now: u64, dram: &mut Dram) -> u64 {
        let mut done = now;
        for chunk in &self.chunks {
            for _ in 0..chunk.dirty.count_ones() {
                self.stats.writebacks += 1;
                done = done.max(dram.request_line_any(now, true));
            }
        }
        self.chunks.fill(Arc::clone(&EMPTY));
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soff_frontend::types::Scalar;
    use soff_ir::mem::global_addr;

    fn load(addr: u64) -> MemRequest {
        MemRequest { op: MemOp::Load, addr, ty: Scalar::I32, wi: 0, wg: 0 }
    }

    fn store(addr: u64, v: u64) -> MemRequest {
        MemRequest { op: MemOp::Store { value: v }, addr, ty: Scalar::I32, wi: 0, wg: 0 }
    }

    fn setup() -> (Cache, Dram, GlobalMemory, u32) {
        let cache = Cache::new(CacheConfig::default());
        let dram = Dram::new(crate::dram::DramConfig::default());
        let mut gm = GlobalMemory::new();
        let buf = gm.alloc(1 << 16);
        (cache, dram, gm, buf)
    }

    /// Runs the cache until a response appears on `p`, returning
    /// `(cycles_elapsed, value)`.
    fn run_until_response(
        c: &mut Cache,
        d: &mut Dram,
        gm: &mut GlobalMemory,
        p: PortId,
        start: u64,
    ) -> (u64, u64) {
        for t in start..start + 10_000 {
            c.tick(t, d, gm);
            if let Some(r) = c.pop_response(p) {
                return (t - start, r.value);
            }
        }
        panic!("no response within 10k cycles");
    }

    #[test]
    fn miss_then_hit_latency() {
        let (mut c, mut d, mut gm, buf) = setup();
        gm.buffer_mut(buf).write_scalar(0, Scalar::I32, 42);
        let p = c.add_port();
        c.request(p, load(global_addr(buf, 0)));
        let (t_miss, v) = run_until_response(&mut c, &mut d, &mut gm, p, 0);
        assert_eq!(v, 42);
        assert!(t_miss > 30, "miss should pay DRAM latency, took {t_miss}");
        // Same line again: hit.
        c.request(p, load(global_addr(buf, 4)));
        let (t_hit, _) = run_until_response(&mut c, &mut d, &mut gm, p, 1000);
        assert!(t_hit <= 8, "hit should be fast, took {t_hit}");
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn store_marks_dirty_and_flush_writes_back() {
        let (mut c, mut d, mut gm, buf) = setup();
        let p = c.add_port();
        c.request(p, store(global_addr(buf, 0), 7));
        run_until_response(&mut c, &mut d, &mut gm, p, 0);
        assert_eq!(gm.buffer(buf).read_scalar(0, Scalar::I32), 7);
        let before = c.stats.writebacks;
        c.flush(5000, &mut d);
        assert_eq!(c.stats.writebacks, before + 1);
        // Flushing again writes nothing.
        let again = c.stats.writebacks;
        c.flush(6000, &mut d);
        assert_eq!(c.stats.writebacks, again);
    }

    #[test]
    fn conflict_misses_in_direct_mapped_cache() {
        let (mut c, mut d, mut gm, buf) = setup();
        let p = c.add_port();
        let sets = c.config().bytes / c.config().line as u64;
        // Two addresses mapping to the same set (same index, different tag).
        let a1 = global_addr(buf, 0);
        let a2 = global_addr(buf, sets * 64);
        for (i, a) in [a1, a2, a1, a2].into_iter().enumerate() {
            c.request(p, load(a));
            run_until_response(&mut c, &mut d, &mut gm, p, (i as u64 + 1) * 10_000);
        }
        assert_eq!(c.stats.misses, 4, "all conflict misses");
    }

    #[test]
    fn round_robin_arbitration_serves_all_ports() {
        let (mut c, mut d, mut gm, buf) = setup();
        let p1 = c.add_port();
        let p2 = c.add_port();
        c.request(p1, load(global_addr(buf, 0)));
        c.request(p2, load(global_addr(buf, 4)));
        // Both eventually answered.
        let mut got = (false, false);
        for t in 0..5000 {
            c.tick(t, &mut d, &mut gm);
            if c.pop_response(p1).is_some() {
                got.0 = true;
            }
            if c.pop_response(p2).is_some() {
                got.1 = true;
            }
        }
        assert_eq!(got, (true, true));
    }

    #[test]
    fn responses_in_order_per_port() {
        let (mut c, mut d, mut gm, buf) = setup();
        gm.buffer_mut(buf).write_scalar(0, Scalar::I32, 1);
        gm.buffer_mut(buf).write_scalar(256, Scalar::I32, 2);
        let p = c.add_port();
        // Prime line 0 so the first access hits, second misses: responses
        // must still arrive in issue order.
        c.request(p, load(global_addr(buf, 0)));
        run_until_response(&mut c, &mut d, &mut gm, p, 0);
        c.request(p, load(global_addr(buf, 0))); // hit
        let mut vals = Vec::new();
        let mut t = 1000;
        c.tick(t, &mut d, &mut gm);
        c.request(p, load(global_addr(buf, 256))); // miss — wait, port busy?
        for _ in 0..5000 {
            t += 1;
            c.tick(t, &mut d, &mut gm);
            if let Some(r) = c.pop_response(p) {
                vals.push(r.value);
            }
            if vals.len() == 2 {
                break;
            }
        }
        assert_eq!(vals, vec![1, 2]);
    }

    #[test]
    fn atomics_serialize_on_same_lock() {
        use soff_frontend::builtins::AtomicOp;
        let (mut c, mut d, mut gm, buf) = setup();
        let p1 = c.add_port();
        let p2 = c.add_port();
        let atomic = |_wi: u32| MemRequest {
            op: MemOp::Atomic { op: AtomicOp::Add, operands: vec![1] },
            addr: global_addr(buf, 0),
            ty: Scalar::I32,
            wi: 0,
            wg: 0,
        };
        c.request(p1, atomic(0));
        c.request(p2, atomic(1));
        let mut done = 0;
        for t in 0..10_000 {
            c.tick(t, &mut d, &mut gm);
            if c.pop_response(p1).is_some() {
                done += 1;
            }
            if c.pop_response(p2).is_some() {
                done += 1;
            }
            if done == 2 {
                break;
            }
        }
        assert_eq!(done, 2);
        assert_eq!(gm.buffer(buf).read_scalar(0, Scalar::I32), 2);
        assert!(c.stats.lock_delay > 0, "second atomic should wait for the lock");
    }

    #[test]
    fn prefetch_hits_counted_on_first_touch_only() {
        let (_c0, mut d, mut gm, buf) = setup();
        let mut c = Cache::new(CacheConfig { prefetch_next: true, ..CacheConfig::default() });
        let p = c.add_port();
        // Miss on line 0 prefetches line 1.
        c.request(p, load(global_addr(buf, 0)));
        run_until_response(&mut c, &mut d, &mut gm, p, 0);
        assert_eq!(c.stats.prefetch_hits, 0);
        // First touch of line 1 is a prefetch hit; second touch is a plain hit.
        c.request(p, load(global_addr(buf, 64)));
        run_until_response(&mut c, &mut d, &mut gm, p, 10_000);
        c.request(p, load(global_addr(buf, 68)));
        run_until_response(&mut c, &mut d, &mut gm, p, 20_000);
        assert_eq!(c.stats.prefetch_hits, 1);
        assert_eq!(c.stats.hits, 2);
    }

    #[test]
    fn mshr_limit_stalls_misses() {
        let (_c0, mut d, mut gm, buf) = setup();
        let mut c = Cache::new(CacheConfig { max_outstanding_misses: 1, ..CacheConfig::default() });
        let p1 = c.add_port();
        let p2 = c.add_port();
        c.request(p1, load(global_addr(buf, 0)));
        c.request(p2, load(global_addr(buf, 4096)));
        c.tick(0, &mut d, &mut gm); // accepts p1's miss
        c.tick(1, &mut d, &mut gm); // p2 blocked: MSHR full
        assert!(c.stats.mshr_stalls > 0);
    }

    /// Regression: `bytes < line` used to build a zero-set cache whose
    /// first access panicked with a divide-by-zero at the set lookup.
    #[test]
    fn degenerate_geometries_are_rejected_not_built() {
        let small = CacheConfig { bytes: 32, line: 64, ..CacheConfig::default() };
        assert_eq!(Cache::try_new(small).err(), Some(CacheConfigError::ZeroSets { bytes: 32, line: 64 }));
        let empty = CacheConfig { bytes: 0, line: 64, ..CacheConfig::default() };
        assert_eq!(Cache::try_new(empty).err(), Some(CacheConfigError::ZeroSets { bytes: 0, line: 64 }));
        let ragged = CacheConfig { bytes: 100, line: 64, ..CacheConfig::default() };
        assert_eq!(
            Cache::try_new(ragged).err(),
            Some(CacheConfigError::UnalignedCapacity { bytes: 100, line: 64 })
        );
        let zero_line = CacheConfig { line: 0, ..CacheConfig::default() };
        assert_eq!(Cache::try_new(zero_line).err(), Some(CacheConfigError::ZeroLine));
        let no_mshrs = CacheConfig { max_outstanding_misses: 0, ..CacheConfig::default() };
        assert_eq!(Cache::try_new(no_mshrs).err(), Some(CacheConfigError::ZeroMshrs));
        assert!(Cache::try_new(CacheConfig::default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid cache configuration")]
    fn new_panics_on_invalid_geometry() {
        let _ = Cache::new(CacheConfig { bytes: 16, line: 64, ..CacheConfig::default() });
    }

    /// The incremental MSHR counter must track the O(n) recount through
    /// misses, hits, deliveries, and stalls.
    #[test]
    fn incremental_mshr_counter_matches_recount() {
        let (_c0, mut d, mut gm, buf) = setup();
        let mut c = Cache::new(CacheConfig { max_outstanding_misses: 2, ..CacheConfig::default() });
        let ports: Vec<PortId> = (0..3).map(|_| c.add_port()).collect();
        let mut t = 0u64;
        for round in 0..40u64 {
            for (i, p) in ports.iter().enumerate() {
                if c.can_request(*p) {
                    // Mix of conflicting lines: some hit, most miss.
                    let addr = global_addr(buf, ((round * 3 + i as u64) % 24) * 512);
                    c.request(*p, load(addr));
                }
            }
            for _ in 0..7 {
                c.tick(t, &mut d, &mut gm);
                for p in &ports {
                    c.pop_response(*p);
                }
                assert!(c.mshr_counter_consistent(t), "diverged at cycle {t}");
                t += 1;
            }
        }
        assert!(c.stats.misses > 2, "test should exercise misses");
    }

    /// `replay_blocked(now, k)` must equal `k` dense ticks of a fully
    /// blocked cache: same stats, same round-robin pointer.
    #[test]
    fn replay_blocked_matches_dense_ticks() {
        let (_c0, mut d, mut gm, buf) = setup();
        let mut c = Cache::new(CacheConfig { max_outstanding_misses: 1, ..CacheConfig::default() });
        let ports: Vec<PortId> = (0..3).map(|_| c.add_port()).collect();
        // Fill the single MSHR with a long miss, then latch misses on all
        // ports: the cache is now fully blocked until the miss returns.
        c.request(ports[0], load(global_addr(buf, 0)));
        assert!(c.tick(0, &mut d, &mut gm), "first miss is accepted");
        for (i, p) in ports.iter().enumerate() {
            c.request(*p, load(global_addr(buf, 4096 * (i as u64 + 1))));
        }
        assert!(!c.tick(1, &mut d, &mut gm), "fully blocked cache reports no progress");
        let ready = c.next_response_ready().expect("miss in flight");
        assert!(ready > 16);
        let mut dense = c.clone();
        let mut replayed = c;
        // Dense: tick cycles 2..=9; replay: one closed-form call.
        for t in 2..10u64 {
            assert!(!dense.tick(t, &mut d, &mut gm));
        }
        replayed.replay_blocked(1, 8);
        assert_eq!(dense.stats, replayed.stats);
        assert_eq!(dense.rr, replayed.rr);
        assert_eq!(dense.latched_requests(), replayed.latched_requests());
    }

    /// Chunks that are not the same allocation.
    fn unshared(a: &Cache, b: &Cache) -> usize {
        a.chunks.iter().zip(&b.chunks).filter(|(x, y)| !Arc::ptr_eq(x, y)).count()
    }

    /// A clone shares every chunk; a miss copies the one chunk it fills, a
    /// store to a resident line changes only that line's dirty bit, and a
    /// flush points every chunk back at the shared empty one.
    #[test]
    fn clones_share_chunks_until_written() {
        let (mut c, mut d, mut gm, buf) = setup();
        let p = c.add_port();
        c.request(p, load(global_addr(buf, 0)));
        run_until_response(&mut c, &mut d, &mut gm, p, 0);
        let cut = c.clone();
        assert_eq!(unshared(&c, &cut), 0);

        // Set 100 lives in chunk 1, at bit 36.
        let addr = global_addr(buf, 100 * 64);
        c.request(p, load(addr));
        run_until_response(&mut c, &mut d, &mut gm, p, 1000);
        assert_eq!(unshared(&c, &cut), 1);
        assert!(!Arc::ptr_eq(&c.chunks[1], &cut.chunks[1]));

        let resident = c.clone();
        c.request(p, store(addr + 4, 9));
        run_until_response(&mut c, &mut d, &mut gm, p, 2000);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(unshared(&c, &resident), 1);
        let (old, new) = (&resident.chunks[1], &c.chunks[1]);
        assert_eq!(new.tags, old.tags);
        assert_eq!(new.prefetched, old.prefetched);
        assert_eq!(new.dirty ^ old.dirty, 1 << 36);

        c.flush(3000, &mut d);
        assert_eq!(c.stats.writebacks, 1);
        assert!(c.chunks.iter().all(|ch| Arc::ptr_eq(ch, &EMPTY)));
        // The clones still hold what they saw.
        assert_eq!(resident.tag(100), addr / 64);
        assert_eq!(cut.tag(100), INVALID);
    }
}

#[cfg(test)]
mod fairness_tests {
    use super::*;
    use crate::dram::DramConfig;
    use soff_frontend::types::Scalar;
    use soff_ir::mem::{global_addr, GlobalMemory};

    /// Under sustained contention, the round-robin datapath-cache arbiter
    /// must serve all ports within a bounded spread (§V-A).
    #[test]
    fn round_robin_is_fair_under_contention() {
        let mut c = Cache::new(CacheConfig::default());
        let mut d = Dram::new(DramConfig::default());
        let mut gm = GlobalMemory::new();
        let buf = gm.alloc(1 << 16);
        let ports: Vec<PortId> = (0..4).map(|_| c.add_port()).collect();
        let mut served = [0u32; 4];
        // Prime the line so everything hits (pure arbitration test).
        c.request(ports[0], MemRequest { op: MemOp::Load, addr: global_addr(buf, 0), ty: Scalar::I32, wi: 0, wg: 0 });
        for t in 0..200 {
            c.tick(t, &mut d, &mut gm);
            for (i, p) in ports.iter().enumerate() {
                if c.pop_response(*p).is_some() {
                    served[i] += 1;
                }
                if c.can_request(*p) {
                    c.request(*p, MemRequest {
                        op: MemOp::Load,
                        addr: global_addr(buf, 0),
                        ty: Scalar::I32,
                        wi: 0,
                        wg: 0,
                    });
                }
            }
        }
        let min = *served.iter().min().unwrap();
        let max = *served.iter().max().unwrap();
        assert!(min > 0, "every port must be served: {served:?}");
        assert!(max - min <= 2, "round-robin spread too large: {served:?}");
    }

    /// Stores to every set then flush: the cache must be fully clean after.
    #[test]
    fn flush_cleans_everything() {
        let mut c = Cache::new(CacheConfig { bytes: 1024, ..CacheConfig::default() });
        let mut d = Dram::new(DramConfig::default());
        let mut gm = GlobalMemory::new();
        let buf = gm.alloc(1 << 16);
        let p = c.add_port();
        let mut t = 0u64;
        for line in 0..16u64 {
            while !c.can_request(p) {
                c.tick(t, &mut d, &mut gm);
                t += 1;
            }
            c.request(p, MemRequest {
                op: MemOp::Store { value: line },
                addr: global_addr(buf, line * 64),
                ty: Scalar::I32,
                wi: 0,
                wg: 0,
            });
        }
        for _ in 0..2000 {
            c.tick(t, &mut d, &mut gm);
            c.pop_response(p);
            t += 1;
        }
        let wb_before = c.stats.writebacks;
        c.flush(t, &mut d);
        assert_eq!(c.stats.writebacks - wb_before, 16, "all 16 dirty lines written back");
        // A second flush finds nothing dirty.
        let wb = c.stats.writebacks;
        c.flush(t + 1, &mut d);
        assert_eq!(c.stats.writebacks, wb);
    }
}

#[cfg(test)]
mod clone_tests {
    use super::*;
    use crate::dram::DramConfig;
    use proptest::prelude::*;
    use soff_frontend::builtins::AtomicOp;
    use soff_frontend::types::Scalar;
    use soff_ir::mem::global_addr;

    /// A cache with the DRAM and memory it runs against.
    #[derive(Clone)]
    struct Rig {
        cache: Cache,
        dram: Dram,
        gm: GlobalMemory,
    }

    /// One request: (port, kind, line, word, value).
    type Op = (usize, u8, u64, u64, u64);

    fn request(buf: u32, (_, kind, line, word, value): Op) -> MemRequest {
        let op = match kind {
            0 => MemOp::Load,
            1 => MemOp::Store { value },
            _ => MemOp::Atomic { op: AtomicOp::Add, operands: vec![value] },
        };
        MemRequest { op, addr: global_addr(buf, line * 64 + word * 4), ty: Scalar::I32, wi: 0, wg: 0 }
    }

    impl Rig {
        /// Latches `feed`, ticks cycle `t`, and logs every response.
        fn cycle(&mut self, t: u64, feed: &[(u64, PortId, MemRequest)], out: &mut Vec<(u64, usize, u64)>) {
            for (_, p, r) in feed {
                self.cache.request(*p, r.clone());
            }
            self.cache.tick(t, &mut self.dram, &mut self.gm);
            for p in 0..self.cache.num_ports() {
                while let Some(r) = self.cache.pop_response(PortId(p)) {
                    out.push((t, p, r.value));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// A clone taken at any cycle and fed the requests the original
        /// received after it reproduces the original's responses, cache
        /// and DRAM statistics, flush and memory bytes, however the two
        /// (and the other clones) write the chunks they share.
        #[test]
        fn clones_replay_the_original(
            sets in prop_oneof![Just(48u64), Just(256u64)],
            prefetch_next in any::<bool>(),
            mshrs in 1u32..6,
            ports in 1usize..4,
            ops in prop::collection::vec((0usize..3, 0u8..3, 0u64..384, 0u64..16, 0u64..1000), 1..120),
            cuts in prop::collection::vec(0u64..600, 1..4),
        ) {
            let cfg = CacheConfig {
                bytes: sets * 64,
                max_outstanding_misses: mshrs,
                prefetch_next,
                ..CacheConfig::default()
            };
            let mut gm = GlobalMemory::new();
            let buf = gm.alloc(1 << 16);
            let mut rig = Rig { cache: Cache::new(cfg), dram: Dram::new(DramConfig::default()), gm };
            let mut pending = vec![VecDeque::new(); ports];
            for op in &ops {
                pending[op.0 % ports].push_back(request(buf, *op));
            }
            let ids: Vec<PortId> = (0..ports).map(|_| rig.cache.add_port()).collect();

            // The original: every port latches its next request as soon as
            // it can, until all are answered.
            let (mut fed, mut out, mut clones) = (Vec::new(), Vec::new(), Vec::new());
            let mut t = 0;
            while pending.iter().any(|q| !q.is_empty()) || !rig.cache.is_idle() {
                if cuts.contains(&t) {
                    clones.push((t, fed.len(), out.len(), rig.clone()));
                }
                let first = fed.len();
                for (q, &p) in pending.iter_mut().zip(&ids) {
                    if rig.cache.can_request(p) {
                        if let Some(r) = q.pop_front() {
                            fed.push((t, p, r));
                        }
                    }
                }
                rig.cycle(t, &fed[first..], &mut out);
                t += 1;
            }
            let done = rig.cache.flush(t, &mut rig.dram);

            for (cut, fed_at, out_at, mut clone) in clones {
                let mut replayed = Vec::new();
                let mut next = fed_at;
                for now in cut..t {
                    let first = next;
                    while fed.get(next).is_some_and(|f| f.0 == now) {
                        next += 1;
                    }
                    clone.cycle(now, &fed[first..next], &mut replayed);
                }
                prop_assert_eq!(clone.cache.flush(t, &mut clone.dram), done);
                prop_assert_eq!(&replayed[..], &out[out_at..], "responses after cycle {cut} differ");
                prop_assert_eq!(clone.cache.stats, rig.cache.stats);
                prop_assert_eq!(clone.dram.stats, rig.dram.stats);
                prop_assert_eq!(clone.gm.buffer(buf).bytes(), rig.gm.buffer(buf).bytes());
            }
        }
    }
}
