//! Shift-register line buffer: the sliding-window companion to
//! [`crate::cache::Cache`] (DESIGN.md §13, ROADMAP item 4).
//!
//! A line buffer serves one detected sliding window
//! (`soff_ir::window::SlidingWindow`): a read-only `__global` buffer
//! whose loads form a constant-offset neighborhood. Instead of
//! arbitrating every tap onto a single cache port, the line buffer
//! *streams* the buffer once from DRAM — a demand-driven sequential
//! prefetch a few lines ahead of the highest address requested so far —
//! and keeps the streamed span resident in a modeled shift register.
//! Every port whose request falls inside the filled span is served **in
//! the same cycle** (register-file latency, `hit_latency`), so a 9-tap
//! stencil costs ~1 cycle per work-item instead of ~9 cycles of cache
//! arbitration.
//!
//! Timing model:
//!
//! - Each port has a one-deep request latch (`can_request` /
//!   [`LineBuffer::request`]), exactly like a cache port.
//! - [`LineBuffer::tick`] first retires matured line fills **in issue
//!   order** (a shift register fills sequentially even when DRAM
//!   channels complete out of order), then serves *every* latched
//!   request whose bytes are resident, then issues new fills up to
//!   `stream_credits` outstanding lines, targeting `slack_lines` beyond
//!   the demand high-water mark.
//! - Requests *below* the stream base (the first line ever demanded)
//!   are served as register hits: the window registers covering those
//!   bytes are modeled as still live. This is a deliberate, deterministic
//!   approximation — values are always read from functional memory by
//!   their actual address, so it can only flatter timing, never change
//!   data.
//!
//! The unit is read-only by construction (window detection rejects
//! groups with stores or atomics), so there is nothing to write back and
//! no dirty state.
//!
//! Determinism: the only statistics are per-*event* counters (serves,
//! fills, first-time underruns) — there are no per-idle-cycle counters —
//! so the fast scheduler's fast-forward needs no replay
//! equivalent of [`crate::cache::Cache::replay_blocked`]: skipped cycles
//! are cycles in which `tick` would not have changed anything.

use crate::dram::Dram;
use crate::request::{MemOp, MemRequest, MemResponse, PortId};
use soff_ir::mem::GlobalMemory;
use std::collections::VecDeque;

/// Line-buffer timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineBufConfig {
    /// Cycles from accepting a resident request to the response being
    /// poppable (register read + output mux).
    pub hit_latency: u32,
    /// Maximum outstanding line fills the stream engine keeps in flight.
    pub stream_credits: u32,
    /// Lines to prefetch beyond the demand high-water mark.
    pub slack_lines: u32,
    /// Line (DRAM burst) size in bytes.
    pub line: u32,
}

impl Default for LineBufConfig {
    fn default() -> Self {
        LineBufConfig { hit_latency: 2, stream_credits: 8, slack_lines: 4, line: 64 }
    }
}

/// Line-buffer statistics. Every field counts *events*, never idle
/// cycles (see the module doc on determinism).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineBufStats {
    /// Requests served.
    pub accesses: u64,
    /// Requests served the first time they were examined (the window
    /// register file covered them — no stream wait).
    pub window_hits: u64,
    /// Requests that had to wait for the stream at least one cycle
    /// (counted once per request, not per waiting cycle).
    pub underruns: u64,
    /// Line fills issued to DRAM.
    pub stream_refills: u64,
    /// Bytes fetched from DRAM (`stream_refills × line`).
    pub bytes_from_dram: u64,
    /// Bytes delivered to the datapath (sum of served access widths).
    pub bytes_served: u64,
}

impl LineBufStats {
    /// Accumulates another stats block (per-unit → per-machine, or
    /// per-launch → per-application totals).
    pub fn merge(&mut self, o: &LineBufStats) {
        self.accesses += o.accesses;
        self.window_hits += o.window_hits;
        self.underruns += o.underruns;
        self.stream_refills += o.stream_refills;
        self.bytes_from_dram += o.bytes_from_dram;
        self.bytes_served += o.bytes_served;
    }
}

/// A shift-register window generator for one sliding window of one
/// datapath instance.
#[derive(Debug, Clone)]
pub struct LineBuffer {
    cfg: LineBufConfig,
    /// One-deep request latch per port.
    latches: Vec<Option<MemRequest>>,
    /// Whether the latched request has already been counted as an
    /// underrun (parallel to `latches`).
    waited: Vec<bool>,
    /// Per-port response queues: `(ready cycle, response)` in FIFO order.
    out: Vec<VecDeque<(u64, MemResponse)>>,
    /// Stream base (byte address of the first line demanded); `None`
    /// until the first request arrives.
    start: Option<u64>,
    /// Next byte address to request from DRAM (absolute).
    issued_until: u64,
    /// Bytes `[start, filled_until)` are resident in the shift register.
    filled_until: u64,
    /// Highest request end-address seen so far (demand high-water mark).
    high_water: u64,
    /// In-flight fills: `(ready cycle, new filled_until)` in issue order.
    fills: VecDeque<(u64, u64)>,
    /// Encoded base address of the buffer the window slides over
    /// (`launch params[window.param]`). Requests outside the buffer's
    /// extent are *boundary taps* — speculative neighbor loads past the
    /// array edge (`in[i-1]` at `i == 0` under a select) whose address
    /// wrapped out of range. The forward stream can never reach them, so
    /// they are served straight from the boundary-handling muxes (see
    /// [`LineBuffer::tick`]).
    buf_base: u64,
    /// Fault injection: reject new requests at every port while set.
    fault_jam: bool,
    /// Statistics.
    pub stats: LineBufStats,
}

impl LineBuffer {
    /// Creates a line buffer with the given timing for the window over
    /// the buffer whose encoded base address is `buf_base`.
    pub fn new(cfg: LineBufConfig, buf_base: u64) -> Self {
        LineBuffer {
            cfg,
            latches: Vec::new(),
            waited: Vec::new(),
            out: Vec::new(),
            start: None,
            issued_until: 0,
            filled_until: 0,
            high_water: 0,
            fills: VecDeque::new(),
            buf_base,
            fault_jam: false,
            stats: LineBufStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> LineBufConfig {
        self.cfg
    }

    /// Fault injection: while set, every port rejects new requests
    /// (already-latched requests still get served — the jam models the
    /// request network, not the register file).
    pub fn set_fault_jam(&mut self, jam: bool) {
        self.fault_jam = jam;
    }

    /// Whether a jam fault is currently applied.
    pub fn fault_active(&self) -> bool {
        self.fault_jam
    }

    /// Registers a new port (one per window tap) and returns its id.
    pub fn add_port(&mut self) -> PortId {
        self.latches.push(None);
        self.waited.push(false);
        self.out.push(VecDeque::new());
        PortId(self.latches.len() - 1)
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.latches.len()
    }

    /// Whether port `p` can latch a new request this cycle.
    pub fn can_request(&self, p: PortId) -> bool {
        self.latches[p.0].is_none() && !self.fault_jam
    }

    /// Latches a request on port `p`. Only loads are routed here (window
    /// detection guarantees the group is read-only).
    ///
    /// # Panics
    ///
    /// Panics if the port already holds a request or the request is not
    /// a load.
    pub fn request(&mut self, p: PortId, req: MemRequest) {
        assert!(self.latches[p.0].is_none(), "port {p:?} already has a pending request");
        assert!(matches!(req.op, MemOp::Load), "line buffer ports serve loads only");
        self.latches[p.0] = Some(req);
        self.waited[p.0] = false;
    }

    /// Pops the response for port `p` if one is ready at `now`.
    pub fn pop_response(&mut self, p: PortId, now: u64) -> Option<MemResponse> {
        match self.out[p.0].front() {
            Some((ready, _)) if *ready <= now => self.out[p.0].pop_front().map(|(_, r)| r),
            _ => None,
        }
    }

    /// Advances the line buffer by one cycle: retires matured fills,
    /// serves every resident latched request (all ports in parallel —
    /// this is the whole point), and issues new stream fills. Returns
    /// whether anything changed (fill retired, request served, or fill
    /// issued); a `false` return guarantees the next cycle would be
    /// identical, which the fast scheduler relies on.
    pub fn tick(&mut self, now: u64, dram: &mut Dram, gm: &GlobalMemory) -> bool {
        let mut moved = false;
        // Retire matured fills in issue order.
        while self.fills.front().is_some_and(|&(ready, _)| ready <= now) {
            let (_, until) = self.fills.pop_front().expect("front checked");
            self.filled_until = until;
            moved = true;
        }

        // The buffer's extent in the encoded address space. A request
        // outside it is a boundary tap (see `buf_base`): it must never
        // drive the demand high-water mark — the stream cannot reach it
        // — so it is served immediately from the boundary muxes. The
        // value still comes from functional memory by actual address
        // (out-of-range reads as zero there), so the data is
        // bit-identical to the cache path's.
        let (buf, _) = soff_ir::mem::split_global(self.buf_base);
        let buf_end = if (buf as usize) < gm.num_buffers() {
            soff_ir::mem::global_addr(buf, gm.buffer(buf).len() as u64)
        } else {
            self.buf_base
        };
        let in_buf = |addr: u64, end: Option<u64>| {
            addr >= self.buf_base && end.is_some_and(|e| e <= buf_end)
        };

        // Serve boundary taps (even before the stream base exists).
        for p in 0..self.latches.len() {
            let Some(req) = &self.latches[p] else { continue };
            let end = req.addr.checked_add(req.ty.size() as u64);
            if in_buf(req.addr, end) {
                continue;
            }
            let req = self.latches[p].take().expect("checked above");
            let value = gm.read(req.addr, req.ty);
            self.out[p].push_back((now + self.cfg.hit_latency as u64, MemResponse { value }));
            self.stats.accesses += 1;
            self.stats.bytes_served += req.ty.size() as u64;
            if !self.waited[p] {
                self.stats.window_hits += 1;
            }
            self.waited[p] = false;
            moved = true;
        }

        // Initialize the stream base from the first in-buffer demand.
        if self.start.is_none() {
            if let Some(min_addr) =
                self.latches.iter().flatten().map(|r| r.addr).min()
            {
                let base = min_addr - min_addr % self.cfg.line as u64;
                self.start = Some(base);
                self.issued_until = base;
                self.filled_until = base;
                self.high_water = base;
            }
        }

        // Serve every resident request (parallel per-port delivery).
        if let Some(start) = self.start {
            for p in 0..self.latches.len() {
                let Some(req) = &self.latches[p] else { continue };
                let end = req.addr + req.ty.size() as u64;
                self.high_water = self.high_water.max(end);
                if end <= self.filled_until || req.addr < start {
                    let req = self.latches[p].take().expect("checked above");
                    let value = gm.read(req.addr, req.ty);
                    self.out[p].push_back((
                        now + self.cfg.hit_latency as u64,
                        MemResponse { value },
                    ));
                    self.stats.accesses += 1;
                    self.stats.bytes_served += req.ty.size() as u64;
                    if !self.waited[p] {
                        self.stats.window_hits += 1;
                    }
                    self.waited[p] = false;
                    moved = true;
                } else if !self.waited[p] {
                    self.waited[p] = true;
                    self.stats.underruns += 1;
                    moved = true;
                }
            }

            // Stream: fill toward the demand high-water mark plus slack.
            let line = self.cfg.line as u64;
            let target = {
                let hw = self.high_water.div_ceil(line) * line;
                if hw > start { hw + self.cfg.slack_lines as u64 * line } else { start }
            };
            while self.issued_until < target
                && (self.fills.len() as u32) < self.cfg.stream_credits
            {
                let ready = dram.request_line(now, self.issued_until / line, false);
                self.fills.push_back((ready, self.issued_until + line));
                self.issued_until += line;
                self.stats.stream_refills += 1;
                self.stats.bytes_from_dram += line;
                moved = true;
            }
        }
        moved
    }

    /// Whether the line buffer holds any timing state that must advance
    /// before the machine can be fast-forwarded past it.
    pub fn has_pending_events(&self) -> bool {
        !self.fills.is_empty()
            || self.latches.iter().any(|l| l.is_some())
            || self.out.iter().any(|q| !q.is_empty())
    }

    /// The earliest cycle at which something new happens: the next fill
    /// retires or a queued response becomes poppable.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let fill = self.fills.front().map(|&(ready, _)| ready);
        let resp = self.out.iter().filter_map(|q| q.front().map(|&(ready, _)| ready)).min();
        match (fill, resp) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Completely idle: no latched requests, no in-flight fills, no
    /// undelivered responses.
    pub fn is_idle(&self) -> bool {
        !self.has_pending_events()
    }

    /// Number of latched (not yet served) requests.
    pub fn latched_requests(&self) -> usize {
        self.latches.iter().filter(|l| l.is_some()).count()
    }

    /// Number of in-flight stream fills.
    pub fn inflight_fills(&self) -> usize {
        self.fills.len()
    }

    /// Number of responses queued but not yet popped.
    pub fn pending_responses(&self) -> usize {
        self.out.iter().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;
    use soff_frontend::types::Scalar;
    use soff_ir::mem::global_addr;

    fn setup() -> (LineBuffer, Dram, GlobalMemory) {
        let lb = LineBuffer::new(LineBufConfig::default(), global_addr(0, 0));
        let dram = Dram::new(DramConfig::default());
        let mut gm = GlobalMemory::new();
        let buf = gm.alloc(1 << 16);
        assert_eq!(buf, 0);
        for i in 0..1024u64 {
            gm.buffer_mut(buf).write_scalar(i * 4, Scalar::I32, i);
        }
        (lb, dram, gm)
    }

    fn load(addr: u64) -> MemRequest {
        MemRequest { op: MemOp::Load, addr, ty: Scalar::I32, wi: 0, wg: 0 }
    }

    fn run_until_response(
        lb: &mut LineBuffer,
        dram: &mut Dram,
        gm: &GlobalMemory,
        p: PortId,
        mut now: u64,
    ) -> (u64, MemResponse) {
        for _ in 0..10_000 {
            lb.tick(now, dram, gm);
            if let Some(r) = lb.pop_response(p, now) {
                return (now, r);
            }
            now += 1;
        }
        panic!("no response after 10k cycles");
    }

    #[test]
    fn first_request_streams_then_serves() {
        let (mut lb, mut dram, gm) = setup();
        let p = lb.add_port();
        lb.request(p, load(global_addr(0, 40)));
        let (t, r) = run_until_response(&mut lb, &mut dram, &gm, p, 0);
        assert_eq!(r.value, 10);
        // One line fill (latency 38 + 4 per line) plus hit latency.
        assert!(t >= 42, "served at {t}, before DRAM could have delivered");
        assert_eq!(lb.stats.accesses, 1);
        assert_eq!(lb.stats.underruns, 1);
        assert_eq!(lb.stats.window_hits, 0);
        assert!(lb.stats.stream_refills >= 1);
    }

    #[test]
    fn resident_taps_serve_in_parallel() {
        let (mut lb, mut dram, gm) = setup();
        let ports: Vec<PortId> = (0..9).map(|_| lb.add_port()).collect();
        // Prime the stream.
        lb.request(ports[0], load(global_addr(0, 0)));
        let (t0, _) = run_until_response(&mut lb, &mut dram, &gm, ports[0], 0);
        // Stream has prefetched slack lines; a full 9-tap window inside
        // the filled span is served in ONE tick, every port at once.
        for (k, p) in ports.iter().enumerate() {
            lb.request(*p, load(global_addr(0, k as u64 * 4)));
        }
        let now = t0 + 1;
        lb.tick(now, &mut dram, &gm);
        for (k, p) in ports.iter().enumerate() {
            let r = lb
                .pop_response(*p, now + lb.config().hit_latency as u64)
                .expect("all taps served in one cycle");
            assert_eq!(r.value, k as u64);
        }
        assert_eq!(lb.stats.window_hits, 9);
    }

    #[test]
    fn below_base_requests_hit_the_window_registers() {
        let (mut lb, mut dram, gm) = setup();
        let p = lb.add_port();
        // Stream starts at line 4 (byte 256).
        lb.request(p, load(global_addr(0, 256)));
        let (t, _) = run_until_response(&mut lb, &mut dram, &gm, p, 0);
        // A request below the stream base is a register hit.
        lb.request(p, load(global_addr(0, 12)));
        let now = t + 1;
        lb.tick(now, &mut dram, &gm);
        let r = lb.pop_response(p, now + 2).expect("below-base request served as a hit");
        assert_eq!(r.value, 3);
    }

    #[test]
    fn responses_respect_hit_latency() {
        let (mut lb, mut dram, gm) = setup();
        let p = lb.add_port();
        lb.request(p, load(global_addr(0, 0)));
        let mut now = 0;
        loop {
            lb.tick(now, &mut dram, &gm);
            if lb.pending_responses() > 0 {
                break;
            }
            now += 1;
        }
        // Queued at `now`, poppable only hit_latency cycles later.
        assert!(lb.pop_response(p, now).is_none());
        assert!(lb.pop_response(p, now + 1).is_none());
        assert!(lb.pop_response(p, now + 2).is_some());
    }

    #[test]
    fn jam_fault_blocks_new_requests_only() {
        let (mut lb, mut dram, gm) = setup();
        let p = lb.add_port();
        lb.request(p, load(global_addr(0, 0)));
        lb.set_fault_jam(true);
        assert!(!lb.can_request(p));
        // The latched request still completes.
        let (_, r) = run_until_response(&mut lb, &mut dram, &gm, p, 0);
        assert_eq!(r.value, 0);
        lb.set_fault_jam(false);
        assert!(lb.can_request(p));
    }

    #[test]
    fn underrun_counted_once_per_request() {
        let (mut lb, mut dram, gm) = setup();
        let p = lb.add_port();
        lb.request(p, load(global_addr(0, 0)));
        // Many waiting ticks before the fill matures: one underrun.
        for now in 0..10 {
            lb.tick(now, &mut dram, &gm);
        }
        assert_eq!(lb.stats.underruns, 1);
    }

    #[test]
    fn stream_prefetches_ahead_of_demand() {
        let (mut lb, mut dram, gm) = setup();
        let p = lb.add_port();
        lb.request(p, load(global_addr(0, 0)));
        let (t, _) = run_until_response(&mut lb, &mut dram, &gm, p, 0);
        // Drain the prefetch pipeline.
        for now in t..t + 200 {
            lb.tick(now, &mut dram, &gm);
        }
        // Demand ended at byte 4; slack_lines=4 keeps 4 lines ahead of
        // the demanded line.
        let line = lb.config().line as u64;
        let expected = line + lb.config().slack_lines as u64 * line;
        assert_eq!(lb.stats.bytes_from_dram, expected);
        assert!(lb.is_idle());
    }

    #[test]
    fn pending_events_track_fills_and_responses() {
        let (mut lb, mut dram, gm) = setup();
        let p = lb.add_port();
        assert!(!lb.has_pending_events());
        lb.request(p, load(global_addr(0, 0)));
        assert!(lb.has_pending_events());
        lb.tick(0, &mut dram, &gm);
        assert!(lb.next_event_cycle().is_some());
        let (t, _) = run_until_response(&mut lb, &mut dram, &gm, p, 0);
        for now in t..t + 200 {
            lb.tick(now, &mut dram, &gm);
        }
        assert!(!lb.has_pending_events());
        assert_eq!(lb.next_event_cycle(), None);
    }
}
