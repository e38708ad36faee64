//! Local memory blocks (§V-B, Fig. 10).
//!
//! One block per `__local` variable. A block provides `2^⌈log2 N⌉` banks
//! for its `N` connected functional units, selected by the low bits of the
//! word address; conflict-free accesses proceed in parallel, conflicting
//! ones serialize. The block stores `⌈L_Datapath/256⌉` work-group slots so
//! that several work-groups can be in flight; the requesting token's
//! work-group serial selects the slot.

use crate::request::{MemOp, MemRequest, MemResponse, PortId};
use soff_ir::eval;
use soff_ir::mem::ByteStore;
use std::collections::VecDeque;

/// Statistics for one local memory block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalStats {
    /// Accepted requests.
    pub accesses: u64,
    /// Requests delayed by a bank conflict.
    pub bank_conflicts: u64,
}

/// A banked local-memory block.
#[derive(Debug, Clone)]
pub struct LocalBlock {
    /// Bytes per work-group slot.
    size: u64,
    /// Access latency in cycles.
    latency: u32,
    banks: u32,
    /// Storage, one per work-group slot.
    slots: Vec<ByteStore>,
    latches: Vec<Option<MemRequest>>,
    /// Occupied latches (kept with every latch and take, so an idle tick
    /// need not scan the ports).
    latched: usize,
    out: Vec<VecDeque<(u64, MemResponse)>>,
    /// Banks granted so far in the current `tick` (kept here so a tick
    /// allocates nothing).
    bank_used: Vec<bool>,
    /// Statistics.
    pub stats: LocalStats,
}

impl LocalBlock {
    /// Creates a block of `size` bytes per slot with `wg_slots` slots and
    /// `num_units` connected functional units.
    pub fn new(size: u64, wg_slots: u64, num_units: usize, latency: u32) -> Self {
        let banks = (num_units.max(1) as u32).next_power_of_two();
        LocalBlock {
            size,
            latency,
            banks,
            slots: (0..wg_slots.max(1)).map(|_| ByteStore::new(size as usize)).collect(),
            latches: vec![None; num_units.max(1)],
            latched: 0,
            out: vec![VecDeque::new(); num_units.max(1)],
            bank_used: vec![false; banks as usize],
            stats: LocalStats::default(),
        }
    }

    /// Number of banks.
    pub fn num_banks(&self) -> u32 {
        self.banks
    }

    /// Number of work-group slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Bytes per slot.
    pub fn slot_size(&self) -> u64 {
        self.size
    }

    /// Resizes the block (used for `__local` pointer kernel arguments
    /// whose size the host sets at `clSetKernelArg` time).
    pub fn resize(&mut self, size: u64) {
        self.size = size;
        for s in &mut self.slots {
            *s = ByteStore::new(size as usize);
        }
    }

    /// Whether port `p` can accept a request.
    pub fn can_request(&self, p: PortId) -> bool {
        self.latches[p.0].is_none()
    }

    /// Latches a request on port `p`.
    ///
    /// # Panics
    ///
    /// Panics if the port latch is full.
    pub fn request(&mut self, p: PortId, req: MemRequest) {
        assert!(self.latches[p.0].is_none(), "local port {p:?} busy");
        self.latches[p.0] = Some(req);
        self.latched += 1;
    }

    /// Pops a ready response for port `p`.
    pub fn pop_response(&mut self, p: PortId, now: u64) -> Option<MemResponse> {
        if let Some((ready, _)) = self.out[p.0].front() {
            if *ready <= now {
                return self.out[p.0].pop_front().map(|(_, r)| r);
            }
        }
        None
    }

    /// Whether the block still has responses scheduled for a future cycle
    /// (used by the simulator's progress watchdog).
    pub fn has_pending_events(&self, now: u64) -> bool {
        self.out.iter().any(|q| q.iter().any(|(ready, _)| *ready > now))
    }

    /// The ready cycle of the earliest queued response, if any.
    pub fn next_response_ready(&self) -> Option<u64> {
        self.out.iter().filter_map(|q| q.front().map(|(ready, _)| *ready)).min()
    }

    /// Advances one cycle: services at most one request per bank.
    ///
    /// Returns whether any request was accepted. The first occupied latch
    /// always wins its bank, so any latched request guarantees progress —
    /// a `false` return means the block was completely idle.
    pub fn tick(&mut self, now: u64) -> bool {
        debug_assert_eq!(self.latched, self.latches.iter().flatten().count());
        if self.latched == 0 {
            return false;
        }
        let mut moved = false;
        self.bank_used.fill(false);
        for p in 0..self.latches.len() {
            let Some(req) = self.latches[p].as_ref() else { continue };
            // Word-addressed banking: the low log2(banks) bits of the word
            // address select the bank (Fig. 10).
            let (_, offset) = soff_ir::mem::split_local(req.addr);
            let bank = ((offset / 4) % self.banks as u64) as usize;
            if self.bank_used[bank] {
                self.stats.bank_conflicts += 1;
                continue;
            }
            self.bank_used[bank] = true;
            let req = self.latches[p].take().expect("checked above");
            self.latched -= 1;
            self.stats.accesses += 1;
            let slot = (req.wg as usize) % self.slots.len();
            let value = self.apply(slot, &req);
            self.out[p].push_back((now + self.latency as u64, MemResponse { value }));
            moved = true;
        }
        moved
    }

    fn apply(&mut self, slot: usize, req: &MemRequest) -> u64 {
        let (_, offset) = soff_ir::mem::split_local(req.addr);
        let store = &mut self.slots[slot];
        match &req.op {
            MemOp::Load => store.read_scalar(offset, req.ty),
            MemOp::Store { value } => {
                store.write_scalar(offset, req.ty, *value);
                0
            }
            MemOp::Atomic { op, operands } => {
                let old = store.read_scalar(offset, req.ty);
                let (new, ret) = eval::eval_atomic(*op, req.ty, old, operands);
                store.write_scalar(offset, req.ty, new);
                ret
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soff_frontend::types::Scalar;
    use soff_ir::mem::local_addr;

    fn store_req(off: u64, v: u64, wg: u32) -> MemRequest {
        MemRequest {
            op: MemOp::Store { value: v },
            addr: local_addr(0, off),
            ty: Scalar::I32,
            wi: 0,
            wg,
        }
    }

    fn load_req(off: u64, wg: u32) -> MemRequest {
        MemRequest { op: MemOp::Load, addr: local_addr(0, off), ty: Scalar::I32, wi: 0, wg }
    }

    #[test]
    fn bank_count_rounds_up() {
        assert_eq!(LocalBlock::new(64, 1, 3, 2).num_banks(), 4);
        assert_eq!(LocalBlock::new(64, 1, 4, 2).num_banks(), 4);
        assert_eq!(LocalBlock::new(64, 1, 5, 2).num_banks(), 8);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut b = LocalBlock::new(64, 1, 2, 2);
        let p0 = PortId(0);
        b.request(p0, store_req(8, 123, 0));
        b.tick(0);
        assert!(b.pop_response(p0, 2).is_some());
        b.request(p0, load_req(8, 0));
        b.tick(10);
        let r = b.pop_response(p0, 12).expect("load response");
        assert_eq!(r.value, 123);
    }

    #[test]
    fn work_group_slots_are_isolated() {
        let mut b = LocalBlock::new(64, 2, 2, 1);
        b.request(PortId(0), store_req(0, 111, 0)); // wg 0 → slot 0
        b.request(PortId(1), store_req(0, 222, 1)); // wg 1 → slot 1
        // Same word in different slots shares a bank: two ticks needed.
        b.tick(0);
        b.tick(1);
        assert!(b.pop_response(PortId(0), 5).is_some());
        assert!(b.pop_response(PortId(1), 5).is_some());
        b.request(PortId(0), load_req(0, 0));
        b.request(PortId(1), load_req(0, 1));
        b.tick(6);
        b.tick(7);
        assert_eq!(b.pop_response(PortId(0), 10).map(|r| r.value), Some(111));
        assert_eq!(b.pop_response(PortId(1), 10).map(|r| r.value), Some(222));
    }

    #[test]
    fn conflicting_banks_serialize() {
        let mut b = LocalBlock::new(256, 1, 2, 1);
        // Offsets 0 and banks*4 map to the same bank.
        let stride = b.num_banks() as u64 * 4;
        b.request(PortId(0), store_req(0, 1, 0));
        b.request(PortId(1), store_req(stride, 2, 0));
        b.tick(0);
        assert!(b.stats.bank_conflicts >= 1);
        // Second request still latched; next cycle it goes through.
        b.tick(1);
        assert_eq!(b.stats.accesses, 2);
    }

    #[test]
    fn different_banks_in_parallel() {
        let mut b = LocalBlock::new(256, 1, 2, 1);
        b.request(PortId(0), store_req(0, 1, 0));
        b.request(PortId(1), store_req(4, 2, 0)); // adjacent word: other bank
        b.tick(0);
        assert_eq!(b.stats.accesses, 2);
        assert_eq!(b.stats.bank_conflicts, 0);
    }

    #[test]
    fn latency_gates_response() {
        let mut b = LocalBlock::new(64, 1, 1, 3);
        b.request(PortId(0), load_req(0, 0));
        b.tick(0);
        assert!(b.pop_response(PortId(0), 1).is_none());
        assert!(b.pop_response(PortId(0), 3).is_some());
    }
}
