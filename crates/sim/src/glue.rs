//! Glue-logic components (§IV-D, §IV-E3, §IV-F).
//!
//! * [`Branch`] routes a work-item to one of two successors based on the
//!   live-out condition value; with order preservation it also records its
//!   decision into a side FIFO.
//! * [`Select`] merges two streams; the ordered variant uses the paper's
//!   work-group-id queue (Fig. 8 (a)): the branch enqueues the work-group
//!   id of every routed work-item, and the select only delivers work-items
//!   whose work-group matches the queue head. Note that replaying exact
//!   per-work-item decisions instead would deadlock: with a barrier inside
//!   the branch, a work-item that lapped the loop could be ordered *before*
//!   a slower work-item the barrier still waits for. Intra-group reorder
//!   must remain legal; only the group order is preserved.
//! * [`LoopEnter`]/[`LoopExit`] share a work-item counter and cap loop
//!   occupancy at `N_max` (deadlock prevention, Theorem 1); the SWGR
//!   variants additionally admit only one work-group at a time
//!   (Fig. 8 (d)).
//! * [`BarrierUnit`] is the work-group barrier FIFO (§IV-F1).

use crate::channel::{ChanId, Channels};
use crate::profile::CycleBreakdown;
use crate::token::{Mapping, Token};
use std::collections::VecDeque;

/// Branch glue.
#[derive(Debug, Clone)]
pub struct Branch {
    /// Input channel (raw live-out signature of the condition block).
    pub inp: ChanId,
    /// Index of the condition value within the input signature.
    pub cond_idx: usize,
    /// Taken output (channel, mapping).
    pub taken: (ChanId, Mapping),
    /// Not-taken output.
    pub not_taken: (ChanId, Mapping),
    /// Order-preservation side FIFO of work-group ids (shared with the
    /// matching select glue).
    pub decisions: Option<usize>,
    /// Cycle attribution (exactly one category per tick).
    pub cycles: CycleBreakdown,
}

/// Select glue merging the two arms of a branch.
#[derive(Debug, Clone)]
pub struct Select {
    /// Arm delivering "taken" work-items.
    pub from_taken: ChanId,
    /// Arm delivering "not taken" work-items.
    pub from_not_taken: ChanId,
    /// Output channel (inputs are already in the output signature).
    pub out: ChanId,
    /// Decision FIFO index (ordered variant) or `None` (free round-robin).
    pub decisions: Option<usize>,
    /// Round-robin pointer for the unordered variant.
    pub rr: bool,
    /// Cycle attribution (exactly one category per tick).
    pub cycles: CycleBreakdown,
}

/// Loop entrance glue (plain or SWGR).
#[derive(Debug, Clone)]
pub struct LoopEnter {
    /// Channel from outside the loop.
    pub outside: ChanId,
    /// Back-edge channel (priority — this is what prevents deadlock when
    /// the loop is at capacity).
    pub backedge: ChanId,
    /// Output toward the loop's first pipeline.
    pub out: ChanId,
    /// Shared occupancy counter index.
    pub counter: usize,
    /// Occupancy bound `N_max`.
    pub nmax: u64,
    /// Single-work-group-region behaviour (Fig. 8 (d)).
    pub swgr: bool,
    /// Current work-group when `swgr` (valid while the loop is non-empty).
    pub cur_wg: u32,
    /// Cycle attribution (exactly one category per tick).
    pub cycles: CycleBreakdown,
}

/// Loop exit glue: decrements the shared counter.
#[derive(Debug, Clone)]
pub struct LoopExit {
    /// Input (the not-taken arm of the loop condition's branch).
    pub inp: ChanId,
    /// Output toward the code after the loop.
    pub out: ChanId,
    /// Shared occupancy counter index.
    pub counter: usize,
    /// Sticky flag: a work-item left the loop while the occupancy counter
    /// was already zero (e.g. a duplicated token). The machine surfaces
    /// this as an invariant violation instead of wrapping the counter.
    pub underflow: bool,
    /// Cycle attribution (exactly one category per tick).
    pub cycles: CycleBreakdown,
}

/// The work-group barrier unit: a FIFO that releases one complete
/// work-group at a time (§IV-F1).
#[derive(Debug, Clone)]
pub struct BarrierUnit {
    /// Input channel.
    pub inp: ChanId,
    /// Output channel (same signature).
    pub out: ChanId,
    /// Work-group size of the current launch.
    pub wg_size: u64,
    /// Stored live-variable tokens.
    pub buf: VecDeque<Token>,
    /// Tokens of the released work-group still to emit.
    pub releasing: u64,
    /// Sticky flag: a release window contained work-items of more than one
    /// work-group — the upstream order-preservation machinery failed (or a
    /// token was dropped/duplicated by fault injection). The machine
    /// surfaces this as an invariant violation.
    pub order_violation: bool,
    /// Cycle attribution (exactly one category per tick).
    pub cycles: CycleBreakdown,
}

/// A bounded side FIFO of work-group ids (§IV-F1: "the branch glue
/// enqueues the work-group ID of every incoming work-item").
#[derive(Debug, Clone)]
pub struct DecisionFifo {
    /// Stored work-group ids, one per routed work-item.
    pub q: VecDeque<u32>,
    /// Capacity (must cover the construct's work-item capacity).
    pub cap: usize,
}

impl Branch {
    /// Advances one cycle.
    pub fn tick(&mut self, chans: &mut Channels<Token>, fifos: &mut [DecisionFifo]) {
        let Some(front) = chans[self.inp.0].front() else {
            self.cycles.idle += 1;
            return;
        };
        let taken = front.vals[self.cond_idx] != 0;
        let (dst, map) = if taken { &self.taken } else { &self.not_taken };
        if !chans[dst.0].can_push() {
            self.cycles.output_stall += 1;
            return;
        }
        if let Some(f) = self.decisions {
            if fifos[f].q.len() >= fifos[f].cap {
                self.cycles.output_stall += 1;
                return;
            }
        }
        let tok = chans.pop(self.inp.0);
        let wg = tok.wg;
        chans.push(dst.0, map.apply(tok));
        if let Some(f) = self.decisions {
            fifos[f].q.push_back(wg);
        }
        self.cycles.busy += 1;
    }
}

impl Select {
    /// Advances one cycle (delivers at most one work-item).
    pub fn tick(&mut self, chans: &mut Channels<Token>, fifos: &mut [DecisionFifo]) {
        let has_input =
            chans[self.from_taken.0].can_pop() || chans[self.from_not_taken.0].can_pop();
        if !chans[self.out.0].can_push() {
            if has_input {
                self.cycles.output_stall += 1;
            } else {
                self.cycles.idle += 1;
            }
            return;
        }
        match self.decisions {
            Some(f) => {
                // Work-group-order preservation: deliver any work-item of
                // the work-group at the head of the id queue, from either
                // arm (both arms preserve work-group order internally).
                let Some(&head_wg) = fifos[f].q.front() else {
                    // An input without a decision means the branch has not
                    // recorded the routing yet: the merge cannot issue.
                    if has_input {
                        self.cycles.issue_stall += 1;
                    } else {
                        self.cycles.idle += 1;
                    }
                    return;
                };
                let order = if self.rr {
                    [self.from_taken, self.from_not_taken]
                } else {
                    [self.from_not_taken, self.from_taken]
                };
                for src in order {
                    let matches =
                        chans[src.0].front().map(|t| t.wg == head_wg).unwrap_or(false);
                    if matches {
                        fifos[f].q.pop_front();
                        let tok = chans.pop(src.0);
                        chans.push(self.out.0, tok);
                        self.rr = !self.rr;
                        self.cycles.busy += 1;
                        return;
                    }
                }
                // Waiting on the ordered work-group to arrive upstream.
                self.cycles.idle += 1;
            }
            None => {
                // Free merging: round-robin between the arms.
                let order = if self.rr {
                    [self.from_taken, self.from_not_taken]
                } else {
                    [self.from_not_taken, self.from_taken]
                };
                for src in order {
                    if chans[src.0].can_pop() {
                        let tok = chans.pop(src.0);
                        chans.push(self.out.0, tok);
                        self.rr = !self.rr;
                        self.cycles.busy += 1;
                        return;
                    }
                }
                self.cycles.idle += 1;
            }
        }
    }
}

impl LoopEnter {
    /// Advances one cycle. Back-edge work-items have priority — a
    /// work-item re-entering the loop must never be blocked by new
    /// arrivals, or the loop deadlocks at capacity.
    pub fn tick(&mut self, chans: &mut Channels<Token>, counters: &mut [u64]) {
        let has_input =
            chans[self.backedge.0].can_pop() || chans[self.outside.0].can_pop();
        if !chans[self.out.0].can_push() {
            if has_input {
                self.cycles.output_stall += 1;
            } else {
                self.cycles.idle += 1;
            }
            return;
        }
        if chans[self.backedge.0].can_pop() {
            let tok = chans.pop(self.backedge.0);
            chans.push(self.out.0, tok);
            self.cycles.busy += 1;
            return;
        }
        if counters[self.counter] >= self.nmax {
            // Occupancy at N_max: new arrivals cannot be admitted (Case-1).
            if chans[self.outside.0].can_pop() {
                self.cycles.issue_stall += 1;
            } else {
                self.cycles.idle += 1;
            }
            return;
        }
        let Some(front) = chans[self.outside.0].front() else {
            self.cycles.idle += 1;
            return;
        };
        if self.swgr {
            // Admit only work-items of the current work-group; adopt a new
            // group only when the loop is empty.
            if counters[self.counter] == 0 {
                self.cur_wg = front.wg;
            } else if front.wg != self.cur_wg {
                self.cycles.issue_stall += 1;
                return;
            }
        }
        let tok = chans.pop(self.outside.0);
        counters[self.counter] += 1;
        chans.push(self.out.0, tok);
        self.cycles.busy += 1;
    }
}

impl LoopExit {
    /// Advances one cycle.
    pub fn tick(&mut self, chans: &mut Channels<Token>, counters: &mut [u64]) {
        if !chans[self.inp.0].can_pop() {
            self.cycles.idle += 1;
            return;
        }
        if !chans[self.out.0].can_push() {
            self.cycles.output_stall += 1;
            return;
        }
        let tok = chans.pop(self.inp.0);
        if counters[self.counter] == 0 {
            // Never happens in a correct machine (Theorem 1); reachable
            // under token-duplication fault injection. Saturate instead
            // of wrapping and let the machine report it.
            self.underflow = true;
        } else {
            counters[self.counter] -= 1;
        }
        chans.push(self.out.0, tok);
        self.cycles.busy += 1;
    }
}

impl BarrierUnit {
    /// Advances one cycle: accepts one arrival and emits one release.
    pub fn tick(&mut self, chans: &mut Channels<Token>) {
        // Accept (the barrier's storage is its own embedded-memory FIFO).
        let mut accepted = false;
        if chans[self.inp.0].can_pop() {
            let tok = chans.pop(self.inp.0);
            self.buf.push_back(tok);
            accepted = true;
        }
        // Begin releasing when a full work-group has arrived.
        if self.releasing == 0 && self.buf.len() as u64 >= self.wg_size {
            let wg = self.buf[0].wg;
            if !self.buf.iter().take(self.wg_size as usize).all(|t| t.wg == wg) {
                // Work-group order violated upstream; record it (the
                // machine reports it when invariant checking is on) and
                // release anyway so the hang does not mask the root cause.
                self.order_violation = true;
            }
            self.releasing = self.wg_size;
        }
        let mut released = false;
        if self.releasing > 0 && chans[self.out.0].can_push() {
            let tok = self.buf.pop_front().expect("releasing implies non-empty");
            chans.push(self.out.0, tok);
            self.releasing -= 1;
            released = true;
        }
        if accepted || released {
            self.cycles.busy += 1;
        } else if self.releasing > 0 {
            // Wanted to release but the output channel refused (Case-2).
            self.cycles.output_stall += 1;
        } else {
            // Empty, or holding a partial work-group waiting for stragglers.
            self.cycles.idle += 1;
        }
    }

    /// Whether the barrier holds no work-items.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(wi: u32, wg: u32, vals: &[u64]) -> Token {
        Token { wi, wg, vals: vals.to_vec().into_boxed_slice() }
    }


    #[test]
    fn branch_routes_by_condition() {
        let mut chans = Channels::with_capacities(&[4, 4, 4]);
        let mut b = Branch {
            inp: ChanId(0),
            cond_idx: 0,
            taken: (ChanId(1), Mapping::identity()),
            not_taken: (ChanId(2), Mapping::identity()),
            decisions: None,
            cycles: CycleBreakdown::default(),
        };
        chans.begin_cycle();
        chans.push(0, tok(1, 0, &[1]));
        chans.push(0, tok(2, 0, &[0]));
        chans.begin_cycle();
        b.tick(&mut chans, &mut []);
        b.tick(&mut chans, &mut []);
        chans.begin_cycle();
        assert_eq!(chans.pop(1).wi, 1);
        assert_eq!(chans.pop(2).wi, 2);
    }

    #[test]
    fn ordered_select_preserves_work_group_order() {
        // Work-group 0's items (wi 1 taken, wi 2 not-taken) must all be
        // delivered before work-group 1's item (wi 3, taken), even though
        // wi 3 is already waiting in the taken arm.
        let mut chans = Channels::with_capacities(&[8, 8, 8]);
        let mut fifos = vec![DecisionFifo { q: VecDeque::new(), cap: 16 }];
        fifos[0].q.extend([0u32, 0, 1]); // branch saw wg 0, wg 0, wg 1
        let mut s = Select {
            from_taken: ChanId(0),
            from_not_taken: ChanId(1),
            out: ChanId(2),
            decisions: Some(0),
            rr: false,
            cycles: CycleBreakdown::default(),
        };
        chans.begin_cycle();
        chans.push(0, tok(1, 0, &[]));
        chans.push(0, tok(3, 1, &[])); // wg 1 queued behind wg 0 in-arm
        chans.push(1, tok(2, 0, &[]));
        for _ in 0..6 {
            chans.begin_cycle();
            s.tick(&mut chans, &mut fifos);
        }
        chans.begin_cycle();
        let order: Vec<u32> = (0..3).map(|_| chans.pop(2).wg).collect();
        assert_eq!(order, vec![0, 0, 1], "work-group order must be preserved");
    }

    #[test]
    fn ordered_select_allows_intra_group_reorder() {
        // Within one work-group the select may deliver from either arm —
        // required so a barrier inside one arm cannot deadlock the merge.
        let mut chans = Channels::with_capacities(&[8, 8, 8]);
        let mut fifos = vec![DecisionFifo { q: VecDeque::new(), cap: 16 }];
        fifos[0].q.extend([0u32, 0]);
        let mut s = Select {
            from_taken: ChanId(0),
            from_not_taken: ChanId(1),
            out: ChanId(2),
            decisions: Some(0),
            rr: false,
            cycles: CycleBreakdown::default(),
        };
        chans.begin_cycle();
        // Only the not-taken arm has a token (the taken one is stuck at a
        // barrier); the select must still deliver it.
        chans.push(1, tok(7, 0, &[]));
        chans.begin_cycle();
        s.tick(&mut chans, &mut fifos);
        chans.begin_cycle();
        assert_eq!(chans.pop(2).wi, 7);
        assert_eq!(fifos[0].q.len(), 1);
    }

    #[test]
    fn loop_enter_enforces_nmax_and_prioritizes_backedge() {
        let mut chans = Channels::with_capacities(&[8, 8, 8]);
        let mut counters = vec![0u64];
        let mut e = LoopEnter {
            outside: ChanId(0),
            backedge: ChanId(1),
            out: ChanId(2),
            counter: 0,
            nmax: 1,
            swgr: false,
            cur_wg: 0,
            cycles: CycleBreakdown::default(),
        };
        chans.begin_cycle();
        chans.push(0, tok(1, 0, &[]));
        chans.push(0, tok(2, 0, &[]));
        chans.begin_cycle();
        e.tick(&mut chans, &mut counters);
        assert_eq!(counters[0], 1);
        chans.begin_cycle();
        e.tick(&mut chans, &mut counters); // nmax reached: wi 2 must wait
        assert_eq!(counters[0], 1);
        assert_eq!(chans[2].len(), 1);
        // A back-edge token goes through even at capacity.
        chans.push(1, tok(1, 0, &[]));
        chans.begin_cycle();
        e.tick(&mut chans, &mut counters);
        assert_eq!(chans[2].len(), 2);
        assert_eq!(counters[0], 1);
    }

    #[test]
    fn swgr_admits_one_group_at_a_time() {
        let mut chans = Channels::with_capacities(&[8, 8, 8]);
        let mut counters = vec![0u64];
        let mut e = LoopEnter {
            outside: ChanId(0),
            backedge: ChanId(1),
            out: ChanId(2),
            counter: 0,
            nmax: 100,
            swgr: true,
            cur_wg: 0,
            cycles: CycleBreakdown::default(),
        };
        chans.begin_cycle();
        chans.push(0, tok(1, 0, &[]));
        chans.push(0, tok(2, 1, &[])); // different work-group
        chans.begin_cycle();
        e.tick(&mut chans, &mut counters);
        chans.begin_cycle();
        e.tick(&mut chans, &mut counters);
        assert_eq!(chans[2].len(), 1, "wg 1 must wait until the loop drains");
        // Drain the loop (simulate exit): counter to 0.
        counters[0] = 0;
        chans.begin_cycle();
        e.tick(&mut chans, &mut counters);
        assert_eq!(chans[2].len(), 2);
    }

    #[test]
    fn barrier_releases_full_group() {
        let mut chans = Channels::with_capacities(&[8, 8]);
        let mut b = BarrierUnit {
            inp: ChanId(0),
            out: ChanId(1),
            wg_size: 2,
            buf: VecDeque::new(),
            releasing: 0,
            order_violation: false,
            cycles: CycleBreakdown::default(),
        };
        chans.begin_cycle();
        chans.push(0, tok(1, 0, &[]));
        chans.begin_cycle();
        b.tick(&mut chans);
        assert!(chans[1].is_empty(), "half a group must not release");
        chans.push(0, tok(2, 0, &[]));
        chans.begin_cycle();
        b.tick(&mut chans);
        chans.begin_cycle();
        b.tick(&mut chans);
        chans.begin_cycle();
        b.tick(&mut chans);
        assert_eq!(chans[1].len(), 2, "full group releases");
    }
}
