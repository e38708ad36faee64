//! Handshake channels with synchronous (snapshot) semantics.
//!
//! A channel models the registered valid/stall handshake of §II-A/§IV-B:
//! a consumer only sees tokens that were present at the start of the
//! cycle, and a producer may push at most one token per cycle and only
//! when the start-of-cycle occupancy is below capacity. This makes the
//! per-cycle component evaluation order irrelevant — exactly like
//! synchronous hardware — and reproduces the paper's one-cycle stall
//! recognition delay.

use std::collections::VecDeque;
use std::ops::Deref;

/// Identifies a channel within one simulated machine (see `crate::machine`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChanId(pub usize);

/// A bounded token FIFO with snapshot semantics.
#[derive(Debug, Clone)]
pub struct Channel<T> {
    q: VecDeque<T>,
    cap: usize,
    /// Tokens visible to consumers this cycle.
    visible: usize,
    /// Occupancy at the start of the cycle (push limit).
    occ_start: usize,
    /// Total tokens ever pushed (for stats/debug).
    pub total: u64,
    /// Fault injection: while set, the channel refuses both ends of the
    /// handshake (stuck-stall), exactly like a wedged valid/stall pair.
    jammed: bool,
    /// Whether any state-changing operation (push, pop, fault mutation,
    /// jam flip) hit this channel since the last `begin_cycle`; a
    /// [`Channels`] bank keys its dirty list on this flag.
    touched: bool,
}

impl<T> Channel<T> {
    /// Creates a channel with the given capacity (≥ 1).
    pub fn new(cap: usize) -> Channel<T> {
        Channel {
            q: VecDeque::new(),
            cap: cap.max(1),
            visible: 0,
            occ_start: 0,
            total: 0,
            jammed: false,
            touched: false,
        }
    }

    /// Called once at the start of every cycle.
    pub fn begin_cycle(&mut self) {
        self.visible = self.q.len();
        self.occ_start = self.q.len();
        self.touched = false;
    }

    /// Whether the channel changed state since the last `begin_cycle`.
    pub fn touched(&self) -> bool {
        self.touched
    }

    /// Fault injection: wedges or releases the handshake.
    pub fn set_jammed(&mut self, jammed: bool) {
        if self.jammed != jammed {
            self.touched = true;
        }
        self.jammed = jammed;
    }

    /// Whether the handshake is currently wedged by fault injection.
    pub fn is_jammed(&self) -> bool {
        self.jammed
    }

    /// Whether a consumer can pop this cycle.
    pub fn can_pop(&self) -> bool {
        self.visible > 0 && !self.jammed
    }

    /// Peeks the front token (only if visible).
    pub fn front(&self) -> Option<&T> {
        if self.visible > 0 {
            self.q.front()
        } else {
            None
        }
    }

    /// Pops the front token.
    ///
    /// # Panics
    ///
    /// Panics if no token is visible this cycle (check [`Channel::can_pop`]).
    pub fn pop(&mut self) -> T {
        assert!(self.visible > 0, "pop from channel with no visible token");
        self.visible -= 1;
        self.touched = true;
        self.q.pop_front().expect("visible implies non-empty")
    }

    /// Whether a producer can push this cycle.
    pub fn can_push(&self) -> bool {
        self.occ_start < self.cap && !self.jammed
    }

    /// Pushes a token.
    ///
    /// # Panics
    ///
    /// Panics if the channel was full at the start of the cycle.
    pub fn push(&mut self, t: T) {
        assert!(self.occ_start < self.cap, "push into full channel");
        self.occ_start += 1; // single producer: count this push against the limit
        self.total += 1;
        self.touched = true;
        self.q.push_back(t);
    }

    /// Current raw occupancy.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the channel holds no tokens at all.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Fault injection: silently removes the front token (models a lost
    /// valid pulse). Call between `begin_cycle` and the component ticks;
    /// the cycle-start snapshot is adjusted so consumers never see it.
    pub fn fault_drop_front(&mut self) -> bool {
        if self.q.pop_front().is_some() {
            self.visible = self.visible.saturating_sub(1);
            self.occ_start = self.occ_start.saturating_sub(1);
            self.touched = true;
            true
        } else {
            false
        }
    }
}

impl<T: Clone> Channel<T> {
    /// Fault injection: duplicates the front token (models a repeated
    /// valid pulse). The copy becomes visible next cycle, like any push;
    /// no-op when the channel is full or empty.
    pub fn fault_duplicate_front(&mut self) -> bool {
        if self.q.len() < self.cap {
            if let Some(front) = self.q.front().cloned() {
                self.occ_start += 1;
                self.total += 1;
                self.touched = true;
                self.q.push_back(front);
                return true;
            }
        }
        false
    }
}

/// A bank of channels that remembers which ones changed state since the
/// last [`Channels::begin_cycle`] (the *dirty list*).
///
/// A channel nobody touched during a cycle already has its cycle-start
/// snapshot equal to its queue (`begin_cycle` would rewrite the same two
/// numbers), so refreshing only the dirty ones is exact. Every mutation
/// goes through the bank — `Deref` exposes the channels read-only — so no
/// change can escape the list. The bank also counts pushes, the channel
/// share of the machine's progress watchdog.
#[derive(Debug, Clone)]
pub struct Channels<T> {
    chans: Vec<Channel<T>>,
    dirty: Vec<u32>,
    pushes: u64,
}

impl<T> Default for Channels<T> {
    fn default() -> Self {
        Channels { chans: Vec::new(), dirty: Vec::new(), pushes: 0 }
    }
}

impl<T> Deref for Channels<T> {
    type Target = [Channel<T>];
    fn deref(&self) -> &[Channel<T>] {
        &self.chans
    }
}

impl<T> Channels<T> {
    /// A bank of fresh channels with the given capacities.
    pub fn with_capacities(caps: &[usize]) -> Channels<T> {
        let chans = caps.iter().map(|&cap| Channel::new(cap)).collect();
        Channels { chans, dirty: Vec::new(), pushes: 0 }
    }

    /// Appends a channel of capacity `cap`.
    pub fn add(&mut self, cap: usize) -> ChanId {
        self.chans.push(Channel::new(cap));
        ChanId(self.chans.len() - 1)
    }

    fn mark(&mut self, i: usize) -> &mut Channel<T> {
        let c = &mut self.chans[i];
        if !c.touched {
            self.dirty.push(i as u32);
        }
        c
    }

    /// Starts a cycle: refreshes the snapshot of every channel on the
    /// dirty list and empties it.
    pub fn begin_cycle(&mut self) {
        for i in self.dirty.drain(..) {
            self.chans[i as usize].begin_cycle();
        }
    }

    /// Starts a cycle the reference way: refreshes every channel.
    pub fn begin_cycle_all(&mut self) {
        for c in &mut self.chans {
            c.begin_cycle();
        }
        self.dirty.clear();
    }

    /// Whether any channel changed state since the last `begin_cycle`.
    pub fn touched(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Tokens ever pushed into the bank (the sum of [`Channel::total`]).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Pushes onto channel `i` (see [`Channel::push`]).
    pub fn push(&mut self, i: usize, t: T) {
        self.pushes += 1;
        self.mark(i).push(t);
    }

    /// Pops from channel `i` (see [`Channel::pop`]).
    pub fn pop(&mut self, i: usize) -> T {
        self.mark(i).pop()
    }

    /// Fault injection: wedges or releases channel `i`.
    pub fn set_jammed(&mut self, i: usize, jammed: bool) {
        if self.chans[i].jammed != jammed {
            self.mark(i).set_jammed(jammed);
        }
    }

    /// Fault injection: drops the front token of channel `i`.
    pub fn fault_drop_front(&mut self, i: usize) -> bool {
        self.chans[i].q.front().is_some() && self.mark(i).fault_drop_front()
    }
}

impl<T: Clone> Channels<T> {
    /// Fault injection: repeats the front token of channel `i`.
    pub fn fault_duplicate_front(&mut self, i: usize) -> bool {
        let c = &self.chans[i];
        if c.q.len() < c.cap && !c.q.is_empty() {
            self.pushes += 1;
            return self.mark(i).fault_duplicate_front();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;

    fn tok(wi: u32) -> Token {
        Token { wi, wg: 0, vals: Box::new([]) }
    }

    #[test]
    fn pushed_token_invisible_until_next_cycle() {
        let mut c = Channel::new(4);
        c.begin_cycle();
        c.push(tok(1));
        assert!(!c.can_pop(), "same-cycle push must not be visible");
        c.begin_cycle();
        assert!(c.can_pop());
        assert_eq!(c.pop().wi, 1);
    }

    #[test]
    fn push_limit_uses_start_occupancy() {
        let mut c = Channel::new(1);
        c.begin_cycle();
        c.push(tok(1));
        assert!(!c.can_push(), "capacity 1 reached");
        c.begin_cycle();
        // Full at cycle start: pop this cycle does not free push space
        // until next cycle (one-cycle stall recognition).
        assert!(!c.can_push());
        let _ = c.pop();
        assert!(!c.can_push());
        c.begin_cycle();
        assert!(c.can_push());
    }

    #[test]
    fn fifo_order() {
        let mut c = Channel::new(4);
        c.begin_cycle();
        c.push(tok(1));
        c.push(tok(2));
        c.begin_cycle();
        assert_eq!(c.pop().wi, 1);
        assert_eq!(c.pop().wi, 2);
        assert!(!c.can_pop());
    }

    #[test]
    fn touched_tracks_state_changes_per_cycle() {
        let mut c = Channel::new(2);
        c.begin_cycle();
        assert!(!c.touched());
        c.push(tok(1));
        assert!(c.touched());
        c.begin_cycle();
        assert!(!c.touched(), "begin_cycle clears the touch flag");
        let _ = c.pop();
        assert!(c.touched());
        c.begin_cycle();
        c.set_jammed(true);
        assert!(c.touched(), "jam flip is a state change");
        c.begin_cycle();
        c.set_jammed(true);
        assert!(!c.touched(), "re-asserting the same jam is not a change");
    }

    /// Refreshing only the dirty list is indistinguishable from refreshing
    /// every channel, under random pushes, pops, jams, drops and
    /// duplications; the bank's push count stays the sum of the totals.
    #[test]
    fn dirty_list_refresh_matches_full_refresh() {
        let caps = [1, 2, 3, 4];
        let mut dirty = Channels::with_capacities(&caps);
        let mut full = Channels::with_capacities(&caps);
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut wi = 0;
        for _cycle in 0..2_000 {
            dirty.begin_cycle();
            full.begin_cycle_all();
            for _ in 0..3 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let i = (rng >> 8) as usize % caps.len();
                for bank in [&mut dirty, &mut full] {
                    match rng % 6 {
                        0 | 1 if bank[i].can_push() => bank.push(i, tok(wi)),
                        2 if bank[i].can_pop() => drop(bank.pop(i)),
                        3 => bank.set_jammed(i, rng & 1 << 20 != 0),
                        4 => drop(bank.fault_drop_front(i)),
                        5 => drop(bank.fault_duplicate_front(i)),
                        _ => {}
                    }
                }
                wi += 1;
                for c in 0..caps.len() {
                    let (a, b) = (&dirty[c], &full[c]);
                    assert_eq!(
                        (a.len(), a.can_pop(), a.can_push(), a.front().map(|t| t.wi)),
                        (b.len(), b.can_pop(), b.can_push(), b.front().map(|t| t.wi))
                    );
                }
                assert_eq!(dirty.pushes(), full.pushes());
                assert_eq!(dirty.pushes(), dirty.iter().map(|c| c.total).sum::<u64>());
            }
        }
    }

    #[test]
    #[should_panic(expected = "push into full channel")]
    fn overfull_push_panics() {
        let mut c = Channel::new(1);
        c.begin_cycle();
        c.push(tok(1));
        c.push(tok(2));
    }
}
