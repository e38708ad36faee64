//! Deterministic fault injection for the cycle simulator.
//!
//! A [`FaultPlan`] is a list of [`Fault`]s with absolute activation
//! cycles, carried inside [`crate::machine::SimConfig`]. The machine
//! applies the plan once per cycle *before* any component ticks, so a
//! plan is a pure function of the cycle number: the same plan against the
//! same launch always perturbs the machine identically, which is what
//! makes the deadlock-forensics self-tests (and bug reproductions)
//! deterministic.
//!
//! The fault classes mirror the ways a real synthesized design wedges:
//!
//! * [`Fault::ChannelStuckStall`] — a valid/stall handshake pair stuck
//!   asserted, so the channel neither accepts nor delivers tokens.
//! * [`Fault::DramLatencySpike`] — every external-memory access pays
//!   extra latency for a while (refresh storm, thermal throttling). A
//!   healthy machine must *tolerate* this: the watchdog may not cry
//!   deadlock while memory merely runs slow.
//! * [`Fault::CachePortJam`] — the request wires between the datapath
//!   and one cache wedge: no new request latches.
//! * [`Fault::ArbiterWithhold`] — the datapath-cache arbiter stops
//!   granting: latched requests are never accepted.
//! * [`Fault::LineBufJam`] — the request wires between the datapath and
//!   one shift-register line buffer wedge: no new request latches
//!   (already-latched requests still serve, and streaming continues).
//! * [`Fault::TokenDrop`] / [`Fault::TokenDup`] — a single valid pulse
//!   lost or repeated on one channel. These corrupt the work-item
//!   accounting and exist to self-test the detectors: a drop must be
//!   classified as token loss, a dup must trip an invariant check.
//!
//! Channel and cache indices in a plan must target components the
//! machine actually has: the machine validates the plan against its real
//! channel/cache counts at build time ([`FaultPlan::validate`]) and
//! returns a typed [`crate::machine::SimError::Config`] for
//! out-of-range targets instead of silently wrapping or dropping them.
//! Randomly generated plans ([`FaultPlan::random`]) draw indices from a
//! fixed universe and must be fitted to a concrete machine with
//! [`FaultPlan::normalized`] before use.

use crate::channel::Channels;
use crate::machine::ConfigError;
use crate::memsys::MemorySystem;
use crate::token::Token;
use rand::{Rng, SeedableRng};

/// One injected hardware fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Channel `chan` is stuck-stalled for `cycles` starting at `from`.
    ChannelStuckStall {
        /// Machine channel index (must be in range; see
        /// [`FaultPlan::validate`]).
        chan: usize,
        /// First affected cycle.
        from: u64,
        /// Duration; `u64::MAX` = forever.
        cycles: u64,
    },
    /// Every DRAM access pays `extra_latency` more cycles during the window.
    DramLatencySpike {
        /// First affected cycle.
        from: u64,
        /// Duration.
        cycles: u64,
        /// Additional cycles per access.
        extra_latency: u32,
    },
    /// Cache `cache` refuses to latch new requests during the window.
    CachePortJam {
        /// Cache index (must be in range; see [`FaultPlan::validate`]).
        cache: usize,
        /// First affected cycle.
        from: u64,
        /// Duration; `u64::MAX` = forever.
        cycles: u64,
    },
    /// Cache `cache`'s arbiter withholds all grants during the window.
    ArbiterWithhold {
        /// Cache index (must be in range; see [`FaultPlan::validate`]).
        cache: usize,
        /// First affected cycle.
        from: u64,
        /// Duration; `u64::MAX` = forever.
        cycles: u64,
    },
    /// Line buffer `lb` refuses to latch new requests during the window.
    LineBufJam {
        /// Line-buffer index (must be in range; see
        /// [`FaultPlan::validate`]).
        lb: usize,
        /// First affected cycle.
        from: u64,
        /// Duration; `u64::MAX` = forever.
        cycles: u64,
    },
    /// A single token vanishes from channel `chan`: the fault arms at
    /// cycle `at` and fires once, at the first cycle the channel has a
    /// front token.
    TokenDrop {
        /// Machine channel index (must be in range; see
        /// [`FaultPlan::validate`]).
        chan: usize,
        /// The cycle the fault arms.
        at: u64,
    },
    /// The front token of channel `chan` is repeated: the fault arms at
    /// cycle `at` and fires once, at the first cycle the channel holds a
    /// token and has room for the copy.
    TokenDup {
        /// Machine channel index (must be in range; see
        /// [`FaultPlan::validate`]).
        chan: usize,
        /// The cycle the fault arms.
        at: u64,
    },
}

/// A deterministic schedule of faults for one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults (order irrelevant; effects are idempotent
    /// within a cycle).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (the default: no faults).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Builder-style: adds one fault.
    #[must_use]
    pub fn with(mut self, f: Fault) -> FaultPlan {
        self.faults.push(f);
        self
    }

    /// Generates `count` random faults from `seed`, all activating inside
    /// `[0, horizon)`. Fully deterministic: the same seed always yields
    /// the same plan.
    pub fn random(seed: u64, count: usize, horizon: u64) -> FaultPlan {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let horizon = horizon.max(1);
        let faults = (0..count)
            .map(|_| {
                let from = rng.gen_range(0..horizon);
                let cycles = rng.gen_range(1..horizon.saturating_mul(2).max(2));
                match rng.gen_range(0..7u32) {
                    0 => Fault::ChannelStuckStall { chan: rng.gen_range(0..64), from, cycles },
                    1 => Fault::DramLatencySpike {
                        from,
                        cycles,
                        extra_latency: rng.gen_range(1..2048),
                    },
                    2 => Fault::CachePortJam { cache: rng.gen_range(0..8), from, cycles },
                    3 => Fault::ArbiterWithhold { cache: rng.gen_range(0..8), from, cycles },
                    4 => Fault::TokenDrop { chan: rng.gen_range(0..64), at: from },
                    5 => Fault::TokenDup { chan: rng.gen_range(0..64), at: from },
                    _ => Fault::LineBufJam { lb: rng.gen_range(0..4), from, cycles },
                }
            })
            .collect();
        FaultPlan { faults }
    }

    /// Checks every fault against a machine's actual channel and cache
    /// counts. Called by `Machine::new` at config time so out-of-range
    /// injections fail with a typed error instead of silently doing
    /// nothing (or perturbing the wrong component).
    ///
    /// # Errors
    ///
    /// [`ConfigError::Fault`] naming the first offending fault.
    pub fn validate(
        &self,
        nchans: usize,
        ncaches: usize,
        nlinebufs: usize,
    ) -> Result<(), ConfigError> {
        for (index, f) in self.faults.iter().enumerate() {
            match f {
                Fault::ChannelStuckStall { chan, .. }
                | Fault::TokenDrop { chan, .. }
                | Fault::TokenDup { chan, .. } => {
                    if *chan >= nchans {
                        return Err(ConfigError::Fault {
                            index,
                            what: format!(
                                "channel {chan} out of range (machine has {nchans} channels)"
                            ),
                        });
                    }
                }
                Fault::CachePortJam { cache, .. } | Fault::ArbiterWithhold { cache, .. } => {
                    if *cache >= ncaches {
                        return Err(ConfigError::Fault {
                            index,
                            what: format!(
                                "cache {cache} out of range (machine has {ncaches} caches)"
                            ),
                        });
                    }
                }
                Fault::LineBufJam { lb, .. } => {
                    if *lb >= nlinebufs {
                        return Err(ConfigError::Fault {
                            index,
                            what: format!(
                                "line buffer {lb} out of range (machine has {nlinebufs} \
                                 line buffers)"
                            ),
                        });
                    }
                }
                Fault::DramLatencySpike { .. } => {}
            }
        }
        Ok(())
    }

    /// Fits a plan (typically a [`FaultPlan::random`] one, whose indices
    /// are drawn from a fixed universe) to a concrete machine: channel
    /// and cache indices are reduced modulo the machine's counts, and
    /// cache faults are dropped entirely when the machine has no caches.
    /// The result always passes [`FaultPlan::validate`] for those counts.
    #[must_use]
    pub fn normalized(mut self, nchans: usize, ncaches: usize, nlinebufs: usize) -> FaultPlan {
        let nchans = nchans.max(1);
        self.faults.retain_mut(|f| match f {
            Fault::ChannelStuckStall { chan, .. }
            | Fault::TokenDrop { chan, .. }
            | Fault::TokenDup { chan, .. } => {
                *chan %= nchans;
                true
            }
            Fault::CachePortJam { cache, .. } | Fault::ArbiterWithhold { cache, .. } => {
                if ncaches == 0 {
                    false
                } else {
                    *cache %= ncaches;
                    true
                }
            }
            Fault::LineBufJam { lb, .. } => {
                if nlinebufs == 0 {
                    false
                } else {
                    *lb %= nlinebufs;
                    true
                }
            }
            Fault::DramLatencySpike { .. } => true,
        });
        self
    }
}

fn window_active(now: u64, from: u64, cycles: u64) -> bool {
    now >= from && now - from < cycles
}

/// Applies the plan's effects for cycle `now`. Called by the machine
/// right after `begin_cycle` and before any component ticks; recomputes
/// every wedge flag from scratch so overlapping windows compose and
/// expired windows release cleanly. `fired` has one slot per fault and
/// records which one-shot faults (token drop/dup) already went off, so
/// an armed fault waits for its first opportunity but never repeats.
pub(crate) fn apply(
    plan: &FaultPlan,
    fired: &mut [bool],
    now: u64,
    chans: &mut Channels<Token>,
    mem: &mut MemorySystem,
) {
    for i in 0..chans.len() {
        chans.set_jammed(i, false);
    }
    for c in &mut mem.caches {
        c.set_fault_jam_ports(false);
        c.set_fault_withhold_grants(false);
    }
    for b in &mut mem.line_bufs {
        b.set_fault_jam(false);
    }
    let mut dram_extra = 0u32;
    // Indices are in range by construction: the machine validated the
    // plan against its real component counts before the clock started.
    for (f, fired) in plan.faults.iter().zip(fired.iter_mut()) {
        match f {
            Fault::ChannelStuckStall { chan, from, cycles } => {
                if window_active(now, *from, *cycles) {
                    chans.set_jammed(*chan, true);
                }
            }
            Fault::DramLatencySpike { from, cycles, extra_latency } => {
                if window_active(now, *from, *cycles) {
                    dram_extra = dram_extra.max(*extra_latency);
                }
            }
            Fault::CachePortJam { cache, from, cycles } => {
                if window_active(now, *from, *cycles) {
                    mem.caches[*cache].set_fault_jam_ports(true);
                }
            }
            Fault::ArbiterWithhold { cache, from, cycles } => {
                if window_active(now, *from, *cycles) {
                    mem.caches[*cache].set_fault_withhold_grants(true);
                }
            }
            Fault::LineBufJam { lb, from, cycles } => {
                if window_active(now, *from, *cycles) {
                    mem.line_bufs[*lb].set_fault_jam(true);
                }
            }
            Fault::TokenDrop { chan, at } => {
                if now >= *at && !*fired {
                    *fired = chans.fault_drop_front(*chan);
                }
            }
            Fault::TokenDup { chan, at } => {
                if now >= *at && !*fired {
                    *fired = chans.fault_duplicate_front(*chan);
                }
            }
        }
    }
    mem.dram.set_fault_extra_latency(dram_extra);
}

/// The earliest cycle after `now` at which the plan's effect on the
/// machine could change: a window fault opening or closing, or a
/// not-yet-fired one-shot arming. The fast scheduler never
/// fast-forwards past such a boundary, so `apply`'s cycle-by-cycle
/// recomputation observes every window edge. One-shots already armed
/// (`at <= now`) but still unfired contribute nothing: they trigger on
/// channel occupancy, which a globally idle machine cannot change.
pub(crate) fn next_boundary(plan: &FaultPlan, fired: &[bool], now: u64) -> Option<u64> {
    let mut next: Option<u64> = None;
    let mut consider = |c: u64| {
        if c > now && next.is_none_or(|n| c < n) {
            next = Some(c);
        }
    };
    for (f, fired) in plan.faults.iter().zip(fired.iter()) {
        match f {
            Fault::ChannelStuckStall { from, cycles, .. }
            | Fault::DramLatencySpike { from, cycles, .. }
            | Fault::CachePortJam { from, cycles, .. }
            | Fault::ArbiterWithhold { from, cycles, .. }
            | Fault::LineBufJam { from, cycles, .. } => {
                consider(*from);
                consider(from.saturating_add(*cycles));
            }
            Fault::TokenDrop { at, .. } | Fault::TokenDup { at, .. } => {
                if !*fired {
                    consider(*at);
                }
            }
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_edges() {
        assert!(!window_active(9, 10, 5));
        assert!(window_active(10, 10, 5));
        assert!(window_active(14, 10, 5));
        assert!(!window_active(15, 10, 5));
        assert!(window_active(u64::MAX - 1, 0, u64::MAX));
    }

    #[test]
    fn random_plans_are_deterministic() {
        let a = FaultPlan::random(42, 8, 10_000);
        let b = FaultPlan::random(42, 8, 10_000);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 8);
        let c = FaultPlan::random(43, 8, 10_000);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn validate_rejects_out_of_range_targets() {
        let p = FaultPlan::none().with(Fault::ChannelStuckStall { chan: 9, from: 0, cycles: 5 });
        assert!(p.validate(10, 0, 0).is_ok());
        assert!(matches!(p.validate(9, 0, 0), Err(ConfigError::Fault { index: 0, .. })));
        let p = FaultPlan::none().with(Fault::CachePortJam { cache: 2, from: 0, cycles: 5 });
        assert!(p.validate(1, 3, 0).is_ok());
        assert!(matches!(p.validate(1, 2, 0), Err(ConfigError::Fault { index: 0, .. })));
        let p = FaultPlan::none().with(Fault::LineBufJam { lb: 1, from: 0, cycles: 5 });
        assert!(p.validate(1, 0, 2).is_ok());
        assert!(matches!(p.validate(1, 0, 1), Err(ConfigError::Fault { index: 0, .. })));
        // DRAM spikes target no indexed component and always pass.
        let p = FaultPlan::none()
            .with(Fault::DramLatencySpike { from: 0, cycles: 5, extra_latency: 9 });
        assert!(p.validate(0, 0, 0).is_ok());
    }

    #[test]
    fn normalized_always_validates() {
        for seed in 0..32 {
            let p = FaultPlan::random(seed, 12, 1000);
            for &(nchans, ncaches, nlbs) in
                &[(1usize, 0usize, 0usize), (7, 1, 0), (64, 8, 4), (3, 5, 1)]
            {
                let n = p.clone().normalized(nchans, ncaches, nlbs);
                assert_eq!(n.validate(nchans, ncaches, nlbs), Ok(()));
            }
        }
    }

    #[test]
    fn builder_accumulates() {
        let p = FaultPlan::none()
            .with(Fault::TokenDrop { chan: 3, at: 100 })
            .with(Fault::DramLatencySpike { from: 0, cycles: 50, extra_latency: 10 });
        assert_eq!(p.faults.len(), 2);
        assert!(!p.is_empty());
        assert!(FaultPlan::none().is_empty());
    }
}
