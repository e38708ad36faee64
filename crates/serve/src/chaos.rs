//! Seeded, deterministic cross-layer chaos schedules.
//!
//! A [`ChaosSchedule`] is a pure function of its [`ChaosConfig`]: the
//! same seed always yields the same events, in the same order, with the
//! same targets — which is what lets `chaos_soak` assert that a chaotic
//! run's *surviving* jobs are bit-identical to a chaos-free run, and
//! that two runs of the same seed agree on the whole event list
//! ([`ChaosSchedule::digest`]).
//!
//! The schedule spans every failure domain the serve stack owns:
//!
//! | event                      | layer    | injected via                        |
//! |----------------------------|----------|-------------------------------------|
//! | [`ChaosEvent::SimFault`]   | device   | [`crate::Session::inject_faults_next`] |
//! | [`ChaosEvent::JobPanic`]   | host     | [`crate::Session::inject_panic_next`] |
//! | [`ChaosEvent::StickyPanic`]| host     | [`crate::Session::inject_sticky_panics_next`] |
//! | [`ChaosEvent::SlotDeath`]  | scheduler| [`crate::Server::inject_slot_deaths`] |
//! | disk events                | store    | `soff_runtime::store::set_io_faults` |
//! | [`ChaosEvent::JournalTear`]| journal  | `soff_workloads::journal::set_journal_faults` |
//!
//! Job-targeted events are confined to the first three quarters of each
//! tenant's jobs, so every run ends with a chaos-free tail — the window
//! in which breakers re-close, the store heals, and
//! [`crate::Server::health`] must return to `Ok`.

use soff_obs::{fnv1a, FNV_OFFSET};
use soff_sim::{Fault, FaultPlan};

/// Parameters a schedule is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the splitmix64 stream.
    pub seed: u64,
    /// Tenants in the soak (events target `0..tenants`).
    pub tenants: u32,
    /// Jobs each tenant enqueues.
    pub jobs_per_tenant: u32,
    /// Events to generate (duplicate job targets are skipped, so the
    /// schedule may hold slightly fewer).
    pub events: u32,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Stall-everything hardware fault on one job's first attempt: the
    /// deadlock detector fires, the retry runs clean and must reproduce
    /// the chaos-free result bit-for-bit.
    SimFault {
        /// Target tenant index.
        tenant: u32,
        /// Target job index within the tenant.
        job: u32,
    },
    /// Host-side panic on one job's first attempt (contained + retried).
    JobPanic {
        /// Target tenant index.
        tenant: u32,
        /// Target job index within the tenant.
        job: u32,
    },
    /// A poison job: panics on `attempts` consecutive attempts, which
    /// drives it through quarantine when `attempts >=`
    /// [`crate::Supervision::quarantine_after`].
    StickyPanic {
        /// Target tenant index.
        tenant: u32,
        /// Target job index within the tenant.
        job: u32,
        /// Consecutive panicking attempts.
        attempts: u32,
    },
    /// A device slot dies mid-slice (global slice index); the job on it
    /// recovers from its last checkpoint.
    SlotDeath {
        /// Global slice index at which the slot dies.
        slice: u64,
    },
    /// The Nth disk-store read fails with EIO.
    DiskReadError {
        /// Store read-op index.
        op: u64,
    },
    /// The Nth disk-store write fails with ENOSPC.
    DiskWriteError {
        /// Store put-op index.
        op: u64,
    },
    /// The Nth disk-store write lands torn on the final path.
    DiskTornWrite {
        /// Store put-op index.
        op: u64,
    },
    /// The Nth disk-store write lands with a flipped payload byte.
    DiskBitFlip {
        /// Store put-op index.
        op: u64,
    },
    /// The Nth journal append tears mid-line.
    JournalTear {
        /// Journal append-op index.
        append: u64,
    },
}

/// The generated event list (see module docs for the determinism
/// contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSchedule {
    cfg: ChaosConfig,
    events: Vec<ChaosEvent>,
}

/// splitmix64 (the project-standard seedable stream; matches the bench
/// bins' generator).
#[derive(Clone)]
struct Splitmix(u64);

impl Splitmix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

impl ChaosSchedule {
    /// Generates the schedule for `cfg`. Deterministic: same config ⇒
    /// same events.
    pub fn generate(cfg: ChaosConfig) -> ChaosSchedule {
        let mut rng = Splitmix(cfg.seed);
        let tenants = cfg.tenants.max(1);
        let jobs = cfg.jobs_per_tenant.max(1);
        // Job-targeted chaos stays out of the final quarter (min 2 jobs)
        // of each tenant's stream: the clean tail closes breakers and
        // proves self-healing.
        let job_ceiling = (jobs * 3 / 4).max(1).min(jobs.saturating_sub(2).max(1));
        let mut taken = std::collections::HashSet::new();
        let mut sticky_used = false;
        let mut events = Vec::new();
        for _ in 0..cfg.events {
            let roll = rng.below(10);
            match roll {
                // Job-targeted events (one per (tenant, job): a job holds
                // a single pending-fault slot).
                0..=4 => {
                    let tenant = rng.below(u64::from(tenants)) as u32;
                    let job = rng.below(u64::from(job_ceiling)) as u32;
                    if !taken.insert((tenant, job)) {
                        continue;
                    }
                    events.push(match roll {
                        0 | 1 => ChaosEvent::SimFault { tenant, job },
                        2 | 3 => ChaosEvent::JobPanic { tenant, job },
                        _ if !sticky_used => {
                            sticky_used = true;
                            ChaosEvent::StickyPanic { tenant, job, attempts: 3 }
                        }
                        _ => ChaosEvent::JobPanic { tenant, job },
                    });
                }
                5 => {
                    // Slices are plentiful (every job runs several); the
                    // range is a heuristic and a miss only means the
                    // death never fires, which the soak reports.
                    let range = u64::from(tenants) * u64::from(jobs) * 3;
                    events.push(ChaosEvent::SlotDeath { slice: rng.below(range) });
                }
                6 => events.push(ChaosEvent::DiskReadError { op: rng.below(6) }),
                7 => {
                    let op = rng.below(6);
                    events.push(match rng.below(3) {
                        0 => ChaosEvent::DiskWriteError { op },
                        1 => ChaosEvent::DiskTornWrite { op },
                        _ => ChaosEvent::DiskBitFlip { op },
                    });
                }
                _ => events.push(ChaosEvent::JournalTear { append: rng.below(8) }),
            }
        }
        ChaosSchedule { cfg, events }
    }

    /// The configuration this schedule was generated from.
    pub fn config(&self) -> ChaosConfig {
        self.cfg
    }

    /// The events, in generation order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// FNV-1a digest over the rendered event list: the "same seed ⇒
    /// same schedule" witness two runs compare.
    pub fn digest(&self) -> u64 {
        self.events.iter().fold(FNV_OFFSET, |h, event| fnv1a(h, format!("{event:?};").as_bytes()))
    }
}

/// The transient hardware fault [`ChaosEvent::SimFault`] renders to: a
/// forever stuck-stall on every one of the machine's `nchans` channels,
/// which the deadlock detector reliably converts into a typed, retryable
/// [`crate::ServeError::Faulted`] (the retry then runs fault-free).
pub fn stall_all_channels(nchans: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for chan in 0..nchans.max(1) {
        plan = plan.with(Fault::ChannelStuckStall { chan, from: 0, cycles: u64::MAX });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> ChaosConfig {
        ChaosConfig { seed, tenants: 3, jobs_per_tenant: 8, events: 16 }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = ChaosSchedule::generate(cfg(42));
        let b = ChaosSchedule::generate(cfg(42));
        assert_eq!(a.events(), b.events());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_differ() {
        let digests: std::collections::HashSet<u64> =
            (0..32).map(|s| ChaosSchedule::generate(cfg(s)).digest()).collect();
        assert!(digests.len() > 16, "seeds should spread: {} distinct", digests.len());
    }

    #[test]
    fn job_targets_leave_a_clean_tail_and_never_collide() {
        let s = ChaosSchedule::generate(ChaosConfig {
            seed: 7,
            tenants: 4,
            jobs_per_tenant: 8,
            events: 64,
        });
        let mut seen = std::collections::HashSet::new();
        for e in s.events() {
            let target = match e {
                ChaosEvent::SimFault { tenant, job }
                | ChaosEvent::JobPanic { tenant, job }
                | ChaosEvent::StickyPanic { tenant, job, .. } => Some((*tenant, *job)),
                _ => None,
            };
            if let Some((tenant, job)) = target {
                assert!(tenant < 4);
                assert!(job < 6, "job {job} inside the protected clean tail");
                assert!(seen.insert((tenant, job)), "duplicate target {tenant}/{job}");
            }
        }
    }

    #[test]
    fn at_most_one_sticky_panic_per_schedule() {
        for seed in 0..64 {
            let s = ChaosSchedule::generate(cfg(seed));
            let stickies = s
                .events()
                .iter()
                .filter(|e| matches!(e, ChaosEvent::StickyPanic { .. }))
                .count();
            assert!(stickies <= 1, "seed {seed} scheduled {stickies} poison jobs");
        }
    }

    #[test]
    fn stall_plan_covers_every_channel() {
        let plan = stall_all_channels(5);
        assert_eq!(plan.faults.len(), 5);
        assert!(plan.validate(5, 0, 0).is_ok());
    }
}
