//! Server and tenant configuration: device slots and slices, quotas,
//! supervision, and sampled profiling.

use crate::{BreakerConfig, Device, RetryPolicy};
use soff_obs::{Registry, TraceBuf};
use soff_sim::Scheduler;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Per-tenant resource quotas, enforced at admission and at every slice
/// boundary.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Maximum queued jobs (the per-tenant queue bound).
    pub queue_depth: usize,
    /// Maximum jobs admitted but not yet completed (queued + running).
    pub max_in_flight: usize,
    /// Maximum simulated cycles a single job may consume before it is
    /// failed with [`QuotaKind::JobCycles`](crate::QuotaKind::JobCycles).
    pub max_job_cycles: u64,
    /// Cap on the tenant's *total* consumed cycles; once reached, the
    /// running job fails and new work is rejected
    /// ([`QuotaKind::TotalCycles`](crate::QuotaKind::TotalCycles)).
    pub max_total_cycles: Option<u64>,
    /// Cap on a single job's host wall time across its slices
    /// ([`QuotaKind::Wall`](crate::QuotaKind::Wall)). Checked at slice
    /// boundaries, so it is a watchdog, not a precise meter.
    pub max_job_wall: Option<Duration>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            queue_depth: 16,
            max_in_flight: 32,
            max_job_cycles: 1 << 40,
            max_total_cycles: None,
            max_job_wall: None,
        }
    }
}

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulated device slots = worker threads executing slices.
    pub device_slots: usize,
    /// Cycles per preemption slice. Slices cut at deterministic absolute
    /// cycle numbers (multiples of this from each job's start), which is
    /// what makes interleaved results bit-identical to solo runs.
    pub slice_cycles: u64,
    /// Bound on jobs queued across all tenants.
    pub global_queue_cap: usize,
    /// Default quota for new sessions.
    pub quota: TenantQuota,
    /// The simulated device every slot models.
    pub device: Device,
    /// Simulator scheduler strategy (results are bit-identical either
    /// way).
    pub scheduler: Scheduler,
    /// Absolute simulated-cycle watchdog per launch (maps to
    /// [`ServeError::Hung`](crate::ServeError::Hung) when exhausted).
    pub max_cycles: u64,
    /// Bounded-retry policy for contained faults (panic / hang /
    /// injected fault). `max_attempts: 1` disables retry.
    pub retry: RetryPolicy,
    /// Directory for the crash-safe shared compile store; `None` keeps
    /// compiles in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Metrics registry to instrument on. `None` (the default) uses the
    /// process-global [`soff_obs::global`] registry; tests pass their own
    /// for isolation.
    pub registry: Option<Arc<Registry>>,
    /// Span ring buffer for request-path tracing (admit → queue → slice
    /// → settle). `None` (the default) disables span recording entirely.
    pub trace: Option<Arc<TraceBuf>>,
    /// Sampled simulator profiling: every N-th job per session runs with
    /// the cycle profiler attached. `None` (the default) disables it.
    /// Profiling is observational — job results and cycle counts stay
    /// bit-identical (see [`soff_sim`]'s profiler contract).
    pub profile: Option<ProfileSampling>,
    /// Crash-only supervision: poison-job quarantine, per-tenant circuit
    /// breakers, and checkpoint-based slot recovery. The default leaves
    /// quarantine and breakers disabled (pure retry semantics).
    pub supervision: Supervision,
}

/// Supervision policy ([`ServerConfig::supervision`]).
#[derive(Debug, Clone)]
pub struct Supervision {
    /// Quarantine a job after this many consecutive *retryable* failed
    /// attempts, even if retry budget remains — the job is poison, not
    /// unlucky. `0` (the default) disables quarantine; when enabled it
    /// only ever fires earlier than retry exhaustion, never later.
    pub quarantine_after: u32,
    /// Per-tenant circuit breaker tuning; the default
    /// (`failure_threshold: 0`) disables breakers.
    pub breaker: BreakerConfig,
    /// How many device-slot deaths a single job may survive (resuming
    /// from its checkpoint each time) before it is failed as
    /// [`ServeError::Faulted`](crate::ServeError::Faulted).
    pub max_slot_recoveries: u32,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            quarantine_after: 0,
            breaker: BreakerConfig::default(),
            max_slot_recoveries: 3,
        }
    }
}

/// Sampled-profiling policy ([`ServerConfig::profile`]).
#[derive(Debug, Clone)]
pub struct ProfileSampling {
    /// Profiler configuration for sampled jobs.
    pub config: soff_sim::ProfileConfig,
    /// Sample every N-th job per session (1 = every job; 0 behaves as 1).
    /// The decision is made at admission and fixed for the job's whole
    /// life, so slice snapshots stay self-consistent.
    pub every: u64,
    /// Bound on retained [`JobProfile`](crate::JobProfile) reports (oldest
    /// kept; further reports are dropped). Collect with
    /// [`Server::take_profiles`](crate::Server::take_profiles).
    pub max_reports: usize,
}

impl Default for ProfileSampling {
    fn default() -> Self {
        ProfileSampling {
            config: soff_sim::ProfileConfig::default(),
            every: 1,
            max_reports: 64,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            device_slots: 2,
            slice_cycles: 50_000,
            global_queue_cap: 64,
            quota: TenantQuota::default(),
            device: Device::system_a(),
            scheduler: Scheduler::default(),
            max_cycles: 500_000_000,
            retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
            cache_dir: None,
            registry: None,
            trace: None,
            profile: None,
            supervision: Supervision::default(),
        }
    }
}
