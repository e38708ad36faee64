//! What the server reports: job outputs and profiles, per-tenant and
//! server-wide accounting, and health.

/// A sampled job's simulator profile, tagged with its origin.
#[derive(Debug)]
pub struct JobProfile {
    /// Tenant name.
    pub tenant: String,
    /// Session id the job ran under.
    pub session: u32,
    /// Job sequence number within the session.
    pub seq: u64,
    /// When the job settled, in µs on the server's trace clock (0 when
    /// no trace buffer is configured).
    pub settled_us: u64,
    /// The simulator's cycle-level report for the whole job.
    pub report: Box<soff_sim::ProfileReport>,
}

/// Readiness snapshot ([`Server::health`](crate::Server::health)).
#[derive(Debug, Clone)]
pub struct Health {
    /// The rolled-up verdict.
    pub state: HealthState,
    /// Every contributing cause (empty iff `state == Ok`).
    pub causes: Vec<HealthCause>,
}

/// Rolled-up readiness (`soff_serve_health`: Ok = 0, Degraded = 1,
/// Shedding = 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Fully serving.
    Ok,
    /// Serving with a subsystem impaired (see the causes).
    Degraded,
    /// Deliberately rejecting new work ([`Server::shed`](crate::Server::shed)).
    Shedding,
}

/// One subsystem's contribution to a non-Ok [`Health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthCause {
    /// The operator enabled load shedding.
    Shedding,
    /// The disk compile store is browning out (falling back to memory);
    /// heals on its next successful write.
    StoreDegraded {
        /// The last I/O error observed.
        error: String,
    },
    /// A tenant's circuit breaker is open (traffic shed).
    BreakerOpen {
        /// Tenant name.
        tenant: String,
    },
    /// A tenant's circuit breaker is half-open (probing recovery).
    BreakerHalfOpen {
        /// Tenant name.
        tenant: String,
    },
}

/// What a completed job reports.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Total simulated cycles (deterministic: identical to a solo run).
    pub cycles: u64,
    /// Work-items retired (deterministic).
    pub retired: u64,
    /// Wall-clock estimate at the device clock (deterministic).
    pub seconds: f64,
    /// Preemption slices the job ran in (scheduling-dependent).
    pub slices: u32,
    /// Execution attempts (1 = no retry).
    pub attempts: u32,
}

/// Per-tenant accounting snapshot.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Session name (as passed to [`Server::connect`](crate::Server::connect)).
    pub name: String,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that failed (fault, quota, hang, panic).
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Simulated cycles consumed across all slices (including failed
    /// attempts — consumed device time is consumed).
    pub cycles: u64,
    /// Enqueues rejected by queue bounds.
    pub rejected_queue_full: u64,
    /// Enqueues rejected by quotas.
    pub rejected_quota: u64,
    /// Enqueues rejected while shedding.
    pub rejected_shedding: u64,
    /// Admission rejections by [`ServeError::class`](crate::ServeError::class). The legacy
    /// `rejected_*` fields above are coarse sums over this breakdown and
    /// stay in sync with it.
    pub rejections: RejectionBreakdown,
    /// Retry attempts performed for this tenant's jobs.
    pub retries: u64,
    /// Jobs quarantined as poison (a subset of `failed`).
    pub quarantined: u64,
    /// Checkpoint recoveries after a device-slot death (per recovery,
    /// not per job).
    pub slot_recoveries: u64,
}

/// Per-class admission-rejection counts (one field per class the
/// admission path can emit; execution-time failures are not rejections).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionBreakdown {
    /// Rejected while load-shedding (`shedding`).
    pub shedding: u64,
    /// Tenant queue bound hit (`queue_full_tenant`).
    pub queue_full_tenant: u64,
    /// Global queue bound hit (`queue_full_global`).
    pub queue_full_global: u64,
    /// In-flight quota hit (`quota_in_flight`).
    pub quota_in_flight: u64,
    /// Total-cycles quota already exhausted (`quota_total_cycles`).
    pub quota_total_cycles: u64,
    /// Shed by the tenant's circuit breaker (`circuit_open`); coarsely
    /// counted under `rejected_shedding` (breaker sheds ARE load
    /// shedding, scoped to one tenant).
    pub circuit_open: u64,
}

impl RejectionBreakdown {
    /// Sum across all classes.
    pub fn total(&self) -> u64 {
        self.shedding
            + self.queue_full_tenant
            + self.queue_full_global
            + self.quota_in_flight
            + self.quota_total_cycles
            + self.circuit_open
    }
}

/// Server-wide accounting snapshot.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Per-tenant rows, in session-id order.
    pub tenants: Vec<TenantStats>,
    /// Execution slices run.
    pub slices: u64,
    /// Slices that ended in preemption (job still unfinished).
    pub preemptions: u64,
}

impl ServerStats {
    /// Max/min ratio of completed jobs across tenants with at least one
    /// admission (the starvation metric; 1.0 = perfectly fair,
    /// `f64::INFINITY` = someone starved).
    pub fn completion_fairness(&self) -> f64 {
        fairness(self.tenants.iter().map(|t| t.completed))
    }
}

/// [`ServerStats::completion_fairness`] over per-tenant completed counts.
pub(crate) fn fairness(completed: impl Iterator<Item = u64>) -> f64 {
    let (max, min) = completed.fold((0, u64::MAX), |(mx, mn), c| (mx.max(c), mn.min(c)));
    if max == 0 {
        1.0
    } else if min == 0 {
        f64::INFINITY
    } else {
        max as f64 / min as f64
    }
}
