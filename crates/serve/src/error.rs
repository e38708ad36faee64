//! The typed errors that admission and job outcomes surface as.

use crate::{BuildError, LaunchError};
use std::fmt;
use std::time::Duration;

/// Which queue rejected an enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueScope {
    /// The tenant's own queue hit
    /// [`TenantQuota::queue_depth`](crate::TenantQuota::queue_depth).
    Tenant,
    /// The server-wide queue hit
    /// [`ServerConfig::global_queue_cap`](crate::ServerConfig::global_queue_cap).
    Global,
}

/// Which quota a job or enqueue exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaKind {
    /// [`TenantQuota::max_in_flight`](crate::TenantQuota::max_in_flight).
    InFlight,
    /// [`TenantQuota::max_job_cycles`](crate::TenantQuota::max_job_cycles).
    JobCycles,
    /// [`TenantQuota::max_total_cycles`](crate::TenantQuota::max_total_cycles).
    TotalCycles,
    /// [`TenantQuota::max_job_wall`](crate::TenantQuota::max_job_wall).
    Wall,
}

/// Typed service errors. Overload and faults surface here, per session —
/// never as panics, and never affecting other sessions.
#[derive(Debug)]
pub enum ServeError {
    /// The server is load-shedding: draining in-flight work, rejecting
    /// new work.
    Shedding,
    /// The server (or this session) is shut down / closed.
    Closed,
    /// A bounded queue was full; retry later (backpressure).
    QueueFull {
        /// Which queue.
        scope: QueueScope,
        /// Its configured bound.
        limit: usize,
    },
    /// A per-tenant quota was exceeded.
    QuotaExceeded {
        /// Which quota.
        what: QuotaKind,
        /// Amount consumed when the quota tripped.
        used: u64,
        /// The configured limit.
        limit: u64,
    },
    /// Compilation failed.
    Build(BuildError),
    /// The launch was rejected before running (bad geometry, missing or
    /// mismatched arguments, foreign buffer handle).
    Launch(LaunchError),
    /// No kernel with this name in the program.
    UnknownKernel {
        /// The requested name.
        name: String,
    },
    /// The watchdog fired: the job exhausted the server's cycle budget.
    Hung {
        /// Simulated cycle at cut-off.
        cycle: u64,
    },
    /// The simulated hardware faulted (deadlock, invariant violation —
    /// including injected faults).
    Faulted {
        /// Simulated cycle of the fault.
        cycle: u64,
        /// Forensic one-liner.
        what: String,
    },
    /// The job's host code panicked; the panic was contained to this
    /// session.
    Panicked {
        /// Rendered panic payload.
        message: String,
    },
    /// The job was cancelled by its session.
    Cancelled,
    /// The job id is unknown (never existed, or its result was already
    /// consumed by `wait`).
    UnknownJob,
    /// The job failed
    /// [`Supervision::quarantine_after`](crate::Supervision::quarantine_after)
    /// consecutive attempts and was quarantined instead of burning further
    /// retry budget. Terminal for the job; the tenant's other jobs are
    /// unaffected.
    Quarantined {
        /// Attempts consumed before quarantine.
        attempts: u32,
        /// The final attempt's failure.
        last: Box<ServeError>,
    },
    /// The tenant's circuit breaker is open: its recent jobs kept
    /// failing, so new work is shed early. Deterministic backpressure —
    /// re-enqueueing drains the breaker's rejection budget toward a
    /// half-open probe.
    CircuitOpen,
    /// [`Session::wait_deadline`](crate::Session::wait_deadline) gave up
    /// before the job settled. The job is still in flight and its result
    /// still consumable.
    WaitTimeout {
        /// How long the caller waited.
        waited: Duration,
    },
}

impl ServeError {
    /// Stable, low-cardinality class label for metrics (the `class`
    /// label on `soff_serve_rejections_total`). One label per variant —
    /// queue-full and quota variants split by scope/kind, since which
    /// bound trips is exactly what an operator tunes.
    pub fn class(&self) -> &'static str {
        match self {
            ServeError::Shedding => "shedding",
            ServeError::Closed => "closed",
            ServeError::QueueFull { scope: QueueScope::Tenant, .. } => "queue_full_tenant",
            ServeError::QueueFull { scope: QueueScope::Global, .. } => "queue_full_global",
            ServeError::QuotaExceeded { what: QuotaKind::InFlight, .. } => "quota_in_flight",
            ServeError::QuotaExceeded { what: QuotaKind::JobCycles, .. } => "quota_job_cycles",
            ServeError::QuotaExceeded { what: QuotaKind::TotalCycles, .. } => {
                "quota_total_cycles"
            }
            ServeError::QuotaExceeded { what: QuotaKind::Wall, .. } => "quota_wall",
            ServeError::Build(_) => "build",
            ServeError::Launch(_) => "launch",
            ServeError::UnknownKernel { .. } => "unknown_kernel",
            ServeError::Hung { .. } => "hung",
            ServeError::Faulted { .. } => "faulted",
            ServeError::Panicked { .. } => "panicked",
            ServeError::Cancelled => "cancelled",
            ServeError::UnknownJob => "unknown_job",
            ServeError::Quarantined { .. } => "quarantined",
            ServeError::CircuitOpen => "circuit_open",
            ServeError::WaitTimeout { .. } => "wait_timeout",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Shedding => f.write_str("server is shedding load; retry later"),
            ServeError::Closed => f.write_str("server or session is closed"),
            ServeError::QueueFull { scope, limit } => {
                let which = match scope {
                    QueueScope::Tenant => "tenant",
                    QueueScope::Global => "global",
                };
                write!(f, "{which} queue full (limit {limit})")
            }
            ServeError::QuotaExceeded { what, used, limit } => {
                write!(f, "quota exceeded: {what:?} used {used} of {limit}")
            }
            ServeError::Build(e) => write!(f, "build failed: {e}"),
            ServeError::Launch(e) => write!(f, "launch rejected: {e}"),
            ServeError::UnknownKernel { name } => write!(f, "no kernel named `{name}`"),
            ServeError::Hung { cycle } => {
                write!(f, "job exceeded its cycle budget at cycle {cycle} (hang watchdog)")
            }
            ServeError::Faulted { cycle, what } => {
                write!(f, "simulated hardware fault at cycle {cycle}: {what}")
            }
            ServeError::Panicked { message } => write!(f, "job panicked: {message}"),
            ServeError::Cancelled => f.write_str("job cancelled"),
            ServeError::UnknownJob => f.write_str("unknown job id"),
            ServeError::Quarantined { attempts, last } => {
                write!(f, "job quarantined after {attempts} failed attempts (last: {last})")
            }
            ServeError::CircuitOpen => {
                f.write_str("tenant circuit breaker open; work shed until a probe succeeds")
            }
            ServeError::WaitTimeout { waited } => {
                write!(f, "wait deadline exceeded after {waited:?} (job still in flight)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<BuildError> for ServeError {
    fn from(e: BuildError) -> Self {
        ServeError::Build(e)
    }
}

impl From<LaunchError> for ServeError {
    fn from(e: LaunchError) -> Self {
        ServeError::Launch(e)
    }
}
