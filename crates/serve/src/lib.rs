//! # soff-serve
//!
//! An in-process multi-tenant compile-and-simulate service layered on the
//! SOFF runtime: many concurrent client [`Session`]s — each with its own
//! context, buffers, and in-order job queue — multiplexed over a bounded
//! pool of simulated devices. The SOFF paper's runtime serves one process
//! talking to real boards; this layer is the reproduction's step toward
//! the production-scale system the roadmap targets, and robustness is its
//! whole job:
//!
//! - **Preemptive time-slicing.** Kernel launches run in bounded cycle
//!   slices using the simulator's deterministic cycle deadlines and
//!   checkpoint/restore: after each slice the machine state is
//!   snapshotted and the device slot is handed to the neediest tenant
//!   (least attained service — the tenant with the fewest consumed
//!   cycles runs next). The job keeps its machine, and its next slice
//!   continues it; the snapshot is the recovery point after a slot
//!   death. Slices cut at deterministic cycle numbers, and snapshots
//!   resume bit-identically, so a tenant's results are byte-identical
//!   whether it runs alone or interleaved with others.
//! - **Admission control and graceful degradation.** Per-tenant and
//!   global queue bounds, per-tenant quotas (cycles per job, total
//!   cycles, wall time, in-flight launches), and a load-shedding mode
//!   reject work with typed [`ServeError`]s instead of queueing without
//!   bound or panicking. In-flight work always drains cleanly.
//! - **Crash-safe shared compiles.** When configured with a cache
//!   directory, compiles go through the runtime's on-disk
//!   content-addressed store ([`soff_runtime::cache::set_disk_store`]):
//!   fsync'd, checksummed, torn-write-tolerant, shared across processes,
//!   and reused after a crash or restart.
//! - **Fault containment.** A tenant whose kernel panics, hangs the
//!   watchdog, or hits injected hardware faults gets a typed per-session
//!   error and a bounded retry (via [`soff_exec::RetryPolicy`] backoff);
//!   its device memory is rolled back to the pre-launch state, and no
//!   other tenant observes anything but scheduling latency.
//! - **First-class observability.** Every server instruments the full
//!   request path on a `soff-obs` registry ([`ServerConfig::registry`];
//!   the process-global one by default): per-tenant queue-wait and
//!   slice-duration histograms, per-class rejection counters, slice /
//!   preemption counters, a queue-depth gauge, and a completion-fairness
//!   gauge. With [`ServerConfig::trace`] set, the admit → queue → slice
//!   → settle path additionally records begin/end spans with
//!   tenant/session/job correlation IDs into a bounded ring buffer, and
//!   [`ServerConfig::profile`] samples jobs through the simulator's
//!   cycle profiler so serve-level spans and in-kernel timelines export
//!   into one merged Chrome trace ([`Server::take_profiles`]).

pub mod breaker;
pub mod chaos;

use breaker::{Breaker, BreakerEvent, BreakerState};
use soff_obs::{CorrId, Counter, Gauge, Histogram, Registry, TraceBuf};
use soff_runtime::{CompiledKernel, Context};
use soff_sim::{CancelToken, FaultPlan, Machine, RunControl, Scheduler, SimError, Snapshot};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use breaker::BreakerConfig;
pub use soff_exec::RetryPolicy;
pub use soff_ir::ir::NdRange;
// The client-facing runtime vocabulary, so `soff_serve` callers need no
// direct `soff_runtime` import for the common path.
pub use soff_runtime::{Buffer, BuildError, Device, KernelHandle, LaunchError, Program};

/// Per-tenant resource quotas, enforced at admission and at every slice
/// boundary.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Maximum queued jobs (the per-tenant queue bound).
    pub queue_depth: usize,
    /// Maximum jobs admitted but not yet completed (queued + running).
    pub max_in_flight: usize,
    /// Maximum simulated cycles a single job may consume before it is
    /// failed with [`QuotaKind::JobCycles`].
    pub max_job_cycles: u64,
    /// Cap on the tenant's *total* consumed cycles; once reached, the
    /// running job fails and new work is rejected
    /// ([`QuotaKind::TotalCycles`]).
    pub max_total_cycles: Option<u64>,
    /// Cap on a single job's host wall time across its slices
    /// ([`QuotaKind::Wall`]). Checked at slice boundaries, so it is a
    /// watchdog, not a precise meter.
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
    /// [`ServeError::Hung`] when exhausted).
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
    /// [`ServeError::Faulted`].
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
    /// Bound on retained [`JobProfile`] reports (oldest kept; further
    /// reports are dropped). Collect with [`Server::take_profiles`].
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

/// Readiness snapshot ([`Server::health`]).
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
    /// Deliberately rejecting new work ([`Server::shed`]).
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

/// Which queue rejected an enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueScope {
    /// The tenant's own queue hit [`TenantQuota::queue_depth`].
    Tenant,
    /// The server-wide queue hit [`ServerConfig::global_queue_cap`].
    Global,
}

/// Which quota a job or enqueue exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaKind {
    /// [`TenantQuota::max_in_flight`].
    InFlight,
    /// [`TenantQuota::max_job_cycles`].
    JobCycles,
    /// [`TenantQuota::max_total_cycles`].
    TotalCycles,
    /// [`TenantQuota::max_job_wall`].
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
    /// The job failed [`Supervision::quarantine_after`] consecutive
    /// attempts and was quarantined instead of burning further retry
    /// budget. Terminal for the job; the tenant's other jobs are
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
    /// [`Session::wait_deadline`] gave up before the job settled. The
    /// job is still in flight and its result still consumable.
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

/// Handle to one enqueued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId {
    session: u32,
    seq: u64,
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
    /// Session name (as passed to [`Server::connect`]).
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
    /// Admission rejections by [`ServeError::class`]. The legacy
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
        let counts: Vec<u64> = self.tenants.iter().map(|t| t.completed).collect();
        match (counts.iter().max(), counts.iter().min()) {
            (Some(&max), Some(&min)) if max > 0 => {
                if min == 0 {
                    f64::INFINITY
                } else {
                    max as f64 / min as f64
                }
            }
            _ => 1.0,
        }
    }
}

// ------------------------------------------------------------------ jobs

/// A job's mutable execution state, owned by the scheduler.
struct Job {
    kernel: KernelHandle,
    args: Vec<soff_ir::mem::ArgValue>,
    nd: NdRange,
    /// Checkpoint from the last preempted slice (`None` before the first
    /// slice or after a retry reset).
    snapshot: Option<Box<Snapshot>>,
    /// The machine the last slice left at its cut, which the next slice
    /// continues. Any other outcome drops it, and the next dispatch
    /// rebuilds a machine and restores `snapshot` into it.
    machine: Option<Machine>,
    /// Simulated cycles completed so far (= snapshot cycle).
    cycles_done: u64,
    /// Host wall time consumed across slices.
    wall_used: Duration,
    slices: u32,
    attempts: u32,
    cancel: CancelToken,
    /// Injected hardware faults for this job (cleared on retry: injected
    /// faults model transient events).
    faults: FaultPlan,
    /// Test hook: remaining slices that panic (decremented per retry, so
    /// `n > 1` models a *poison* job that defeats transient-fault retry).
    panics_left: u32,
    /// Whether this job is the half-open breaker's probe.
    probe: bool,
    /// Device-slot deaths this job already recovered from.
    slot_recoveries: u32,
    /// Earliest dispatch time (retry backoff).
    not_before: Option<Instant>,
    /// Device memory as it was before the job's first slice, for
    /// containment rollback on failure/retry. Taken lazily at first
    /// dispatch.
    gm_backup: Option<soff_ir::mem::GlobalMemory>,
    /// Profiler config when this job was sampled for profiling. Decided
    /// once at admission and constant for the job's life: slice snapshots
    /// fingerprint the profiling decision, so flipping it mid-job would
    /// invalidate resume.
    profile: Option<soff_sim::ProfileConfig>,
    /// When the job last entered a queue (admission or requeue), for the
    /// queue-wait histogram.
    queued_at: Instant,
}

enum JobState {
    Queued(Box<Job>),
    Running,
    Done(Result<JobOutput, ServeError>),
}

struct Tenant {
    /// `None` while a worker executes a slice for this tenant (the
    /// worker owns the context — and with it the device memory — for the
    /// slice's duration).
    ctx: Option<Context>,
    quota: TenantQuota,
    /// Pending job ids, front = next to run. In-order: only the front
    /// job ever runs, so one tenant occupies at most one device slot.
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobState>,
    next_seq: u64,
    on_worker: bool,
    closed: bool,
    /// Cancel token of the job currently on a worker, so `cancel` can
    /// interrupt a running slice without waiting for its deadline.
    running_cancel: Option<CancelToken>,
    /// Faults to attach to the next enqueue (test hook).
    pending_faults: FaultPlan,
    /// Panicking attempts to attach to the next enqueue (test hook).
    pending_panics: u32,
    /// This tenant's circuit breaker (disabled under the default
    /// [`Supervision`]).
    breaker: Breaker,
    stats: TenantStats,
    obs: TenantObs,
}

/// Per-tenant observability handles, registered once at connect.
struct TenantObs {
    /// Tenant name as a shared label (also the span tenant tag).
    label: Arc<str>,
    /// `soff_serve_queue_wait_us{tenant}`: µs a job waited in queue
    /// before each dispatch (one sample per dispatch, including
    /// re-dispatch after preemption/retry).
    queue_wait_us: Histogram,
    /// `soff_serve_slice_us{tenant}`: host wall µs per execution slice.
    slice_us: Histogram,
    /// `soff_serve_breaker_state{tenant}`: 0 closed, 1 half-open, 2 open.
    breaker_state: Gauge,
}

impl Tenant {
    fn in_flight(&self) -> usize {
        self.jobs
            .values()
            .filter(|s| matches!(s, JobState::Queued(_) | JobState::Running))
            .count()
    }
}

struct State {
    tenants: HashMap<u32, Tenant>,
    session_order: Vec<u32>,
    next_session: u32,
    /// Jobs queued across all tenants (admission bound).
    global_queued: usize,
    shedding: bool,
    shutdown: bool,
    slices: u64,
    preemptions: u64,
    /// Retained sampled-profiling reports (bounded by
    /// [`ProfileSampling::max_reports`]; overflow counted in `profiles_dropped`).
    profiles: Vec<JobProfile>,
    profiles_dropped: u64,
    /// Global slice indices at which a device slot dies mid-slice (chaos
    /// hook, consumed as they trigger).
    slot_kills: std::collections::HashSet<u64>,
}

struct Inner {
    cfg: ServerConfig,
    state: Mutex<State>,
    /// Signalled when a job may be runnable (workers wait here).
    work_ready: Condvar,
    /// Signalled on any job completion / queue drain / context return
    /// (clients wait here).
    progress: Condvar,
    workers: Mutex<Vec<JoinHandle<()>>>,
    obs: ServeObs,
}

/// Server-wide observability handles, registered once at startup.
struct ServeObs {
    /// `None` → the process-global registry (resolved via
    /// [`ServeObs::registry`]; per-tenant and per-class series are
    /// registered lazily against the same resolution).
    registry: Option<Arc<Registry>>,
    trace: Option<Arc<TraceBuf>>,
    /// `soff_serve_slices_total`: execution slices run.
    slices: Counter,
    /// `soff_serve_preemptions_total`: slices ending in preemption.
    preemptions: Counter,
    /// `soff_serve_queue_depth`: jobs admitted and not yet settled
    /// (queued + running), across all tenants.
    queue_depth: Gauge,
    /// `soff_serve_completion_fairness`: live max/min completed-jobs
    /// ratio (see [`ServerStats::completion_fairness`]), recomputed at
    /// every job completion.
    fairness: Gauge,
    /// `soff_serve_health`: 0 ok, 1 degraded, 2 shedding (set on every
    /// [`Server::health`] call).
    health: Gauge,
}

impl ServeObs {
    fn new(registry: Option<Arc<Registry>>, trace: Option<Arc<TraceBuf>>) -> ServeObs {
        let r = match &registry {
            Some(r) => r.as_ref(),
            None => soff_obs::global(),
        };
        let slices = r.counter("soff_serve_slices_total", &[]);
        let preemptions = r.counter("soff_serve_preemptions_total", &[]);
        let queue_depth = r.gauge("soff_serve_queue_depth", &[]);
        let fairness = r.gauge("soff_serve_completion_fairness", &[]);
        let health = r.gauge("soff_serve_health", &[]);
        ServeObs { registry, trace, slices, preemptions, queue_depth, fairness, health }
    }

    fn registry(&self) -> &Registry {
        match &self.registry {
            Some(r) => r.as_ref(),
            None => soff_obs::global(),
        }
    }

    /// Lazily-registered per-tenant/per-class rejection counter. Lookup
    /// takes the registry mutex, which is fine on the rejection path —
    /// rejections are the rare case, and the handle cache inside the
    /// registry makes repeat lookups a map probe.
    fn rejection(&self, tenant: &str, class: &'static str) -> Counter {
        self.registry()
            .counter("soff_serve_rejections_total", &[("tenant", tenant), ("class", class)])
    }

    /// Lazily-registered per-tenant/per-outcome job counter.
    fn job_outcome(&self, tenant: &str, outcome: &'static str) -> Counter {
        self.registry()
            .counter("soff_serve_jobs_total", &[("tenant", tenant), ("outcome", outcome)])
    }

    /// Lazily-registered per-kind recovery counter. Kinds: `retry`
    /// (failed attempt retried), `slot` (checkpoint re-admit after a
    /// slot death), `breaker` (a breaker re-closed).
    fn recovery(&self, kind: &'static str) -> Counter {
        self.registry().counter("soff_serve_recoveries_total", &[("kind", kind)])
    }

    /// Lazily-registered per-tenant quarantine counter.
    fn quarantine(&self, tenant: &str) -> Counter {
        self.registry().counter("soff_serve_quarantines_total", &[("tenant", tenant)])
    }
}

/// How a slice ended (computed off-lock by a worker).
enum SliceOutcome {
    Done(soff_sim::SimResult),
    Preempted {
        cycle: u64,
        snapshot: Box<Snapshot>,
    },
    Cancelled {
        cycle: u64,
    },
    Failed {
        error: ServeError,
        /// Cycle the failure was observed at (None: unknown, e.g. panic).
        cycle: Option<u64>,
        retryable: bool,
    },
    /// The device slot died mid-slice (chaos hook): whatever the slice
    /// produced is lost and the job re-admits from its last checkpoint.
    SlotDied,
}

// ---------------------------------------------------------------- server

/// The multi-tenant service. Dropping it shuts down: stops admitting,
/// drains queued work, joins the workers.
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Starts a server: spawns `device_slots` workers and, if configured,
    /// attaches the on-disk compile store.
    ///
    /// `device_slots == 0` is a valid "admission-only" configuration:
    /// jobs are validated and queued but never dispatched, which is how
    /// the admission-control tests pin queue occupancy deterministically.
    ///
    /// # Errors
    ///
    /// I/O errors creating the cache directory.
    pub fn new(cfg: ServerConfig) -> io::Result<Server> {
        if let Some(dir) = &cfg.cache_dir {
            soff_runtime::cache::set_disk_store(Some(dir))?;
        }
        let slots = cfg.device_slots;
        let obs = ServeObs::new(cfg.registry.clone(), cfg.trace.clone());
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(State {
                tenants: HashMap::new(),
                session_order: Vec::new(),
                next_session: 0,
                global_queued: 0,
                shedding: false,
                shutdown: false,
                slices: 0,
                preemptions: 0,
                profiles: Vec::new(),
                profiles_dropped: 0,
                slot_kills: std::collections::HashSet::new(),
            }),
            work_ready: Condvar::new(),
            progress: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            obs,
        });
        let mut handles = Vec::with_capacity(slots);
        for slot in 0..slots {
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("soff-serve-slot-{slot}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn device-slot worker"),
            );
        }
        *inner.workers.lock().unwrap_or_else(|e| e.into_inner()) = handles;
        Ok(Server { inner })
    }

    /// Opens a client session with the default quota.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shedding`] / [`ServeError::Closed`] under overload
    /// or shutdown.
    pub fn connect(&self, name: &str) -> Result<Session, ServeError> {
        let quota = self.inner.cfg.quota.clone();
        self.connect_with_quota(name, quota)
    }

    /// Opens a client session with an explicit quota.
    ///
    /// # Errors
    ///
    /// See [`Server::connect`].
    pub fn connect_with_quota(
        &self,
        name: &str,
        quota: TenantQuota,
    ) -> Result<Session, ServeError> {
        let mut st = lock(&self.inner.state);
        if st.shutdown {
            return Err(ServeError::Closed);
        }
        if st.shedding {
            return Err(ServeError::Shedding);
        }
        let id = st.next_session;
        st.next_session += 1;
        let obs = TenantObs {
            label: Arc::from(name),
            queue_wait_us: self
                .inner
                .obs
                .registry()
                .histogram("soff_serve_queue_wait_us", &[("tenant", name)]),
            slice_us: self
                .inner
                .obs
                .registry()
                .histogram("soff_serve_slice_us", &[("tenant", name)]),
            breaker_state: self
                .inner
                .obs
                .registry()
                .gauge("soff_serve_breaker_state", &[("tenant", name)]),
        };
        st.tenants.insert(
            id,
            Tenant {
                ctx: Some(Context::new(self.inner.cfg.device.clone())),
                quota,
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                next_seq: 0,
                on_worker: false,
                closed: false,
                running_cancel: None,
                pending_faults: FaultPlan::none(),
                pending_panics: 0,
                breaker: Breaker::new(self.inner.cfg.supervision.breaker),
                stats: TenantStats { name: name.to_string(), ..TenantStats::default() },
                obs,
            },
        );
        st.session_order.push(id);
        Ok(Session { inner: Arc::clone(&self.inner), id })
    }

    /// Enters load-shedding: new sessions and new jobs are rejected with
    /// [`ServeError::Shedding`]; everything in flight drains normally.
    pub fn shed(&self) {
        lock(&self.inner.state).shedding = true;
    }

    /// Leaves load-shedding.
    pub fn resume(&self) {
        lock(&self.inner.state).shedding = false;
    }

    /// Readiness snapshot: [`HealthState::Ok`] when nothing is wrong,
    /// [`HealthState::Degraded`] when a subsystem is impaired but the
    /// server still serves (store brownout, a tenant breaker open or
    /// probing), [`HealthState::Shedding`] under explicit load-shedding.
    /// Each call also publishes the state to the `soff_serve_health`
    /// gauge (0/1/2).
    pub fn health(&self) -> Health {
        let st = lock(&self.inner.state);
        let mut causes = Vec::new();
        if st.shedding {
            causes.push(HealthCause::Shedding);
        }
        if self.inner.cfg.cache_dir.is_some() {
            if let Some(error) = soff_runtime::cache::disk_health() {
                causes.push(HealthCause::StoreDegraded { error });
            }
        }
        for id in &st.session_order {
            let Some(t) = st.tenants.get(id) else { continue };
            match t.breaker.state() {
                BreakerState::Closed => {}
                BreakerState::Open => {
                    causes.push(HealthCause::BreakerOpen { tenant: t.stats.name.clone() });
                }
                BreakerState::HalfOpen => {
                    causes.push(HealthCause::BreakerHalfOpen { tenant: t.stats.name.clone() });
                }
            }
        }
        let state = if st.shedding {
            HealthState::Shedding
        } else if causes.is_empty() {
            HealthState::Ok
        } else {
            HealthState::Degraded
        };
        self.inner.obs.health.set(match state {
            HealthState::Ok => 0.0,
            HealthState::Degraded => 1.0,
            HealthState::Shedding => 2.0,
        });
        Health { state, causes }
    }

    /// Chaos hook: the listed *global* slice indices (the server-wide
    /// slice counter, visible as [`ServerStats::slices`]) die mid-slice —
    /// the slice's work is lost and the victim job re-admits from its
    /// last checkpoint.
    #[doc(hidden)]
    pub fn inject_slot_deaths(&self, slices: &[u64]) {
        let mut st = lock(&self.inner.state);
        st.slot_kills.extend(slices.iter().copied());
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> ServerStats {
        let st = lock(&self.inner.state);
        ServerStats {
            tenants: st
                .session_order
                .iter()
                .filter_map(|id| st.tenants.get(id))
                .map(|t| t.stats.clone())
                .collect(),
            slices: st.slices,
            preemptions: st.preemptions,
        }
    }

    /// Drains the retained sampled-profiling reports collected so far
    /// (oldest first). Empty unless [`ServerConfig::profile`] is set.
    /// Also returns how many reports were dropped to the
    /// [`ProfileSampling::max_reports`] bound since the last call.
    pub fn take_profiles(&self) -> (Vec<JobProfile>, u64) {
        let mut st = lock(&self.inner.state);
        let dropped = std::mem::take(&mut st.profiles_dropped);
        (std::mem::take(&mut st.profiles), dropped)
    }

    /// Stops admitting, drains every queued job, and joins the workers.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
            self.inner.work_ready.notify_all();
            self.inner.progress.notify_all();
        }
        let handles = std::mem::take(&mut *self.inner.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock<'a>(m: &'a Mutex<State>) -> MutexGuard<'a, State> {
    // Worker slices run under `catch_unwind`, and state transitions never
    // hold the lock across user code, so a poisoned lock only means a
    // panicking *accounting* bug; recovering keeps unrelated tenants
    // alive, which is the containment contract.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// --------------------------------------------------------------- session

/// One tenant's connection: its own contexts/buffers/queue. All methods
/// are `&self`; a session can be shared across the tenant's threads.
pub struct Session {
    inner: Arc<Inner>,
    id: u32,
}

impl Session {
    /// The session's tenant name.
    pub fn server_session_id(&self) -> u32 {
        self.id
    }

    /// Runs `f` on this tenant's context once it is resident (not on a
    /// worker) and, if `drained` is set, once the job queue is empty —
    /// the OpenCL in-order-queue semantics for buffer reads/writes.
    fn with_ctx<T>(
        &self,
        drained: bool,
        f: impl FnOnce(&mut Context) -> T,
    ) -> Result<T, ServeError> {
        let mut st = lock(&self.inner.state);
        loop {
            let tenant = st.tenants.get_mut(&self.id).ok_or(ServeError::Closed)?;
            let ready = tenant.ctx.is_some() && (!drained || tenant.queue.is_empty());
            if ready {
                let ctx = tenant.ctx.as_mut().expect("checked resident");
                return Ok(f(ctx));
            }
            if st.shutdown
                && self.inner.workers.lock().unwrap_or_else(|e| e.into_inner()).is_empty()
            {
                // Workers have exited: residency can no longer change, so
                // waiting would hang forever.
                return Err(ServeError::Closed);
            }
            st = self.inner.progress.wait(st).expect("progress condvar");
        }
    }

    /// Allocates a device buffer of `size` bytes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] after close/shutdown.
    pub fn create_buffer(&self, size: usize) -> Result<Buffer, ServeError> {
        self.with_ctx(false, |ctx| ctx.create_buffer(size))
    }

    /// Writes bytes to a buffer, after all previously enqueued jobs
    /// complete (in-order queue semantics).
    ///
    /// # Errors
    ///
    /// [`ServeError::Launch`] wrapping the API error for foreign handles
    /// or overruns.
    pub fn write_buffer(&self, b: Buffer, data: &[u8]) -> Result<(), ServeError> {
        self.with_ctx(true, |ctx| ctx.write_buffer(b, data))?
            .map_err(|e| ServeError::Launch(e.into()))
    }

    /// Reads a buffer back, after all previously enqueued jobs complete.
    ///
    /// # Errors
    ///
    /// See [`Session::write_buffer`].
    pub fn read_buffer(&self, b: Buffer) -> Result<Vec<u8>, ServeError> {
        self.with_ctx(true, |ctx| ctx.read_buffer(b))?
            .map_err(|e| ServeError::Launch(e.into()))
    }

    /// Compiles a program on the calling thread. Compiles are shared:
    /// identical sources hit the process-wide cache, and with a cache
    /// directory configured they are served from / persisted to disk.
    ///
    /// # Errors
    ///
    /// [`ServeError::Build`], [`ServeError::Shedding`],
    /// [`ServeError::Closed`].
    pub fn build_program(
        &self,
        source: &str,
        defines: &[(String, String)],
    ) -> Result<Program, ServeError> {
        {
            let st = lock(&self.inner.state);
            if st.shutdown || st.tenants.get(&self.id).is_none_or(|t| t.closed) {
                return Err(ServeError::Closed);
            }
            if st.shedding {
                return Err(ServeError::Shedding);
            }
        }
        Ok(Program::build(source, defines, &self.inner.cfg.device)?)
    }

    /// A kernel handle by name.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownKernel`].
    pub fn kernel(&self, program: &Program, name: &str) -> Result<KernelHandle, ServeError> {
        program.kernel(name).ok_or_else(|| ServeError::UnknownKernel { name: name.to_string() })
    }

    /// Admits a launch: validates it, applies admission control, and
    /// queues it. Returns immediately; pair with [`Session::wait`].
    ///
    /// # Errors
    ///
    /// Admission: [`ServeError::Shedding`], [`ServeError::QueueFull`],
    /// [`ServeError::QuotaExceeded`], [`ServeError::Closed`].
    /// Validation: [`ServeError::Launch`].
    pub fn enqueue(&self, kernel: &KernelHandle, nd: NdRange) -> Result<JobId, ServeError> {
        // Validation needs the tenant's context (buffer ownership), which
        // may briefly be on a worker; waiting for residency (not drain)
        // keeps admission latency bounded by one slice.
        let mut st = lock(&self.inner.state);
        loop {
            {
                let global_cap = self.inner.cfg.global_queue_cap;
                let global_queued = st.global_queued;
                let shedding = st.shedding;
                let shutdown = st.shutdown;
                let tenant = st.tenants.get_mut(&self.id).ok_or(ServeError::Closed)?;
                if shutdown || tenant.closed {
                    return Err(ServeError::Closed);
                }
                // Admission control order: shed, global bound, tenant
                // bound, quotas — cheapest and most systemic first.
                // Every rejection bumps the legacy coarse stat, the
                // per-class breakdown, and the labeled registry counter;
                // `reject()` keeps the three in lockstep.
                let obs = &self.inner.obs;
                let tenant_session = self.id as u64;
                let reject = |tenant: &mut Tenant, err: ServeError| {
                    let b = &mut tenant.stats.rejections;
                    match err.class() {
                        "shedding" => {
                            b.shedding += 1;
                            tenant.stats.rejected_shedding += 1;
                        }
                        "queue_full_tenant" => {
                            b.queue_full_tenant += 1;
                            tenant.stats.rejected_queue_full += 1;
                        }
                        "queue_full_global" => {
                            b.queue_full_global += 1;
                            tenant.stats.rejected_queue_full += 1;
                        }
                        "quota_in_flight" => {
                            b.quota_in_flight += 1;
                            tenant.stats.rejected_quota += 1;
                        }
                        "circuit_open" => {
                            b.circuit_open += 1;
                            tenant.stats.rejected_shedding += 1;
                        }
                        _ => {
                            b.quota_total_cycles += 1;
                            tenant.stats.rejected_quota += 1;
                        }
                    }
                    obs.rejection(&tenant.stats.name, err.class()).inc();
                    if let Some(tr) = &obs.trace {
                        let corr = CorrId { session: tenant_session, seq: tenant.next_seq };
                        tr.instant("reject", corr, &tenant.obs.label, 0);
                    }
                    Err(err)
                };
                if shedding {
                    return reject(tenant, ServeError::Shedding);
                }
                // The breaker sheds before any queue bookkeeping: open
                // means this tenant's recent jobs keep failing, and the
                // cheapest thing to do with more of them is nothing.
                let (admit, _half_opened) = tenant.breaker.admit();
                tenant.obs.breaker_state.set(tenant.breaker.gauge_value());
                if !admit {
                    return reject(tenant, ServeError::CircuitOpen);
                }
                if global_queued >= global_cap {
                    return reject(
                        tenant,
                        ServeError::QueueFull { scope: QueueScope::Global, limit: global_cap },
                    );
                }
                if tenant.queue.len() >= tenant.quota.queue_depth {
                    return reject(
                        tenant,
                        ServeError::QueueFull {
                            scope: QueueScope::Tenant,
                            limit: tenant.quota.queue_depth,
                        },
                    );
                }
                if tenant.in_flight() >= tenant.quota.max_in_flight {
                    let used = tenant.in_flight() as u64;
                    let limit = tenant.quota.max_in_flight as u64;
                    return reject(
                        tenant,
                        ServeError::QuotaExceeded { what: QuotaKind::InFlight, used, limit },
                    );
                }
                if let Some(total) = tenant.quota.max_total_cycles {
                    if tenant.stats.cycles >= total {
                        let used = tenant.stats.cycles;
                        return reject(
                            tenant,
                            ServeError::QuotaExceeded {
                                what: QuotaKind::TotalCycles,
                                used,
                                limit: total,
                            },
                        );
                    }
                }
                if let Some(ctx) = tenant.ctx.as_ref() {
                    let args = ctx.prepare_launch(kernel, nd)?;
                    let seq = tenant.next_seq;
                    tenant.next_seq += 1;
                    // Fully admitted: only now may the job consume the
                    // half-open breaker's probe slot (a breaker-allowed
                    // request that a quota later rejects must not wedge
                    // the probe).
                    let probe = tenant.breaker.on_admitted();
                    // The profiling decision is fixed here for the job's
                    // whole life: slice snapshots fingerprint it, so it
                    // must not change between slices.
                    let profile = self.inner.cfg.profile.as_ref().and_then(|ps| {
                        (seq % ps.every.max(1) == 0).then_some(ps.config)
                    });
                    let job = Job {
                        kernel: kernel.clone(),
                        args,
                        nd,
                        snapshot: None,
                        machine: None,
                        cycles_done: 0,
                        wall_used: Duration::ZERO,
                        slices: 0,
                        attempts: 0,
                        cancel: CancelToken::new(),
                        faults: std::mem::take(&mut tenant.pending_faults),
                        panics_left: std::mem::take(&mut tenant.pending_panics),
                        probe,
                        slot_recoveries: 0,
                        not_before: None,
                        gm_backup: None,
                        profile,
                        queued_at: Instant::now(),
                    };
                    tenant.jobs.insert(seq, JobState::Queued(Box::new(job)));
                    tenant.queue.push_back(seq);
                    st.global_queued += 1;
                    self.inner.obs.queue_depth.set(st.global_queued as f64);
                    if let Some(tr) = &self.inner.obs.trace {
                        let tenant = st.tenants.get(&self.id).expect("tenant checked above");
                        let corr = CorrId { session: tenant_session, seq };
                        tr.instant("admit", corr, &tenant.obs.label, 0);
                        tr.begin("queue", corr, &tenant.obs.label, 0);
                    }
                    self.inner.work_ready.notify_one();
                    return Ok(JobId { session: self.id, seq });
                }
            }
            // Context on a worker: wait for it to come home and re-run
            // admission from the top (conditions may have changed).
            st = self.inner.progress.wait(st).expect("progress condvar");
        }
    }

    /// Requests cancellation of a job: a queued job completes immediately
    /// as [`ServeError::Cancelled`]; a running job stops at the
    /// simulator's next poll point. Returns whether the job was still in
    /// flight.
    pub fn cancel(&self, job: JobId) -> bool {
        if job.session != self.id {
            return false;
        }
        let mut st = lock(&self.inner.state);
        let state = &mut *st;
        let Some(tenant) = state.tenants.get_mut(&self.id) else { return false };
        match tenant.jobs.get_mut(&job.seq) {
            Some(slot @ JobState::Queued(_)) => {
                let probe = match &*slot {
                    JobState::Queued(j) => j.probe,
                    _ => false,
                };
                *slot = JobState::Done(Err(ServeError::Cancelled));
                tenant.queue.retain(|&s| s != job.seq);
                tenant.stats.cancelled += 1;
                // A cancelled probe proves nothing; return its slot so
                // the next admission can probe instead.
                tenant.breaker.on_abandoned(probe);
                tenant.obs.breaker_state.set(tenant.breaker.gauge_value());
                state.global_queued -= 1;
                let obs = &self.inner.obs;
                obs.queue_depth.set(state.global_queued as f64);
                obs.job_outcome(&tenant.stats.name, "cancelled").inc();
                if let Some(tr) = &obs.trace {
                    // Close the admission-time "queue" span: the job
                    // leaves the queue here, not at a dispatch.
                    let corr = CorrId { session: self.id as u64, seq: job.seq };
                    tr.end("queue", corr, &tenant.obs.label, 0);
                    tr.instant("cancel", corr, &tenant.obs.label, 0);
                }
                self.inner.progress.notify_all();
                true
            }
            Some(JobState::Running) => {
                // The token was cloned into the running slice's
                // RunControl, so cancelling the tenant-side clone stops
                // the simulator at its next poll point.
                if let Some(tok) = tenant.running_cancel.as_ref() {
                    tok.cancel();
                }
                true
            }
            _ => false,
        }
    }

    /// Blocks until `job` completes and consumes its result.
    ///
    /// # Errors
    ///
    /// The job's own failure, or [`ServeError::UnknownJob`] for a
    /// foreign/consumed id.
    pub fn wait(&self, job: JobId) -> Result<JobOutput, ServeError> {
        if job.session != self.id {
            return Err(ServeError::UnknownJob);
        }
        let mut st = lock(&self.inner.state);
        loop {
            let tenant = st.tenants.get_mut(&self.id).ok_or(ServeError::Closed)?;
            match tenant.jobs.get(&job.seq) {
                None => return Err(ServeError::UnknownJob),
                Some(JobState::Done(_)) => {
                    let Some(JobState::Done(result)) = tenant.jobs.remove(&job.seq) else {
                        unreachable!("checked Done above")
                    };
                    return result;
                }
                Some(_) => {
                    st = self.inner.progress.wait(st).expect("progress condvar");
                }
            }
        }
    }

    /// Like [`Session::wait`], but gives up after `wall_budget` of host
    /// wall time with [`ServeError::WaitTimeout`] — *without* consuming
    /// the job, which keeps running (or queued). The caller decides what
    /// a stall means: re-wait, [`Session::cancel`], or escalate.
    ///
    /// # Errors
    ///
    /// [`ServeError::WaitTimeout`] on deadline expiry; otherwise as
    /// [`Session::wait`].
    pub fn wait_deadline(
        &self,
        job: JobId,
        wall_budget: Duration,
    ) -> Result<JobOutput, ServeError> {
        if job.session != self.id {
            return Err(ServeError::UnknownJob);
        }
        let started = Instant::now();
        let deadline = started + wall_budget;
        let mut st = lock(&self.inner.state);
        loop {
            let tenant = st.tenants.get_mut(&self.id).ok_or(ServeError::Closed)?;
            match tenant.jobs.get(&job.seq) {
                None => return Err(ServeError::UnknownJob),
                Some(JobState::Done(_)) => {
                    let Some(JobState::Done(result)) = tenant.jobs.remove(&job.seq) else {
                        unreachable!("checked Done above")
                    };
                    return result;
                }
                Some(_) => {
                    let now = Instant::now();
                    let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                    else {
                        return Err(ServeError::WaitTimeout { waited: started.elapsed() });
                    };
                    let (guard, _timeout) = self
                        .inner
                        .progress
                        .wait_timeout(st, left)
                        .expect("progress condvar");
                    st = guard;
                }
            }
        }
    }

    /// Blocks until every job this session enqueued has completed.
    pub fn drain(&self) {
        let mut st = lock(&self.inner.state);
        loop {
            match st.tenants.get(&self.id) {
                None => return,
                Some(t) if t.queue.is_empty() && !t.on_worker => return,
                Some(_) => st = self.inner.progress.wait(st).expect("progress condvar"),
            }
        }
    }

    /// This tenant's accounting snapshot.
    pub fn stats(&self) -> TenantStats {
        let st = lock(&self.inner.state);
        st.tenants.get(&self.id).map(|t| t.stats.clone()).unwrap_or_default()
    }

    /// Closes the session: new enqueues are rejected; in-flight work
    /// drains.
    pub fn close(&self) {
        let mut st = lock(&self.inner.state);
        if let Some(t) = st.tenants.get_mut(&self.id) {
            t.closed = true;
        }
    }

    /// Test hook: attach an injected-fault plan to the next enqueue.
    #[doc(hidden)]
    pub fn inject_faults_next(&self, plan: FaultPlan) {
        let mut st = lock(&self.inner.state);
        if let Some(t) = st.tenants.get_mut(&self.id) {
            t.pending_faults = plan;
        }
    }

    /// Test hook: make the next enqueued job panic inside its slice.
    #[doc(hidden)]
    pub fn inject_panic_next(&self) {
        self.inject_sticky_panics_next(1);
    }

    /// Test hook: make the next enqueued job panic on its next `n`
    /// attempts — `n >=` the retry budget models a poison job that only
    /// quarantine can stop.
    #[doc(hidden)]
    pub fn inject_sticky_panics_next(&self, n: u32) {
        let mut st = lock(&self.inner.state);
        if let Some(t) = st.tenants.get_mut(&self.id) {
            t.pending_panics = n;
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.close();
    }
}

// --------------------------------------------------------------- workers

fn worker_loop(inner: &Inner) {
    let mut st = lock(&inner.state);
    loop {
        let now = Instant::now();
        match pick_tenant(&st, now) {
            Some(sid) => {
                let tenant = st.tenants.get_mut(&sid).expect("picked tenant exists");
                let seq = tenant.queue.pop_front().expect("picked tenant has work");
                let slot = tenant.jobs.get_mut(&seq).expect("queued job exists");
                let JobState::Queued(mut job) = std::mem::replace(slot, JobState::Running)
                else {
                    unreachable!("queued id maps to Queued state")
                };
                tenant.on_worker = true;
                tenant.running_cancel = Some(job.cancel.clone());
                let corr = CorrId { session: sid as u64, seq };
                let wait_us = job.queued_at.elapsed().as_micros() as u64;
                tenant.obs.queue_wait_us.record(wait_us);
                if let Some(tr) = &inner.obs.trace {
                    tr.end("queue", corr, &tenant.obs.label, wait_us);
                    tr.begin("slice", corr, &tenant.obs.label, job.cycles_done);
                }
                let mut ctx = tenant.ctx.take().expect("ctx resident when not on worker");
                let slice_idx = st.slices;
                let doomed = st.slot_kills.remove(&slice_idx);
                st.slices += 1;
                inner.obs.slices.inc();
                drop(st);

                let slice_started = Instant::now();
                let outcome = run_slice(&inner.cfg, &mut ctx, &mut job, doomed);
                let slice_us = slice_started.elapsed().as_micros() as u64;

                st = lock(&inner.state);
                settle(inner, &mut st, sid, seq, job, ctx, outcome, slice_us);
            }
            None => {
                let all_drained = st.global_queued == 0
                    && st.tenants.values().all(|t| !t.on_worker);
                if st.shutdown && all_drained {
                    inner.work_ready.notify_all();
                    return;
                }
                // Wake early if a backoff deadline is the next event.
                let wake = st
                    .tenants
                    .values()
                    .filter(|t| !t.on_worker && t.ctx.is_some())
                    .filter_map(|t| {
                        let front = t.queue.front()?;
                        match t.jobs.get(front) {
                            Some(JobState::Queued(j)) => j.not_before,
                            _ => None,
                        }
                    })
                    .min();
                st = match wake {
                    Some(at) => {
                        let timeout = at.saturating_duration_since(now).max(Duration::from_millis(1));
                        inner.work_ready.wait_timeout(st, timeout).expect("work condvar").0
                    }
                    None => inner.work_ready.wait(st).expect("work condvar"),
                };
            }
        }
    }
}

/// Least-attained-service pick: among tenants with a dispatchable front
/// job, the one with the fewest consumed cycles (ties: lowest session
/// id, so the choice is deterministic given equal accounting).
fn pick_tenant(st: &State, now: Instant) -> Option<u32> {
    let mut best: Option<(u64, u32)> = None;
    for (&sid, t) in &st.tenants {
        if t.on_worker || t.ctx.is_none() {
            continue;
        }
        let Some(front) = t.queue.front() else { continue };
        let Some(JobState::Queued(job)) = t.jobs.get(front) else { continue };
        if job.not_before.is_some_and(|at| at > now) {
            continue;
        }
        let rank = (t.stats.cycles, sid);
        if best.is_none_or(|b| rank < b) {
            best = Some(rank);
        }
    }
    best.map(|(_, sid)| sid)
}

/// Executes one slice of `job` against the tenant's context, entirely
/// outside the state lock. A `doomed` slice models a device slot dying
/// mid-slice: it runs (and mutates memory) like any slice, then its
/// result is thrown away and [`SliceOutcome::SlotDied`] is reported.
fn run_slice(cfg: &ServerConfig, ctx: &mut Context, job: &mut Job, doomed: bool) -> SliceOutcome {
    let started = Instant::now();
    let ck: &CompiledKernel = job.kernel.compiled();
    let mut sim_cfg = ctx.launch_config(ck);
    sim_cfg.max_cycles = cfg.max_cycles;
    sim_cfg.faults = job.faults.clone();
    // Fixed at admission (snapshots fingerprint the profiling decision);
    // the profiler is observational, so cycle counts are unaffected.
    sim_cfg.profile = job.profile;
    // The configured backend. Snapshot fingerprints exclude the
    // scheduler knob, so a job's slices may even run under different
    // backends (e.g. a config change between restarts) bit-identically.
    sim_cfg.scheduler = cfg.scheduler;
    let slice_end = if doomed {
        // The slot dies halfway through: partial progress that the
        // SlotDied settle path must fully discard.
        job.cycles_done + (cfg.slice_cycles / 2).max(1)
    } else {
        job.cycles_done + cfg.slice_cycles.max(1)
    };
    let mut ctl = RunControl::unlimited();
    ctl.cycle_deadline = Some(slice_end);
    ctl.cancel = Some(job.cancel.clone());

    if job.gm_backup.is_none() {
        // First dispatch: capture the pre-launch memory image for
        // containment rollback. In-order queues guarantee nothing else
        // writes this tenant's memory until the job settles.
        job.gm_backup = Some(ctx.global_memory_mut().clone());
    }

    let sabotage = job.panics_left > 0;
    let gm = ctx.global_memory_mut();
    let run = catch_unwind(AssertUnwindSafe(|| {
        if sabotage {
            panic!("injected tenant panic (test hook)");
        }
        if job.machine.is_none() {
            let mut machine = Machine::new(&ck.kernel, &ck.datapath, &sim_cfg, job.nd, &job.args)?;
            if let Some(snap) = &job.snapshot {
                machine.restore(snap, gm)?;
            }
            job.machine = Some(machine);
        }
        job.machine.as_mut().expect("machine built above").run_with(gm, &ctl)
    }));
    job.wall_used += started.elapsed();
    job.slices += 1;

    if doomed {
        job.machine = None;
        return SliceOutcome::SlotDied;
    }
    // Only a cut leaves the machine where the next slice starts.
    if !matches!(run, Ok(Err(SimError::DeadlineExceeded { .. }))) {
        job.machine = None;
    }

    match run {
        Err(payload) => SliceOutcome::Failed {
            error: ServeError::Panicked { message: soff_exec::panic_message(payload.as_ref()) },
            cycle: None,
            retryable: true,
        },
        Ok(Ok(sim)) => SliceOutcome::Done(sim),
        Ok(Err(SimError::DeadlineExceeded { cycle, snapshot })) => {
            SliceOutcome::Preempted { cycle, snapshot }
        }
        Ok(Err(SimError::Cancelled { cycle, .. })) => SliceOutcome::Cancelled { cycle },
        Ok(Err(SimError::Timeout { cycle, .. })) => SliceOutcome::Failed {
            error: ServeError::Hung { cycle },
            cycle: Some(cycle),
            retryable: true,
        },
        Ok(Err(SimError::Deadlock { cycle, report })) => SliceOutcome::Failed {
            error: ServeError::Faulted { cycle, what: report.summary() },
            cycle: Some(cycle),
            retryable: true,
        },
        Ok(Err(SimError::InvariantViolation { cycle, what })) => SliceOutcome::Failed {
            error: ServeError::Faulted { cycle, what },
            cycle: Some(cycle),
            retryable: true,
        },
        Ok(Err(e @ (SimError::Config(_) | SimError::Args(_)))) => SliceOutcome::Failed {
            error: ServeError::Launch(LaunchError::Sim(e)),
            cycle: Some(0),
            retryable: false,
        },
    }
}

/// Folds a slice outcome back into the shared state: accounting, quota
/// checks, retry/rollback, completion, and wakeups.
#[allow(clippy::too_many_arguments)]
fn settle(
    inner: &Inner,
    st: &mut MutexGuard<'_, State>,
    sid: u32,
    seq: u64,
    mut job: Box<Job>,
    mut ctx: Context,
    outcome: SliceOutcome,
    slice_us: u64,
) {
    let device = inner.cfg.device.clone();
    let retry = inner.cfg.retry;
    // Deref the guard once so `tenants` / `preemptions` / `global_queued`
    // are disjoint field borrows rather than repeated whole-guard derefs.
    let state = &mut **st;
    let tenant = state.tenants.get_mut(&sid).expect("tenant exists while job in flight");
    tenant.running_cancel = None;
    tenant.obs.slice_us.record(slice_us);
    let corr = CorrId { session: sid as u64, seq };

    // Charge consumed simulated cycles to the tenant regardless of how
    // the slice ended (consumed device time is consumed).
    let end_cycle = match &outcome {
        SliceOutcome::Done(sim) => sim.cycles,
        SliceOutcome::Preempted { cycle, .. } => *cycle,
        SliceOutcome::Cancelled { cycle } => *cycle,
        SliceOutcome::Failed { cycle, .. } => {
            cycle.unwrap_or(job.cycles_done + inner.cfg.slice_cycles)
        }
        // The dead slot's partial slice is the provider's fault, not the
        // tenant's: charge nothing.
        SliceOutcome::SlotDied => job.cycles_done,
    };
    tenant.stats.cycles += end_cycle.saturating_sub(job.cycles_done);
    if let Some(tr) = &inner.obs.trace {
        tr.end("slice", corr, &tenant.obs.label, end_cycle);
    }

    enum Next {
        Requeue(Box<Job>),
        Finished(Result<JobOutput, ServeError>),
    }

    let mut finished = false;
    // `job` is moved by the Requeue arm below; the breaker feedback in
    // the Finished arm needs the probe tag, so capture it up front.
    let probe = job.probe;
    let next = match outcome {
        SliceOutcome::Done(mut sim) => {
            // A sampled job's profiler rode along in every snapshot, so
            // the final slice's report covers the whole job.
            if let Some(report) = sim.profile.take() {
                let bound = inner.cfg.profile.as_ref().map_or(0, |ps| ps.max_reports);
                if state.profiles.len() < bound {
                    state.profiles.push(JobProfile {
                        tenant: tenant.stats.name.clone(),
                        session: sid,
                        seq,
                        settled_us: inner.obs.trace.as_ref().map_or(0, |tr| tr.now_us()),
                        report,
                    });
                } else {
                    state.profiles_dropped += 1;
                }
            }
            Next::Finished(Ok(JobOutput {
                cycles: sim.cycles,
                retired: sim.retired,
                seconds: device.cycles_to_seconds(sim.cycles),
                slices: job.slices,
                attempts: job.attempts + 1,
            }))
        }
        SliceOutcome::Cancelled { .. } => Next::Finished(Err(ServeError::Cancelled)),
        SliceOutcome::Preempted { cycle, snapshot } => {
            state.preemptions += 1;
            inner.obs.preemptions.inc();
            job.cycles_done = cycle;
            job.snapshot = Some(snapshot);
            // Slice-boundary quota checks.
            let q = &tenant.quota;
            if job.cycles_done >= q.max_job_cycles {
                Next::Finished(Err(ServeError::QuotaExceeded {
                    what: QuotaKind::JobCycles,
                    used: job.cycles_done,
                    limit: q.max_job_cycles,
                }))
            } else if let Some(total) =
                q.max_total_cycles.filter(|&t| tenant.stats.cycles >= t)
            {
                Next::Finished(Err(ServeError::QuotaExceeded {
                    what: QuotaKind::TotalCycles,
                    used: tenant.stats.cycles,
                    limit: total,
                }))
            } else if let Some(wall) = q.max_job_wall.filter(|&w| job.wall_used >= w) {
                Next::Finished(Err(ServeError::QuotaExceeded {
                    what: QuotaKind::Wall,
                    used: job.wall_used.as_millis() as u64,
                    limit: wall.as_millis() as u64,
                }))
            } else {
                Next::Requeue(job)
            }
        }
        SliceOutcome::Failed { error, retryable, .. } => {
            job.attempts += 1;
            // Poison-job quarantine: a job that keeps failing stops
            // consuming retry budget (and device time) once it has
            // burned `quarantine_after` consecutive attempts, even if
            // the retry policy would allow more.
            let q = inner.cfg.supervision.quarantine_after;
            let quarantined = retryable && q > 0 && job.attempts >= q;
            if retryable && !quarantined && job.attempts < retry.max_attempts.max(1) {
                // Contained fault, budget left: roll memory back, clear
                // transient injected faults, back off, try again.
                tenant.stats.retries += 1;
                inner.obs.recovery("retry").inc();
                if let Some(backup) = &job.gm_backup {
                    ctx.global_memory_mut().rollback_to(backup);
                }
                job.snapshot = None;
                job.cycles_done = 0;
                job.faults = FaultPlan::none();
                job.panics_left = job.panics_left.saturating_sub(1);
                job.not_before = Some(
                    Instant::now()
                        + Duration::from_millis(retry.backoff_ms(seq as usize, job.attempts)),
                );
                Next::Requeue(job)
            } else {
                // Final failure: containment rollback so the tenant's
                // memory shows no trace of the failed launch.
                if let Some(backup) = &job.gm_backup {
                    ctx.global_memory_mut().rollback_to(backup);
                }
                let error = if quarantined {
                    tenant.stats.quarantined += 1;
                    inner.obs.quarantine(&tenant.stats.name).inc();
                    ServeError::Quarantined { attempts: job.attempts, last: Box::new(error) }
                } else {
                    error
                };
                Next::Finished(Err(error))
            }
        }
        SliceOutcome::SlotDied => {
            job.slot_recoveries += 1;
            if job.slot_recoveries > inner.cfg.supervision.max_slot_recoveries {
                // Slots keep dying under this job; stop re-admitting it.
                if let Some(backup) = &job.gm_backup {
                    ctx.global_memory_mut().rollback_to(backup);
                }
                Next::Finished(Err(ServeError::Faulted {
                    cycle: job.cycles_done,
                    what: format!("device slot died {} times under job", job.slot_recoveries),
                }))
            } else {
                // Checkpoint recovery: the doomed slice mutated global
                // memory and its machine is gone, but `Machine::restore`
                // rolls every buffer the snapshot holds back to its image,
                // so a checkpointed job just re-admits as-is. A job with
                // no checkpoint yet restarts from the pre-launch image.
                tenant.stats.slot_recoveries += 1;
                inner.obs.recovery("slot").inc();
                if job.snapshot.is_none() {
                    if let Some(backup) = &job.gm_backup {
                        ctx.global_memory_mut().rollback_to(backup);
                    }
                }
                Next::Requeue(job)
            }
        }
    };

    match next {
        Next::Requeue(mut job) => {
            job.queued_at = Instant::now();
            if let Some(tr) = &inner.obs.trace {
                tr.begin("queue", corr, &tenant.obs.label, job.cycles_done);
            }
            tenant.queue.push_front(seq);
            tenant.jobs.insert(seq, JobState::Queued(job));
        }
        Next::Finished(result) => {
            let (outcome_label, marker) = match &result {
                Ok(_) => ("completed", "complete"),
                Err(ServeError::Cancelled) => ("cancelled", "cancel"),
                Err(_) => ("failed", "fail"),
            };
            match &result {
                Ok(_) => tenant.stats.completed += 1,
                Err(ServeError::Cancelled) => tenant.stats.cancelled += 1,
                Err(_) => tenant.stats.failed += 1,
            }
            // The breaker sees settled outcomes only: transient faults
            // that retry heals never count against the tenant.
            let ev = match &result {
                Ok(_) => tenant.breaker.on_success(probe),
                Err(ServeError::Cancelled) => {
                    tenant.breaker.on_abandoned(probe);
                    None
                }
                Err(_) => tenant.breaker.on_failure(probe),
            };
            tenant.obs.breaker_state.set(tenant.breaker.gauge_value());
            if matches!(ev, Some(BreakerEvent::Closed)) {
                inner.obs.recovery("breaker").inc();
            }
            inner.obs.job_outcome(&tenant.stats.name, outcome_label).inc();
            if let Some(tr) = &inner.obs.trace {
                tr.instant(marker, corr, &tenant.obs.label, end_cycle);
            }
            tenant.jobs.insert(seq, JobState::Done(result));
            state.global_queued -= 1;
            inner.obs.queue_depth.set(state.global_queued as f64);
            finished = true;
        }
    }
    tenant.on_worker = false;
    tenant.ctx = Some(ctx);
    if finished {
        // Live fairness: max/min completed across tenants (mirrors
        // ServerStats::completion_fairness), recomputed per completion.
        let counts = state.tenants.values().map(|t| t.stats.completed);
        let (max, min) = counts.fold((0u64, u64::MAX), |(mx, mn), c| (mx.max(c), mn.min(c)));
        let fairness = if max == 0 {
            1.0
        } else if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        };
        inner.obs.fairness.set(fairness);
    }
    inner.work_ready.notify_all();
    inner.progress.notify_all();
}
