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
//!   error and a bounded retry (via [`soff_exec::RetryPolicy`] backoff),
//!   and no other tenant observes anything but scheduling latency. A job
//!   that does not complete leaves no trace: at its first dispatch it
//!   takes a copy-on-write image of its tenant's memory, and every way it
//!   can end short of success (retry exhaustion, quarantine, the
//!   slot-death limit, a launch error, a quota kill, a cancel) rewinds
//!   the memory to that image.
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
mod config;
mod error;
mod session;
mod stats;
mod worker;

use breaker::{Breaker, BreakerState};
use soff_obs::{Counter, Gauge, Histogram, Registry, TraceBuf};
use soff_runtime::Context;
use soff_sim::{CancelToken, FaultPlan, Machine, Snapshot};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use worker::worker_loop;

pub use breaker::BreakerConfig;
pub use config::{ProfileSampling, ServerConfig, Supervision, TenantQuota};
pub use error::{QueueScope, QuotaKind, ServeError};
pub use session::{JobId, Session};
pub use stats::{
    Health, HealthCause, HealthState, JobOutput, JobProfile, RejectionBreakdown, ServerStats,
    TenantStats,
};
pub use soff_exec::RetryPolicy;
pub use soff_ir::ir::NdRange;
// The client-facing runtime vocabulary, so `soff_serve` callers need no
// direct `soff_runtime` import for the common path.
pub use soff_runtime::{Buffer, BuildError, Device, KernelHandle, LaunchError, Program};

// ------------------------------------------------------------------ jobs

/// A job's mutable execution state, owned by the scheduler.
///
/// A job recovers from two points: `start`, its tenant's memory at first
/// dispatch (cycle 0, whose machine state `Machine::new` rebuilds), and
/// `snapshot`, its last cut. Every settle other than success or a cut
/// rewinds memory to `start` ([`Job::rewind`]), and a rebuilt machine
/// resumes from the newer of the two.
struct Job {
    kernel: KernelHandle,
    args: Vec<soff_ir::mem::ArgValue>,
    nd: NdRange,
    /// Checkpoint from the last preempted slice (`None` before the first
    /// cut or after a retry reset).
    snapshot: Option<Box<Snapshot>>,
    /// The machine the last slice left at its cut, which the next slice
    /// continues. Any other outcome drops it, and the next dispatch
    /// rebuilds one.
    machine: Option<Machine>,
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
    /// Copy-on-write image of the tenant's memory at the job's first
    /// dispatch (`None` before it).
    start: Option<soff_ir::mem::GlobalMemory>,
    /// Profiler config when this job was sampled for profiling. Decided
    /// once at admission and constant for the job's life: slice snapshots
    /// fingerprint the profiling decision, so flipping it mid-job would
    /// invalidate resume.
    profile: Option<soff_sim::ProfileConfig>,
    /// When the job last entered a queue (admission or requeue), for the
    /// queue-wait histogram.
    queued_at: Instant,
}

impl Job {
    /// Simulated cycles completed so far: the last cut's cycle.
    fn cycles_done(&self) -> u64 {
        self.snapshot.as_ref().map_or(0, |s| s.cycle())
    }

    /// Rolls the tenant's memory back to `start`: every buffer the image
    /// holds gets its bytes back, and buffers created since keep their ids
    /// and bytes. In-order queues guarantee nothing but this job wrote the
    /// image's buffers since it was taken.
    fn rewind(&self, ctx: &mut Context) {
        if let Some(start) = &self.start {
            ctx.global_memory_mut().rollback_to(start);
        }
    }
}

enum JobState {
    Queued(Box<Job>),
    /// On a worker; `Session::cancel` raises the token to stop the slice
    /// at the simulator's next poll point.
    Running(CancelToken),
    Done(Result<JobOutput, ServeError>),
}

struct Tenant {
    /// `None` exactly while a worker executes a slice for this tenant (the
    /// worker owns the context — and with it the device memory — for the
    /// slice's duration).
    ctx: Option<Context>,
    quota: TenantQuota,
    /// Pending job ids, front = next to run. In-order: only the front
    /// job ever runs, so one tenant occupies at most one device slot.
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobState>,
    next_seq: u64,
    closed: bool,
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
            .filter(|s| matches!(s, JobState::Queued(_) | JobState::Running(_)))
            .count()
    }
}

struct State {
    /// By session id. Sessions are never removed, so ids are `0..len`.
    tenants: BTreeMap<u32, Tenant>,
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
        let r = registry.as_deref().unwrap_or_else(|| soff_obs::global());
        let slices = r.counter("soff_serve_slices_total", &[]);
        let preemptions = r.counter("soff_serve_preemptions_total", &[]);
        let queue_depth = r.gauge("soff_serve_queue_depth", &[]);
        let fairness = r.gauge("soff_serve_completion_fairness", &[]);
        let health = r.gauge("soff_serve_health", &[]);
        ServeObs { registry, trace, slices, preemptions, queue_depth, fairness, health }
    }

    fn registry(&self) -> &Registry {
        self.registry.as_deref().unwrap_or_else(|| soff_obs::global())
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
                tenants: BTreeMap::new(),
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
        let id = st.tenants.len() as u32;
        let r = self.inner.obs.registry();
        let obs = TenantObs {
            label: Arc::from(name),
            queue_wait_us: r.histogram("soff_serve_queue_wait_us", &[("tenant", name)]),
            slice_us: r.histogram("soff_serve_slice_us", &[("tenant", name)]),
            breaker_state: r.gauge("soff_serve_breaker_state", &[("tenant", name)]),
        };
        st.tenants.insert(
            id,
            Tenant {
                ctx: Some(Context::new(self.inner.cfg.device.clone())),
                quota,
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                next_seq: 0,
                closed: false,
                pending_faults: FaultPlan::none(),
                pending_panics: 0,
                breaker: Breaker::new(self.inner.cfg.supervision.breaker),
                stats: TenantStats { name: name.to_string(), ..TenantStats::default() },
                obs,
            },
        );
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
        for t in st.tenants.values() {
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
            tenants: st.tenants.values().map(|t| t.stats.clone()).collect(),
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
