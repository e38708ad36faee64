//! Client sessions: buffer I/O, admission control, and the client side
//! of a tenant's job queue (enqueue, cancel, wait).

use crate::{
    lock, Buffer, Inner, Job, JobOutput, JobState, KernelHandle, NdRange, Program, QueueScope,
    QuotaKind, ServeError, Tenant, TenantStats,
};
use soff_obs::CorrId;
use soff_runtime::Context;
use soff_sim::{CancelToken, FaultPlan};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle to one enqueued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId {
    session: u32,
    seq: u64,
}

/// One tenant's connection: its own contexts/buffers/queue. All methods
/// are `&self`; a session can be shared across the tenant's threads.
pub struct Session {
    pub(crate) inner: Arc<Inner>,
    pub(crate) id: u32,
}

impl Session {
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
                        wall_used: Duration::ZERO,
                        slices: 0,
                        attempts: 0,
                        cancel: CancelToken::new(),
                        faults: std::mem::take(&mut tenant.pending_faults),
                        panics_left: std::mem::take(&mut tenant.pending_panics),
                        probe,
                        slot_recoveries: 0,
                        not_before: None,
                        start: None,
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
    /// simulator's next poll point. Either way the job leaves no trace in
    /// the tenant's memory. Returns whether the job was still in flight.
    pub fn cancel(&self, job: JobId) -> bool {
        if job.session != self.id {
            return false;
        }
        let mut st = lock(&self.inner.state);
        let state = &mut *st;
        let Some(tenant) = state.tenants.get_mut(&self.id) else { return false };
        match tenant.jobs.get_mut(&job.seq) {
            Some(slot @ JobState::Queued(_)) => {
                let cancelled = JobState::Done(Err(ServeError::Cancelled));
                let JobState::Queued(queued) = std::mem::replace(slot, cancelled) else {
                    unreachable!("matched Queued above")
                };
                // A job requeued between slices is its tenant's front job,
                // so no worker holds the context; a job that never ran has
                // nothing to rewind.
                if let Some(ctx) = tenant.ctx.as_mut() {
                    queued.rewind(ctx);
                }
                tenant.queue.retain(|&s| s != job.seq);
                tenant.stats.cancelled += 1;
                // A cancelled probe proves nothing; return its slot so
                // the next admission can probe instead.
                tenant.breaker.on_abandoned(queued.probe);
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
            Some(JobState::Running(token)) => {
                token.cancel();
                true
            }
            _ => false,
        }
    }

    /// Blocks until `job` completes and consumes its result:
    /// [`Session::wait_deadline`] with no deadline.
    ///
    /// # Errors
    ///
    /// The job's own failure, or [`ServeError::UnknownJob`] for a
    /// foreign/consumed id.
    pub fn wait(&self, job: JobId) -> Result<JobOutput, ServeError> {
        self.wait_deadline(job, Duration::MAX)
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
        // `None` when the budget reaches past any representable instant.
        let deadline = started.checked_add(wall_budget);
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
                    st = match deadline {
                        None => self.inner.progress.wait(st).expect("progress condvar"),
                        Some(deadline) => {
                            let left = deadline.saturating_duration_since(Instant::now());
                            if left.is_zero() {
                                return Err(ServeError::WaitTimeout { waited: started.elapsed() });
                            }
                            self.inner.progress.wait_timeout(st, left).expect("progress condvar").0
                        }
                    };
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
                Some(t) if t.queue.is_empty() && t.ctx.is_some() => return,
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
