//! Device-slot workers: pick a tenant, run one slice of its front job
//! outside the state lock, and settle the outcome.

use crate::breaker::BreakerEvent;
use crate::stats::fairness;
use crate::{
    lock, Inner, Job, JobOutput, JobProfile, JobState, LaunchError, QuotaKind, ServeError,
    ServerConfig, State,
};
use soff_obs::CorrId;
use soff_runtime::{CompiledKernel, Context};
use soff_sim::{FaultPlan, Machine, RunControl, SimError, Snapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::MutexGuard;
use std::time::{Duration, Instant};

/// How a slice ended (computed off-lock by a worker).
enum SliceOutcome {
    Done(soff_sim::SimResult),
    /// Cut at the slice's deadline; the snapshot's cycle is the cut's.
    Preempted(Box<Snapshot>),
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

pub(crate) fn worker_loop(inner: &Inner) {
    let mut st = lock(&inner.state);
    loop {
        let now = Instant::now();
        match pick_tenant(&st, now) {
            Some(sid) => {
                let tenant = st.tenants.get_mut(&sid).expect("picked tenant exists");
                let seq = tenant.queue.pop_front().expect("picked tenant has work");
                let Some(JobState::Queued(mut job)) = tenant.jobs.remove(&seq) else {
                    unreachable!("queued id maps to Queued state")
                };
                tenant.jobs.insert(seq, JobState::Running(job.cancel.clone()));
                let corr = CorrId { session: sid as u64, seq };
                let wait_us = job.queued_at.elapsed().as_micros() as u64;
                tenant.obs.queue_wait_us.record(wait_us);
                if let Some(tr) = &inner.obs.trace {
                    tr.end("queue", corr, &tenant.obs.label, wait_us);
                    tr.begin("slice", corr, &tenant.obs.label, job.cycles_done());
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
                // A job counts in `global_queued` until it settles, so zero
                // also means no slice is running.
                if st.shutdown && st.global_queued == 0 {
                    inner.work_ready.notify_all();
                    return;
                }
                // Wake early if a backoff deadline is the next event.
                let wake = st
                    .tenants
                    .values()
                    .filter(|t| t.ctx.is_some())
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
        if t.ctx.is_none() {
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
        job.cycles_done() + (cfg.slice_cycles / 2).max(1)
    } else {
        job.cycles_done() + cfg.slice_cycles.max(1)
    };
    let mut ctl = RunControl::unlimited();
    ctl.cycle_deadline = Some(slice_end);
    ctl.cancel = Some(job.cancel.clone());

    if job.start.is_none() {
        job.start = Some(ctx.global_memory_mut().clone());
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
        Ok(Err(SimError::DeadlineExceeded { snapshot, .. })) => SliceOutcome::Preempted(snapshot),
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
/// checks, retry/recovery, completion, and wakeups.
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
    tenant.obs.slice_us.record(slice_us);
    let corr = CorrId { session: sid as u64, seq };

    // Charge consumed simulated cycles to the tenant regardless of how
    // the slice ended (consumed device time is consumed).
    let end_cycle = match &outcome {
        SliceOutcome::Done(sim) => sim.cycles,
        SliceOutcome::Preempted(snapshot) => snapshot.cycle(),
        SliceOutcome::Cancelled { cycle } => *cycle,
        SliceOutcome::Failed { cycle, .. } => {
            cycle.unwrap_or(job.cycles_done() + inner.cfg.slice_cycles)
        }
        // The dead slot's partial slice is the provider's fault, not the
        // tenant's: charge nothing.
        SliceOutcome::SlotDied => job.cycles_done(),
    };
    tenant.stats.cycles += end_cycle.saturating_sub(job.cycles_done());
    if let Some(tr) = &inner.obs.trace {
        tr.end("slice", corr, &tenant.obs.label, end_cycle);
    }

    enum Next {
        Requeue,
        Finished(Result<JobOutput, ServeError>),
    }

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
        SliceOutcome::Preempted(snapshot) => {
            state.preemptions += 1;
            inner.obs.preemptions.inc();
            let cycle = snapshot.cycle();
            job.snapshot = Some(snapshot);
            // Slice-boundary quota checks.
            let q = &tenant.quota;
            if cycle >= q.max_job_cycles {
                Next::Finished(Err(ServeError::QuotaExceeded {
                    what: QuotaKind::JobCycles,
                    used: cycle,
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
                Next::Requeue
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
                // Contained fault, budget left: start over from `start`,
                // clear transient injected faults, back off, try again.
                tenant.stats.retries += 1;
                inner.obs.recovery("retry").inc();
                job.snapshot = None;
                job.faults = FaultPlan::none();
                job.panics_left = job.panics_left.saturating_sub(1);
                job.not_before = Some(
                    Instant::now()
                        + Duration::from_millis(retry.backoff_ms(seq as usize, job.attempts)),
                );
                Next::Requeue
            } else if quarantined {
                tenant.stats.quarantined += 1;
                inner.obs.quarantine(&tenant.stats.name).inc();
                let attempts = job.attempts;
                Next::Finished(Err(ServeError::Quarantined { attempts, last: Box::new(error) }))
            } else {
                Next::Finished(Err(error))
            }
        }
        SliceOutcome::SlotDied => {
            job.slot_recoveries += 1;
            if job.slot_recoveries > inner.cfg.supervision.max_slot_recoveries {
                // Slots keep dying under this job; stop re-admitting it.
                Next::Finished(Err(ServeError::Faulted {
                    cycle: job.cycles_done(),
                    what: format!("device slot died {} times under job", job.slot_recoveries),
                }))
            } else {
                // Checkpoint recovery: the doomed slice's machine is gone,
                // and the next dispatch resumes from the last cut.
                tenant.stats.slot_recoveries += 1;
                inner.obs.recovery("slot").inc();
                Next::Requeue
            }
        }
    };

    // The recovery rule: a job that does not complete leaves no trace.
    // A cut keeps its machine and memory, and success keeps what the job
    // wrote; every other settle rewinds memory to `start`. A requeued job
    // then rebuilds its machine at cycle 0, or restores its last cut,
    // which rolls memory forward to the cut's image.
    let keeps = match &next {
        Next::Requeue => job.machine.is_some(),
        Next::Finished(result) => result.is_ok(),
    };
    if !keeps {
        job.rewind(&mut ctx);
    }

    let finished = matches!(next, Next::Finished(_));
    match next {
        Next::Requeue => {
            job.queued_at = Instant::now();
            if let Some(tr) = &inner.obs.trace {
                tr.begin("queue", corr, &tenant.obs.label, job.cycles_done());
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
                Ok(_) => tenant.breaker.on_success(job.probe),
                Err(ServeError::Cancelled) => {
                    tenant.breaker.on_abandoned(job.probe);
                    None
                }
                Err(_) => tenant.breaker.on_failure(job.probe),
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
        }
    }
    tenant.ctx = Some(ctx);
    if finished {
        inner.obs.fairness.set(fairness(state.tenants.values().map(|t| t.stats.completed)));
    }
    inner.work_ready.notify_all();
    inner.progress.notify_all();
}
