//! Benchmark-owned [`Runner`]s: registry apps drive them with their own
//! host code and reference checks, while the runner times calls into the
//! runtime, simulator and serve layers from the outside.
//!
//! End-to-end figures come from [`TimedSimRunner`] and from untraced
//! [`ServeRunner`]s, which go through the same launch path users take and
//! only read the clock around each launch. [`LocalRunner`] splits a launch
//! into its public runtime and simulator calls for the traced run.

use crate::check::Digest;
use soff_baseline::{Framework, Outcome};
use soff_ir::NdRange;
use soff_runtime::{Buffer, Context, Device, KernelHandle, LaunchError, Program};
use soff_serve::{ServeError, Session};
use soff_sim::{Machine, RunControl, SimError, SimResult, Snapshot};
use soff_workloads::runner::{Arg, BufId, RunError, Runner, SimRunner};
use std::time::{Duration, Instant};

/// Host time per layer, accumulated over every call a runner made.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `Context::prepare_launch` + `Context::launch_config`.
    pub prepare: Duration,
    /// `Machine::new` (unsliced launches).
    pub elaborate: Duration,
    /// `Machine::run_with` (unsliced launches).
    pub run: Duration,
    /// Whole `Runner::launch` calls (local) or enqueue→result (serve).
    pub launch: Duration,
    /// Buffer creation, initialisation and read-back.
    pub buffer_io: Duration,
    /// Sliced launches: `Machine::new` per slice.
    pub slice_construct: Duration,
    /// Sliced launches: `Machine::restore` per slice.
    pub slice_restore: Duration,
    /// Sliced launches: `Machine::run_with` per slice, minus the snapshot.
    pub slice_run: Duration,
    /// Sliced launches: one `Machine::snapshot` of each cut state.
    pub slice_snapshot: Duration,
    /// Serve: `Session::enqueue`.
    pub enqueue: Duration,
    /// Serve: `Session::build_program`.
    pub build_program: Duration,
}

/// Runs `f`, adding its host time to `acc` when tracing.
fn timed<T>(acc: Option<&mut Duration>, f: impl FnOnce() -> T) -> T {
    match acc {
        None => f(),
        Some(acc) => {
            let t = Instant::now();
            let out = f();
            *acc += t.elapsed();
            out
        }
    }
}

/// What one launch produced, as the serve layer reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobFacts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Work-items retired.
    pub retired: u64,
    /// Execution slices.
    pub slices: u32,
}

fn outcome_of(e: &LaunchError) -> RunError {
    match e {
        LaunchError::Sim(SimError::Deadlock { .. } | SimError::Timeout { .. }) => {
            RunError::Outcome(Outcome::Hang)
        }
        _ => RunError::Outcome(Outcome::RuntimeError),
    }
}

fn bind(k: &mut KernelHandle, buffers: &[Buffer], args: &[Arg]) {
    for (i, a) in args.iter().enumerate() {
        match a {
            Arg::Buf(b) => k.set_arg_buffer(i, buffers[b.0]),
            Arg::I32(v) => k.set_arg_i32(i, *v),
            Arg::F32(v) => k.set_arg_f32(i, *v),
            Arg::U64(v) => k.set_arg_u64(i, *v),
            Arg::Local(v) => k.set_arg_local(i, *v),
        };
    }
}

/// The registry's own `SimRunner` (`Context::enqueue_ndrange`, the launch
/// path users take), with each launch's host time recorded and every
/// result and read-back digested.
pub struct TimedSimRunner {
    inner: SimRunner,
    /// Host time of every `Runner::launch` call, in seconds.
    pub latencies: Vec<f64>,
    /// Digest over every `SimResult` and every read-back buffer.
    pub digest: Digest,
}

impl TimedSimRunner {
    /// Builds `source` for the SOFF device, as `SimRunner::new` does.
    ///
    /// # Errors
    ///
    /// The Table II outcome when the program does not build.
    pub fn new(source: &str) -> Result<Self, Outcome> {
        Ok(TimedSimRunner {
            inner: SimRunner::new(Framework::Soff, source, &[])?,
            latencies: Vec::new(),
            digest: Digest::default(),
        })
    }
}

impl Runner for TimedSimRunner {
    fn alloc_bytes(&mut self, data: &[u8]) -> BufId {
        self.inner.alloc_bytes(data)
    }

    fn launch(&mut self, kernel: &str, args: &[Arg], nd: NdRange) -> Result<(), RunError> {
        let started = Instant::now();
        let out = self.inner.launch(kernel, args, nd);
        self.latencies.push(started.elapsed().as_secs_f64());
        if out.is_ok() {
            let sim = self
                .inner
                .launch_results
                .last()
                .expect("a launch records its result");
            self.digest.add_debug(sim);
        }
        out
    }

    fn read_bytes(&mut self, b: BufId) -> Vec<u8> {
        let bytes = self.inner.read_bytes(b);
        self.digest.add(&bytes);
        bytes
    }
}

/// A runner over the public runtime and simulator API that times each
/// call: `Context::prepare_launch` and `launch_config`, then
/// `Machine::new` and `Machine::run_with` — either once per launch, or in
/// fixed cycle slices with a fresh machine and a snapshot restore per
/// slice, the way the serve layer runs a job.
pub struct LocalRunner {
    ctx: Context,
    program: Program,
    buffers: Vec<Buffer>,
    slice_cycles: Option<u64>,
    /// Per-layer host time.
    pub times: LayerTimes,
    /// Every launch's simulation result, in launch order.
    pub results: Vec<SimResult>,
    /// Every launch's cycles, retirements and slice count.
    pub jobs: Vec<JobFacts>,
    /// Digest over every `SimResult` and every read-back buffer.
    pub digest: Digest,
}

impl LocalRunner {
    /// Builds `source` for the SOFF device and opens a context configured
    /// exactly as `SimRunner` configures one (replication forced to the
    /// program's minimum).
    ///
    /// # Errors
    ///
    /// The Table II outcome when the program does not build.
    pub fn like_sim_runner(source: &str) -> Result<LocalRunner, Outcome> {
        let (program, device) = soff_baseline::build(Framework::Soff, source, &[])?;
        let replication = program
            .kernels()
            .iter()
            .map(|k| k.replication.num_datapaths)
            .min()
            .unwrap_or(1);
        let mut ctx = Context::new(device);
        soff_baseline::configure_context(Framework::Soff, &mut ctx, replication);
        Ok(LocalRunner::with(ctx, program, None))
    }

    /// Builds `source` and opens a default context (per-kernel
    /// replication, as a serve session has) whose launches run in
    /// `slice_cycles`-cycle slices.
    ///
    /// # Errors
    ///
    /// The Table II outcome when the program does not build.
    pub fn sliced(source: &str, slice_cycles: u64) -> Result<LocalRunner, Outcome> {
        let device = Device::system_a();
        let program = Program::build(source, &[], &device).map_err(|_| Outcome::CompileError)?;
        Ok(LocalRunner::with(
            Context::new(device),
            program,
            Some(slice_cycles.max(1)),
        ))
    }

    fn with(ctx: Context, program: Program, slice_cycles: Option<u64>) -> Self {
        LocalRunner {
            ctx,
            program,
            buffers: Vec::new(),
            slice_cycles,
            times: LayerTimes::default(),
            results: Vec::new(),
            jobs: Vec::new(),
            digest: Digest::default(),
        }
    }

    fn launch_inner(&mut self, kernel: &str, args: &[Arg], nd: NdRange) -> Result<(), RunError> {
        let mut k = self
            .program
            .kernel(kernel)
            .ok_or_else(|| RunError::MissingKernel(kernel.to_string()))?;
        bind(&mut k, &self.buffers, args);
        let (ctx, t) = (&mut self.ctx, &mut self.times);
        let (argv, cfg) = timed(Some(&mut t.prepare), || {
            let argv = ctx.prepare_launch(&k, nd);
            (argv, ctx.launch_config(k.compiled()))
        });
        let argv = argv.map_err(|e| outcome_of(&e))?;
        let ck = k.compiled();
        let sim_err = |e: SimError| outcome_of(&LaunchError::Sim(e));
        let gm = ctx.global_memory_mut();
        let Some(slice) = self.slice_cycles else {
            let mut m = timed(Some(&mut t.elaborate), || {
                Machine::new(&ck.kernel, &ck.datapath, &cfg, nd, &argv)
            })
            .map_err(sim_err)?;
            let sim = timed(Some(&mut t.run), || {
                m.run_with(gm, &RunControl::unlimited())
            })
            .map_err(sim_err)?;
            self.jobs.push(JobFacts {
                cycles: sim.cycles,
                retired: sim.retired,
                slices: 1,
            });
            self.record(sim);
            return Ok(());
        };
        // The serve layer's slice loop: every slice builds a fresh
        // machine, restores the previous cut and runs to the next
        // absolute cycle deadline.
        let mut snap: Option<Box<Snapshot>> = None;
        let mut slices = 0u32;
        let sim = loop {
            let mut m = timed(Some(&mut t.slice_construct), || {
                Machine::new(&ck.kernel, &ck.datapath, &cfg, nd, &argv)
            })
            .map_err(sim_err)?;
            let done = match &snap {
                None => 0,
                Some(s) => {
                    timed(Some(&mut t.slice_restore), || m.restore(s, gm)).map_err(sim_err)?;
                    s.cycle()
                }
            };
            let ctl = RunControl {
                cycle_deadline: Some(done + slice),
                ..RunControl::unlimited()
            };
            let started = Instant::now();
            let ran = m.run_with(gm, &ctl);
            let ran_for = started.elapsed();
            slices += 1;
            match ran {
                Ok(sim) => {
                    t.slice_run += ran_for;
                    break sim;
                }
                Err(SimError::DeadlineExceeded { snapshot, .. }) => {
                    // `run_with` took the cut's snapshot internally; time
                    // an identical one so run and snapshot cost separate.
                    let s0 = Instant::now();
                    std::hint::black_box(m.snapshot(gm));
                    let took = s0.elapsed();
                    t.slice_snapshot += took;
                    t.slice_run += ran_for.saturating_sub(took);
                    snap = Some(snapshot);
                }
                Err(e) => return Err(sim_err(e)),
            }
        };
        self.jobs.push(JobFacts {
            cycles: sim.cycles,
            retired: sim.retired,
            slices,
        });
        self.record(sim);
        Ok(())
    }

    fn record(&mut self, sim: SimResult) {
        self.digest.add_debug(&sim);
        self.results.push(sim);
    }
}

impl Runner for LocalRunner {
    fn alloc_bytes(&mut self, data: &[u8]) -> BufId {
        let ctx = &mut self.ctx;
        let b = timed(Some(&mut self.times.buffer_io), || {
            ctx.create_buffer_init(data)
        });
        self.buffers.push(b);
        BufId(self.buffers.len() - 1)
    }

    fn launch(&mut self, kernel: &str, args: &[Arg], nd: NdRange) -> Result<(), RunError> {
        let started = Instant::now();
        let out = self.launch_inner(kernel, args, nd);
        self.times.launch += started.elapsed();
        out
    }

    fn read_bytes(&mut self, b: BufId) -> Vec<u8> {
        let (ctx, buf) = (&self.ctx, self.buffers[b.0]);
        let bytes = timed(Some(&mut self.times.buffer_io), || ctx.read_buffer(buf))
            .expect("runner-owned buffer handle");
        self.digest.add(&bytes);
        bytes
    }
}

/// A runner over one `soff_serve::Session`: every launch is enqueued and
/// waited for (a closed loop), and its enqueue→result time recorded.
pub struct ServeRunner<'s> {
    session: &'s Session,
    program: Program,
    buffers: Vec<Buffer>,
    /// Per-layer host time (`None` = untraced).
    pub times: Option<LayerTimes>,
    /// Enqueue→result time of every launch, in seconds.
    pub latencies: Vec<f64>,
    /// What the server reported for every launch.
    pub jobs: Vec<JobFacts>,
    /// Digest over every job's output and every read-back buffer.
    pub digest: Digest,
}

fn serve_outcome(e: &ServeError) -> RunError {
    match e {
        ServeError::Hung { .. } => RunError::Outcome(Outcome::Hang),
        _ => RunError::Outcome(Outcome::RuntimeError),
    }
}

impl<'s> ServeRunner<'s> {
    /// Builds `source` through the session.
    ///
    /// # Errors
    ///
    /// The Table II outcome when the program does not build.
    pub fn new(session: &'s Session, source: &str, traced: bool) -> Result<Self, Outcome> {
        let mut times = traced.then(LayerTimes::default);
        let program = timed(times.as_mut().map(|t| &mut t.build_program), || {
            session.build_program(source, &[])
        })
        .map_err(|_| Outcome::CompileError)?;
        Ok(ServeRunner {
            session,
            program,
            buffers: Vec::new(),
            times,
            latencies: Vec::new(),
            jobs: Vec::new(),
            digest: Digest::default(),
        })
    }
}

impl Runner for ServeRunner<'_> {
    fn alloc_bytes(&mut self, data: &[u8]) -> BufId {
        let session = self.session;
        let b = timed(self.times.as_mut().map(|t| &mut t.buffer_io), || {
            let b = session.create_buffer(data.len())?;
            session.write_buffer(b, data).map(|()| b)
        })
        .expect("serve session accepts its own buffers");
        self.buffers.push(b);
        BufId(self.buffers.len() - 1)
    }

    fn launch(&mut self, kernel: &str, args: &[Arg], nd: NdRange) -> Result<(), RunError> {
        let mut k = self
            .session
            .kernel(&self.program, kernel)
            .map_err(|_| RunError::MissingKernel(kernel.to_string()))?;
        bind(&mut k, &self.buffers, args);
        let started = Instant::now();
        let session = self.session;
        let id = timed(self.times.as_mut().map(|t| &mut t.enqueue), || {
            session.enqueue(&k, nd)
        })
        .map_err(|e| serve_outcome(&e))?;
        let out = session.wait(id).map_err(|e| serve_outcome(&e))?;
        let took = started.elapsed();
        if let Some(t) = self.times.as_mut() {
            t.launch += took;
        }
        self.latencies.push(took.as_secs_f64());
        let facts = JobFacts {
            cycles: out.cycles,
            retired: out.retired,
            slices: out.slices,
        };
        self.digest.add_debug(&(facts, out.attempts));
        self.jobs.push(facts);
        Ok(())
    }

    fn read_bytes(&mut self, b: BufId) -> Vec<u8> {
        let (session, buf) = (self.session, self.buffers[b.0]);
        let bytes = timed(self.times.as_mut().map(|t| &mut t.buffer_io), || {
            session.read_buffer(buf)
        })
        .expect("serve session reads its own buffers");
        self.digest.add(&bytes);
        bytes
    }
}
