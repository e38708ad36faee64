//! The host-program abstraction benchmarks are written against.
//!
//! Every application drives its kernels through a [`Runner`], so the same
//! host logic runs unchanged on SOFF and on the vendor-baseline models —
//! exactly how §VI runs the same OpenCL applications on all three
//! frameworks.

use soff_baseline::{Framework, Outcome};
use soff_ir::NdRange;
use soff_runtime::{Buffer, Context, KernelHandle, LaunchError, Program};
use std::error::Error;
use std::fmt;

/// A buffer handle as seen by application host code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufId(pub usize);

/// A kernel argument from application host code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// A device buffer.
    Buf(BufId),
    /// A 32-bit integer.
    I32(i32),
    /// A float.
    F32(f32),
    /// A 64-bit integer.
    U64(u64),
    /// A `__local` pointer size in bytes.
    Local(u64),
}

/// Why a hosted run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Mapped Table II outcome (hang, runtime error, ...).
    Outcome(Outcome),
    /// The program has no kernel with this name.
    MissingKernel(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Outcome(o) => write!(f, "kernel execution failed ({})", o.code()),
            RunError::MissingKernel(n) => write!(f, "no kernel named `{n}`"),
        }
    }
}

impl Error for RunError {}

/// What applications use to allocate buffers and launch kernels.
pub trait Runner {
    /// Allocates a device buffer initialized with `data`.
    fn alloc_bytes(&mut self, data: &[u8]) -> BufId;
    /// Launches a kernel and waits for completion.
    ///
    /// # Errors
    ///
    /// [`RunError`] when the launch fails (deadlock/timeout map to the
    /// `Hang` outcome).
    fn launch(&mut self, kernel: &str, args: &[Arg], nd: NdRange) -> Result<(), RunError>;
    /// Reads a buffer back to the host.
    fn read_bytes(&mut self, b: BufId) -> Vec<u8>;
}

/// Convenience allocation of `f32` data.
pub fn alloc_f32(r: &mut dyn Runner, data: &[f32]) -> BufId {
    let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
    r.alloc_bytes(&bytes)
}

/// Convenience allocation of `i32` data.
pub fn alloc_i32(r: &mut dyn Runner, data: &[i32]) -> BufId {
    let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
    r.alloc_bytes(&bytes)
}

/// Reads a buffer as `f32`s.
pub fn read_f32(r: &mut dyn Runner, b: BufId) -> Vec<f32> {
    r.read_bytes(b)
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Reads a buffer as `i32`s.
pub fn read_i32(r: &mut dyn Runner, b: BufId) -> Vec<i32> {
    r.read_bytes(b)
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// The runner executing on a (simulated) framework.
pub struct SimRunner {
    ctx: Context,
    program: Program,
    buffers: Vec<Buffer>,
    /// Accumulated device cycles over all launches.
    pub total_cycles: u64,
    /// Accumulated seconds at the framework's clock.
    pub total_seconds: f64,
    /// Number of kernel launches.
    pub launches: u32,
    /// One profile per launch, in launch order (only filled after
    /// [`SimRunner::enable_profiling`]).
    pub profiles: Vec<soff_sim::ProfileReport>,
    /// Per-launch simulation results, in launch order.
    pub launch_results: Vec<soff_sim::SimResult>,
    fw: Framework,
    device: soff_runtime::Device,
}

impl SimRunner {
    /// Builds the program on `fw` and prepares a fresh context.
    ///
    /// # Errors
    ///
    /// The Table II outcome when the framework cannot compile the source.
    pub fn new(fw: Framework, source: &str, defines: &[(String, String)]) -> Result<SimRunner, Outcome> {
        let (program, device) = soff_baseline::build(fw, source, defines)?;
        let replication =
            program.kernels().iter().map(|k| k.replication.num_datapaths).min().unwrap_or(1);
        let mut ctx = Context::new(device.clone());
        soff_baseline::configure_context(fw, &mut ctx, replication);
        Ok(SimRunner {
            ctx,
            program,
            buffers: Vec::new(),
            total_cycles: 0,
            total_seconds: 0.0,
            launches: 0,
            profiles: Vec::new(),
            launch_results: Vec::new(),
            fw,
            device,
        })
    }

    /// Turns on cycle-attribution profiling for every subsequent launch;
    /// the reports accumulate in [`SimRunner::profiles`].
    pub fn enable_profiling(&mut self, cfg: soff_sim::ProfileConfig) {
        self.ctx.profile = Some(cfg);
    }

    /// Selects the simulator scheduling strategy for every subsequent
    /// launch (simulated results are bit-identical either way;
    /// `tests/checkpoint_apps.rs` runs every app under both).
    pub fn set_scheduler(&mut self, s: soff_sim::Scheduler) {
        self.ctx.scheduler = s;
    }

    /// Enables or disables the sliding-window line-buffer path for every
    /// subsequent launch (DESIGN.md §13). Result buffers are bit-identical
    /// either way; only cycles and memory traffic change.
    pub fn set_line_buffer(&mut self, on: bool) {
        self.ctx.line_buffer = on;
    }

    /// Snapshots the contents of every buffer the application allocated,
    /// in allocation order — the byte-identity witness the line-buffer
    /// differential tests compare across schedulers and modes.
    pub fn dump_buffers(&mut self) -> Vec<Vec<u8>> {
        (0..self.buffers.len()).map(|i| self.read_bytes(BufId(i))).collect()
    }

    /// Interrupts every subsequent launch each `cycles` cycles,
    /// snapshotting and restoring onto a freshly built machine (the
    /// checkpoint/restore drill on the production launch path; results
    /// are bit-identical to uninterrupted runs).
    pub fn set_checkpoint_interval(&mut self, cycles: Option<u64>) {
        self.ctx.checkpoint_interval = cycles;
    }

    /// The replication factor of the first kernel (for the Fig. 12 (b)
    /// linear-scaling extrapolation).
    pub fn replication(&self) -> u32 {
        self.program
            .kernels()
            .iter()
            .map(|k| k.replication.num_datapaths)
            .min()
            .unwrap_or(1)
    }

    fn bind(&self, k: &mut KernelHandle, args: &[Arg]) {
        for (i, a) in args.iter().enumerate() {
            match a {
                Arg::Buf(b) => k.set_arg_buffer(i, self.buffers[b.0]),
                Arg::I32(v) => k.set_arg_i32(i, *v),
                Arg::F32(v) => k.set_arg_f32(i, *v),
                Arg::U64(v) => k.set_arg_u64(i, *v),
                Arg::Local(v) => k.set_arg_local(i, *v),
            };
        }
    }
}

impl Runner for SimRunner {
    fn alloc_bytes(&mut self, data: &[u8]) -> BufId {
        let b = self.ctx.create_buffer_init(data);
        self.buffers.push(b);
        BufId(self.buffers.len() - 1)
    }

    fn launch(&mut self, kernel: &str, args: &[Arg], nd: NdRange) -> Result<(), RunError> {
        let mut k = self
            .program
            .kernel(kernel)
            .ok_or_else(|| RunError::MissingKernel(kernel.to_string()))?;
        self.bind(&mut k, args);
        let stats = self.ctx.enqueue_ndrange(&k, nd).map_err(|e| match e {
            LaunchError::Sim(soff_sim::SimError::Deadlock { .. })
            | LaunchError::Sim(soff_sim::SimError::Timeout { .. }) => {
                RunError::Outcome(Outcome::Hang)
            }
            _ => RunError::Outcome(Outcome::RuntimeError),
        })?;
        self.total_cycles += stats.sim.cycles;
        self.total_seconds +=
            soff_baseline::cycles_to_seconds(self.fw, &self.device, stats.sim.cycles);
        self.launches += 1;
        let mut sim = stats.sim;
        if let Some(p) = sim.profile.take() {
            self.profiles.push(*p);
        }
        record_linebuf_metrics(&sim.line_buf);
        self.launch_results.push(sim);
        Ok(())
    }

    fn read_bytes(&mut self, b: BufId) -> Vec<u8> {
        // Handles in `self.buffers` came from this context's
        // `create_buffer_init`, so the read cannot fail.
        self.ctx.read_buffer(self.buffers[b.0]).expect("runner-owned buffer handle")
    }
}

/// Publishes one launch's line-buffer activity to the service-wide
/// metrics registry. `bytes_saved` is the *modeled* DRAM traffic the
/// window path avoided: bytes delivered to the datapath minus bytes
/// actually streamed from DRAM.
fn record_linebuf_metrics(lb: &soff_sim::LineBufStats) {
    if lb.accesses == 0 {
        return;
    }
    let r = soff_obs::global();
    r.counter("soff_sim_linebuf_window_hits_total", &[]).add(lb.window_hits);
    r.counter("soff_sim_linebuf_underruns_total", &[]).add(lb.underruns);
    r.counter("soff_sim_linebuf_stream_refills_total", &[]).add(lb.stream_refills);
    r.counter("soff_sim_linebuf_bytes_from_dram_total", &[]).add(lb.bytes_from_dram);
    r.counter("soff_sim_linebuf_bytes_served_total", &[]).add(lb.bytes_served);
    r.counter("soff_sim_linebuf_bytes_saved_total", &[])
        .add(lb.bytes_served.saturating_sub(lb.bytes_from_dram));
}

/// Relative-tolerance float comparison for whole result vectors.
pub fn floats_close(got: &[f32], want: &[f32], tol: f32) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            let diff = (g - w).abs();
            diff <= tol * w.abs().max(1.0) || (g.is_nan() && w.is_nan())
        })
}
