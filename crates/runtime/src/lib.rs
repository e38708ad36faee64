//! # soff-runtime
//!
//! The SOFF runtime system (§III-C1): a user-level library implementing an
//! OpenCL-style host API — contexts, buffers, offline-compiled programs,
//! kernels with positional arguments, and NDRange launches — on top of the
//! cycle-level simulated device.
//!
//! Only *offline* kernel compilation is supported, matching the paper
//! ("SOFF supports only the offline compilation because synthesizing a
//! circuit may take several hours").
//!
//! ## Example
//!
//! ```
//! use soff_runtime::{Context, Device, Program};
//!
//! let device = Device::system_a();
//! let program = Program::build(
//!     "__kernel void scale(__global float* a, float s) {
//!          a[get_global_id(0)] *= s;
//!      }",
//!     &[],
//!     &device,
//! ).unwrap();
//!
//! let mut ctx = Context::new(device);
//! let buf = ctx.create_buffer(16 * 4);
//! ctx.write_buffer_f32(buf, &[1.0; 16]).unwrap();
//!
//! let mut kernel = program.kernel("scale").unwrap();
//! kernel.set_arg_buffer(0, buf);
//! kernel.set_arg_f32(1, 2.5);
//! let stats = ctx.enqueue_ndrange(&kernel, soff_ir::NdRange::dim1(16, 4)).unwrap();
//! assert!(stats.seconds > 0.0);
//! assert_eq!(ctx.read_buffer_f32(buf).unwrap()[0], 2.5);
//! ```
//!
//! ## Error handling
//!
//! Host-API misuse never panics: every reachable failure is a typed error
//! with an OpenCL-style status code ([`ApiError::status`]). Argument
//! binding is deferred-validated like `clSetKernelArg`: an out-of-range
//! or ill-typed `set_arg_*` is remembered and surfaced by
//! [`Context::enqueue_ndrange`], so the builder-style chaining stays
//! ergonomic while misuse still maps to `CL_INVALID_ARG_INDEX` /
//! `CL_INVALID_ARG_VALUE` instead of aborting the host process.

pub mod cache;
pub mod device;
pub mod store;

use soff_datapath::resource::{self, Replication};
use soff_datapath::{Datapath, LatencyModel};
use soff_ir::ir::{Kernel, ParamKind};
use soff_ir::mem::{ArgValue, GlobalMemory};
use soff_ir::NdRange;
use soff_sim::{SimConfig, SimError, SimResult};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

pub use device::Device;

/// A buffer handle in the device's global memory, tagged with the
/// context that created it so a handle from another context is caught
/// (`CL_INVALID_MEM_OBJECT`) instead of silently aliasing a buffer of
/// this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Buffer {
    id: u32,
    ctx: u32,
}

/// Host-API misuse, reported as a typed error instead of a panic.
///
/// Each variant corresponds to an OpenCL status code (see
/// [`ApiError::status`]); the payload carries enough context for a
/// actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// A `set_arg_*` call used an index outside the kernel's parameters
    /// (`CL_INVALID_ARG_INDEX`). Detected at enqueue, like the deferred
    /// validation of `clSetKernelArg` + `clEnqueueNDRangeKernel`.
    InvalidArgIndex {
        /// The offending index.
        index: usize,
        /// How many parameters the kernel has.
        num_params: usize,
    },
    /// The bound value's kind does not match the parameter
    /// (`CL_INVALID_ARG_VALUE`), e.g. a scalar bound to a `__global`
    /// pointer.
    ArgKindMismatch {
        /// Parameter position.
        index: usize,
        /// Parameter source name.
        name: String,
        /// What the kernel signature requires.
        expected: &'static str,
        /// What the host bound.
        got: &'static str,
    },
    /// A buffer handle does not belong to this context
    /// (`CL_INVALID_MEM_OBJECT`).
    InvalidMemObject {
        /// The raw handle.
        handle: u32,
    },
    /// A host transfer is larger than the buffer (`CL_INVALID_VALUE`).
    BufferOverrun {
        /// The buffer handle.
        handle: u32,
        /// The buffer's capacity in bytes.
        capacity: usize,
        /// The transfer length in bytes.
        len: usize,
    },
    /// The NDRange's global size is zero or exceeds the device's 2³²
    /// work-item id space (`CL_INVALID_GLOBAL_WORK_SIZE`). Work-item
    /// serials are 32-bit in the synthesized machine; a larger launch
    /// would silently alias distinct work-items onto one id.
    InvalidGlobalWorkSize {
        /// Total work-items requested.
        total: u64,
    },
    /// A local size is zero or does not divide its global size
    /// (`CL_INVALID_WORK_GROUP_SIZE`).
    InvalidWorkGroupSize {
        /// Global size of the offending dimension.
        global: u64,
        /// Local size of the offending dimension.
        local: u64,
    },
    /// The NDRange's `work_dim` is outside `1..=3`
    /// (`CL_INVALID_WORK_DIMENSION`).
    InvalidWorkDimension {
        /// The requested number of dimensions.
        work_dim: u32,
    },
}

impl ApiError {
    /// The OpenCL status code this error maps to.
    pub fn status(&self) -> &'static str {
        match self {
            ApiError::InvalidArgIndex { .. } => "CL_INVALID_ARG_INDEX",
            ApiError::ArgKindMismatch { .. } => "CL_INVALID_ARG_VALUE",
            ApiError::InvalidMemObject { .. } => "CL_INVALID_MEM_OBJECT",
            ApiError::BufferOverrun { .. } => "CL_INVALID_VALUE",
            ApiError::InvalidGlobalWorkSize { .. } => "CL_INVALID_GLOBAL_WORK_SIZE",
            ApiError::InvalidWorkGroupSize { .. } => "CL_INVALID_WORK_GROUP_SIZE",
            ApiError::InvalidWorkDimension { .. } => "CL_INVALID_WORK_DIMENSION",
        }
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::InvalidArgIndex { index, num_params } => write!(
                f,
                "{}: argument index {index} out of range (kernel has {num_params} parameters)",
                self.status()
            ),
            ApiError::ArgKindMismatch { index, name, expected, got } => write!(
                f,
                "{}: argument {index} (`{name}`) expects {expected}, host bound {got}",
                self.status()
            ),
            ApiError::InvalidMemObject { handle } => {
                write!(f, "{}: buffer handle {handle} is not valid in this context", self.status())
            }
            ApiError::BufferOverrun { handle, capacity, len } => write!(
                f,
                "{}: transfer of {len} bytes exceeds buffer {handle}'s {capacity} bytes",
                self.status()
            ),
            ApiError::InvalidGlobalWorkSize { total } => write!(
                f,
                "{}: global work size of {total} work-items is outside the \
                 device's supported range (1 ..= 2^32)",
                self.status()
            ),
            ApiError::InvalidWorkGroupSize { global, local } => write!(
                f,
                "{}: local size {local} must be nonzero and divide the \
                 global size {global}",
                self.status()
            ),
            ApiError::InvalidWorkDimension { work_dim } => {
                write!(f, "{}: work_dim {work_dim} is outside 1..=3", self.status())
            }
        }
    }
}

impl Error for ApiError {}

/// Why a program failed to build.
#[derive(Debug)]
pub enum BuildError {
    /// The frontend or lowering rejected the source.
    Compile(soff_frontend::Diagnostic),
    /// A kernel's single datapath instance exceeds the FPGA capacity
    /// (the `IR` outcome of Table II).
    InsufficientResources {
        /// The kernel that does not fit.
        kernel: String,
        /// Details.
        inner: resource::InsufficientResources,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Compile(d) => write!(f, "{d}"),
            BuildError::InsufficientResources { kernel, inner } => {
                write!(f, "kernel `{kernel}`: {inner}")
            }
        }
    }
}

impl Error for BuildError {}

impl From<soff_frontend::Diagnostic> for BuildError {
    fn from(d: soff_frontend::Diagnostic) -> Self {
        BuildError::Compile(d)
    }
}

/// One compiled kernel: IR, synthesized datapath, and replication choice.
#[derive(Debug)]
pub struct CompiledKernel {
    /// The SSA kernel.
    pub kernel: Kernel,
    /// The synthesized datapath.
    pub datapath: Datapath,
    /// Replication decided by the resource model (§III-C).
    pub replication: Replication,
}

/// An offline-compiled program (the bitstream stand-in).
#[derive(Debug, Clone)]
pub struct Program {
    kernels: Arc<Vec<CompiledKernel>>,
}

impl Program {
    /// Compiles `source` for `device`: frontend → IR → datapath →
    /// resource model (§III-C compilation flow, minus the hours of logic
    /// synthesis).
    ///
    /// # Errors
    ///
    /// See [`BuildError`].
    pub fn build(
        source: &str,
        defines: &[(String, String)],
        device: &Device,
    ) -> Result<Program, BuildError> {
        Self::build_with_latencies(source, defines, device, &LatencyModel::default())
    }

    /// As [`Program::build`] with an explicit latency model (used by the
    /// baseline framework models and the ablation benches).
    ///
    /// Builds are memoized in the content-hashed compile cache (see
    /// [`cache`]): a repeated build of the same source/defines/device/
    /// latency model returns a `Program` sharing the original's
    /// `CompiledKernel`s via `Arc`, and builds that differ only in
    /// device or latency model share the frontend + lowering work.
    pub fn build_with_latencies(
        source: &str,
        defines: &[(String, String)],
        device: &Device,
        lat: &LatencyModel,
    ) -> Result<Program, BuildError> {
        // The device description and latency model are plain data; their
        // Debug rendering is a faithful fingerprint of every field that
        // feeds datapath synthesis and the replication choice.
        let fingerprint = format!("{device:?}|{lat:?}");
        cache::program_cached(source, defines, &fingerprint, || {
            Self::build_uncached(source, defines, device, lat)
        })
    }

    fn build_uncached(
        source: &str,
        defines: &[(String, String)],
        device: &Device,
        lat: &LatencyModel,
    ) -> Result<Program, BuildError> {
        let module = cache::lower_cached(source, defines)?;
        let mut kernels = Vec::new();
        for kernel in module.kernels.iter().cloned() {
            debug_assert!(soff_ir::verify::verify(&kernel).is_ok());
            let datapath = Datapath::build(&kernel, lat);
            let pa = soff_ir::pointer::analyze(&kernel);
            let (groups, unknown) = soff_ir::pointer::global_cache_groups(&kernel, &pa);
            let num_caches = groups
                .iter()
                .flatten()
                .copied()
                .max()
                .map(|m| m + 1)
                .unwrap_or(usize::from(unknown));
            let local_bytes: u64 = kernel.local_vars.iter().map(|v| v.size).sum();
            // Sliding windows (DESIGN.md §13) displace their group's cache
            // with a far cheaper shift register: cost the remaining groups
            // as caches and each window as a line buffer. Replication is
            // decided assuming the default-on line-buffer path; the
            // per-launch `Context::line_buffer` knob only affects timing.
            let windows = soff_ir::window::detect(&kernel);
            let cached_groups = num_caches.saturating_sub(windows.len());
            let mut cost = resource::datapath_cost_full(
                &datapath,
                cached_groups.max(usize::from(windows.is_empty())),
                local_bytes,
                datapath.wg_slots,
                kernel.private_bytes,
            );
            for w in &windows {
                cost.add(resource::line_buffer_cost(
                    w.loads.len(),
                    w.static_span().unwrap_or(soff_ir::window::DEFAULT_SPAN_CAP),
                ));
            }
            let replication = resource::replicate(cost, &device.system).map_err(|inner| {
                BuildError::InsufficientResources { kernel: kernel.name.clone(), inner }
            })?;
            kernels.push(CompiledKernel { kernel, datapath, replication });
        }
        Ok(Program { kernels: Arc::new(kernels) })
    }

    /// The compiled kernels.
    pub fn kernels(&self) -> &[CompiledKernel] {
        &self.kernels
    }

    /// Creates an argument-binding handle for kernel `name`.
    pub fn kernel(&self, name: &str) -> Option<KernelHandle> {
        let idx = self.kernels.iter().position(|k| k.kernel.name == name)?;
        let n = self.kernels[idx].kernel.params.len();
        Some(KernelHandle {
            program: self.clone(),
            index: idx,
            args: vec![None; n],
            buffer_ctx: vec![None; n],
            invalid_arg: None,
        })
    }
}

/// A kernel with (partially) bound arguments, analogous to `cl_kernel`
/// after `clSetKernelArg` calls.
#[derive(Debug, Clone)]
pub struct KernelHandle {
    program: Program,
    index: usize,
    args: Vec<Option<ArgValue>>,
    /// Owning-context tag of each bound buffer argument, checked at
    /// enqueue against the launching context.
    buffer_ctx: Vec<Option<u32>>,
    /// First out-of-range `set_arg_*` index, surfaced at enqueue
    /// (deferred validation, like `clSetKernelArg`).
    invalid_arg: Option<usize>,
}

impl KernelHandle {
    /// The compiled kernel this handle launches.
    pub fn compiled(&self) -> &CompiledKernel {
        &self.program.kernels[self.index]
    }

    fn set(&mut self, i: usize, v: ArgValue) -> &mut Self {
        if let Some(slot) = self.args.get_mut(i) {
            *slot = Some(v);
            self.buffer_ctx[i] = None;
        } else if self.invalid_arg.is_none() {
            self.invalid_arg = Some(i);
        }
        self
    }

    /// Binds a buffer argument.
    pub fn set_arg_buffer(&mut self, i: usize, b: Buffer) -> &mut Self {
        self.set(i, ArgValue::Buffer(b.id));
        if i < self.buffer_ctx.len() {
            self.buffer_ctx[i] = Some(b.ctx);
        }
        self
    }

    /// Binds a 32-bit integer argument.
    pub fn set_arg_i32(&mut self, i: usize, v: i32) -> &mut Self {
        self.set(i, ArgValue::Scalar(v as u32 as u64))
    }

    /// Binds a 64-bit integer argument.
    pub fn set_arg_u64(&mut self, i: usize, v: u64) -> &mut Self {
        self.set(i, ArgValue::Scalar(v))
    }

    /// Binds a float argument.
    pub fn set_arg_f32(&mut self, i: usize, v: f32) -> &mut Self {
        self.set(i, ArgValue::Scalar(v.to_bits() as u64))
    }

    /// Binds a double argument.
    pub fn set_arg_f64(&mut self, i: usize, v: f64) -> &mut Self {
        self.set(i, ArgValue::Scalar(v.to_bits()))
    }

    /// Sets the byte size of a `__local` pointer argument
    /// (`clSetKernelArg(…, size, NULL)`).
    pub fn set_arg_local(&mut self, i: usize, bytes: u64) -> &mut Self {
        self.set(i, ArgValue::LocalSize(bytes))
    }

    fn collect_args(&self) -> Result<Vec<ArgValue>, LaunchError> {
        let ck = self.compiled();
        if let Some(index) = self.invalid_arg {
            return Err(ApiError::InvalidArgIndex {
                index,
                num_params: ck.kernel.params.len(),
            }
            .into());
        }
        let args: Vec<ArgValue> = self
            .args
            .iter()
            .enumerate()
            .map(|(i, a)| {
                a.ok_or_else(|| LaunchError::MissingArgument {
                    index: i,
                    name: ck.kernel.params[i].name.clone(),
                })
            })
            .collect::<Result<_, _>>()?;
        for (i, (p, a)) in ck.kernel.params.iter().zip(&args).enumerate() {
            let (expected, ok) = match p.kind {
                ParamKind::Scalar(_) => ("a scalar", matches!(a, ArgValue::Scalar(_))),
                ParamKind::Buffer { .. } => ("a buffer", matches!(a, ArgValue::Buffer(_))),
                ParamKind::LocalPointer { .. } => {
                    ("a __local size", matches!(a, ArgValue::LocalSize(_)))
                }
            };
            if !ok {
                let got = match a {
                    ArgValue::Scalar(_) => "a scalar",
                    ArgValue::Buffer(_) => "a buffer",
                    ArgValue::LocalSize(_) => "a __local size",
                };
                return Err(ApiError::ArgKindMismatch {
                    index: i,
                    name: p.name.clone(),
                    expected,
                    got,
                }
                .into());
            }
        }
        Ok(args)
    }
}

/// Why a launch failed.
#[derive(Debug)]
pub enum LaunchError {
    /// Argument `index` was never set.
    MissingArgument {
        /// Position of the missing argument.
        index: usize,
        /// Its source name.
        name: String,
    },
    /// Host-API misuse (bad argument index/kind, foreign buffer handle).
    Api(ApiError),
    /// The simulated hardware failed (deadlock, timeout, bad arguments).
    Sim(SimError),
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::MissingArgument { index, name } => {
                write!(f, "kernel argument {index} (`{name}`) was never set")
            }
            LaunchError::Api(e) => write!(f, "{e}"),
            LaunchError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl Error for LaunchError {}

impl From<SimError> for LaunchError {
    fn from(e: SimError) -> Self {
        LaunchError::Sim(e)
    }
}

impl From<ApiError> for LaunchError {
    fn from(e: ApiError) -> Self {
        LaunchError::Api(e)
    }
}

/// Timing and counters of one kernel execution.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Raw simulation result.
    pub sim: SimResult,
    /// Wall-clock estimate at the device's clock.
    pub seconds: f64,
    /// Datapath instances used.
    pub num_instances: u32,
}

/// An OpenCL-context analogue owning the device's global memory.
#[derive(Debug)]
pub struct Context {
    device: Device,
    gm: GlobalMemory,
    registers: device::Registers,
    /// Overrides the replication choice (e.g. `num_compute_units(N)`).
    pub force_instances: Option<u32>,
    /// Hard cycle budget per launch.
    pub max_cycles: u64,
    /// Cycle-attribution profiling for every launch (`None` = off; the
    /// report lands in [`ExecStats::sim`]'s `profile` field).
    pub profile: Option<soff_sim::ProfileConfig>,
    /// Simulator main-loop strategy for every launch; results are
    /// bit-identical either way (see [`soff_sim::Scheduler`]).
    pub scheduler: soff_sim::Scheduler,
    /// Sliding-window line-buffer synthesis (DESIGN.md §13). On by
    /// default; turning it off routes every global load through the
    /// per-group caches. Result buffers are bit-identical either way —
    /// only cycles and traffic change.
    pub line_buffer: bool,
    /// Preemption drill: when set, every launch is interrupted every `N`
    /// cycles, snapshotted, and resumed on a **freshly built** machine
    /// (checkpoint/restore on the production path). Results are
    /// bit-identical to an uninterrupted launch — the restore contract.
    pub checkpoint_interval: Option<u64>,
    /// Unique tag baked into this context's buffer handles.
    ctx_id: u32,
}

/// Tags contexts so buffer handles cannot cross between them unnoticed.
static NEXT_CTX_ID: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

// Compile-time audit for the parallel sweep engine: compiled programs
// (and therefore kernels, datapaths, and replication choices) are shared
// across worker threads through the compile cache's `Arc`s, and whole
// contexts/results move into and out of sweep tasks. `Send`-only types
// (owned per cell) are checked separately from the shared `Sync` ones.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    const fn owned<T: Send>() {}
    shared::<Program>();
    shared::<CompiledKernel>();
    shared::<Device>();
    shared::<cache::CacheStats>();
    owned::<Context>();
    owned::<KernelHandle>();
    owned::<ExecStats>();
    owned::<BuildError>();
    owned::<LaunchError>();
};

impl Context {
    /// Creates a context on `device`.
    pub fn new(device: Device) -> Context {
        Context {
            device,
            gm: GlobalMemory::new(),
            registers: device::Registers::default(),
            force_instances: None,
            max_cycles: 2_000_000_000,
            profile: None,
            scheduler: soff_sim::Scheduler::default(),
            line_buffer: true,
            checkpoint_interval: None,
            ctx_id: NEXT_CTX_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// The device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The register file (visible for tests and the paper's execution-flow
    /// fidelity).
    pub fn registers(&self) -> &device::Registers {
        &self.registers
    }

    /// Allocates a buffer of `size` bytes in device global memory.
    pub fn create_buffer(&mut self, size: usize) -> Buffer {
        Buffer { id: self.gm.alloc(size), ctx: self.ctx_id }
    }

    /// Allocates a buffer sized and initialized from `data`
    /// (`clCreateBuffer` with `CL_MEM_COPY_HOST_PTR`). Cannot fail: the
    /// buffer is created to fit.
    pub fn create_buffer_init(&mut self, data: &[u8]) -> Buffer {
        let b = Buffer { id: self.gm.alloc(data.len()), ctx: self.ctx_id };
        self.gm.buffer_mut(b.id).bytes_mut()[..data.len()].copy_from_slice(data);
        b
    }

    fn check_handle(&self, b: Buffer) -> Result<(), ApiError> {
        if b.ctx == self.ctx_id && (b.id as usize) < self.gm.num_buffers() {
            Ok(())
        } else {
            Err(ApiError::InvalidMemObject { handle: b.id })
        }
    }

    /// Writes raw bytes to a buffer (DMA host → device).
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidMemObject`] for a foreign handle,
    /// [`ApiError::BufferOverrun`] when `data` exceeds the buffer size.
    pub fn write_buffer(&mut self, b: Buffer, data: &[u8]) -> Result<(), ApiError> {
        self.check_handle(b)?;
        let dst = self.gm.buffer_mut(b.id).bytes_mut();
        if data.len() > dst.len() {
            return Err(ApiError::BufferOverrun {
                handle: b.id,
                capacity: dst.len(),
                len: data.len(),
            });
        }
        dst[..data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads the whole buffer back (DMA device → host).
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidMemObject`] for a foreign handle.
    pub fn read_buffer(&self, b: Buffer) -> Result<Vec<u8>, ApiError> {
        self.check_handle(b)?;
        Ok(self.gm.buffer(b.id).bytes().to_vec())
    }

    /// Writes a slice of `f32` to a buffer.
    ///
    /// # Errors
    ///
    /// See [`Context::write_buffer`].
    pub fn write_buffer_f32(&mut self, b: Buffer, data: &[f32]) -> Result<(), ApiError> {
        let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
        self.write_buffer(b, &bytes)
    }

    /// Reads a buffer as `f32`s.
    ///
    /// # Errors
    ///
    /// See [`Context::read_buffer`].
    pub fn read_buffer_f32(&self, b: Buffer) -> Result<Vec<f32>, ApiError> {
        Ok(self
            .read_buffer(b)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Writes a slice of `i32` to a buffer.
    ///
    /// # Errors
    ///
    /// See [`Context::write_buffer`].
    pub fn write_buffer_i32(&mut self, b: Buffer, data: &[i32]) -> Result<(), ApiError> {
        let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
        self.write_buffer(b, &bytes)
    }

    /// Reads a buffer as `i32`s.
    ///
    /// # Errors
    ///
    /// See [`Context::read_buffer`].
    pub fn read_buffer_i32(&self, b: Buffer) -> Result<Vec<i32>, ApiError> {
        Ok(self
            .read_buffer(b)?
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Direct access to global memory (for the benchmark harness and the
    /// reference interpreter).
    pub fn global_memory_mut(&mut self) -> &mut GlobalMemory {
        &mut self.gm
    }

    /// Launches `kernel` over `nd` and blocks until the completion
    /// register is set (§III-C1).
    ///
    /// # Errors
    ///
    /// See [`LaunchError`].
    pub fn enqueue_ndrange(
        &mut self,
        kernel: &KernelHandle,
        nd: NdRange,
    ) -> Result<ExecStats, LaunchError> {
        let args = self.prepare_launch(kernel, nd)?;
        let ck = kernel.compiled();

        // Execution flow of §III-C1: write argument/kernel-pointer/trigger
        // registers, run, poll completion.
        self.registers.argument = device::Registers::encode_ndrange(&nd).to_vec();
        self.registers.kernel_pointer = kernel.index as u32;
        self.registers.trigger = true;
        self.registers.completion = false;

        let cfg = self.launch_config(ck);
        let num_instances = cfg.num_instances;
        let sim = match self.checkpoint_interval {
            None => soff_sim::run(&ck.kernel, &ck.datapath, &cfg, nd, &args, &mut self.gm)?,
            Some(interval) => {
                // Preemptible launch: run in `interval`-cycle slices. Each
                // deadline carries a snapshot; it is restored onto a
                // machine built from scratch, so the drill proves the
                // snapshot holds the *complete* architectural state.
                let interval = interval.max(1);
                let mut machine =
                    soff_sim::Machine::new(&ck.kernel, &ck.datapath, &cfg, nd, &args)?;
                let mut ctl = soff_sim::RunControl::unlimited();
                ctl.cycle_deadline = Some(interval);
                loop {
                    match machine.run_with(&mut self.gm, &ctl) {
                        Ok(sim) => break sim,
                        Err(soff_sim::SimError::DeadlineExceeded { cycle, snapshot }) => {
                            let mut fresh = soff_sim::Machine::new(
                                &ck.kernel,
                                &ck.datapath,
                                &cfg,
                                nd,
                                &args,
                            )?;
                            fresh.restore(&snapshot, &mut self.gm)?;
                            ctl.cycle_deadline = Some(cycle + interval);
                            machine = fresh;
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
            }
        };

        self.registers.trigger = false;
        self.registers.completion = true;
        let seconds = self.device.cycles_to_seconds(sim.cycles);
        Ok(ExecStats { sim, seconds, num_instances })
    }

    /// Everything [`Context::enqueue_ndrange`] checks *before* touching
    /// the device, as a separate step: geometry validation, argument
    /// completeness/kind checks, and buffer-handle ownership. Returns the
    /// validated argument vector ready for the simulator.
    ///
    /// Exposed so schedulers layered on top (the serve layer) can admit
    /// or reject a launch without running it, with error semantics
    /// identical to a direct enqueue.
    ///
    /// # Errors
    ///
    /// See [`LaunchError`]; never [`LaunchError::Sim`].
    pub fn prepare_launch(
        &self,
        kernel: &KernelHandle,
        nd: NdRange,
    ) -> Result<Vec<ArgValue>, LaunchError> {
        validate_ndrange(&nd)?;
        let args = kernel.collect_args()?;
        for (i, a) in args.iter().enumerate() {
            if let ArgValue::Buffer(h) = a {
                let ctx = kernel.buffer_ctx.get(i).copied().flatten();
                if ctx != Some(self.ctx_id) || *h as usize >= self.gm.num_buffers() {
                    return Err(ApiError::InvalidMemObject { handle: *h }.into());
                }
            }
        }
        Ok(args)
    }

    /// The simulator configuration a launch of `ck` from this context
    /// would use (replication override, cycle budget, profiling,
    /// scheduler). Exposed for schedulers that drive [`soff_sim::Machine`]
    /// directly to slice launches across tenants.
    pub fn launch_config(&self, ck: &CompiledKernel) -> SimConfig {
        let num_instances =
            self.force_instances.unwrap_or(ck.replication.num_datapaths).max(1);
        SimConfig {
            cache: self.device.cache,
            dram: self.device.dram_config(),
            num_instances,
            max_cycles: self.max_cycles,
            profile: self.profile,
            scheduler: self.scheduler,
            line_buffer: self.line_buffer,
            ..SimConfig::default()
        }
    }
}

/// Geometry validation (`clEnqueueNDRangeKernel` semantics): the machine
/// carries work-item/work-group serials in 32-bit fields, so launches
/// beyond 2^32 work-items (or degenerate ones) must be rejected up front
/// instead of truncating ids downstream.
///
/// # Errors
///
/// [`ApiError::InvalidWorkDimension`] /
/// [`ApiError::InvalidWorkGroupSize`] /
/// [`ApiError::InvalidGlobalWorkSize`].
pub fn validate_ndrange(nd: &NdRange) -> Result<(), ApiError> {
    if !(1..=3).contains(&nd.work_dim) {
        return Err(ApiError::InvalidWorkDimension { work_dim: nd.work_dim });
    }
    for d in 0..nd.work_dim as usize {
        let (global, local) = (nd.global[d], nd.local[d]);
        if local == 0 || global % local != 0 {
            return Err(ApiError::InvalidWorkGroupSize { global, local });
        }
    }
    let total = nd.total_work_items();
    if total == 0 || total > 1 << 32 {
        return Err(ApiError::InvalidGlobalWorkSize { total });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const VADD: &str = "__kernel void vadd(__global const float* a, __global const float* b,
                                           __global float* c) {
        int i = get_global_id(0);
        c[i] = a[i] + b[i];
    }";

    #[test]
    fn end_to_end_vadd() {
        let device = Device::system_a();
        let program = Program::build(VADD, &[], &device).unwrap();
        assert!(program.kernels()[0].replication.num_datapaths >= 1);
        let mut ctx = Context::new(device);
        let a = ctx.create_buffer(32 * 4);
        let b = ctx.create_buffer(32 * 4);
        let c = ctx.create_buffer(32 * 4);
        ctx.write_buffer_f32(a, &(0..32).map(|i| i as f32).collect::<Vec<_>>()).unwrap();
        ctx.write_buffer_f32(b, &(0..32).map(|i| (i * 2) as f32).collect::<Vec<_>>()).unwrap();
        let mut k = program.kernel("vadd").unwrap();
        k.set_arg_buffer(0, a).set_arg_buffer(1, b).set_arg_buffer(2, c);
        let stats = ctx.enqueue_ndrange(&k, NdRange::dim1(32, 8)).unwrap();
        assert_eq!(stats.sim.retired, 32);
        assert!(ctx.registers().completion);
        let out = ctx.read_buffer_f32(c).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * 3) as f32);
        }
    }

    #[test]
    fn checkpointed_launch_is_bit_identical() {
        // The preemption drill: slicing a launch into 64-cycle pieces
        // (snapshot → fresh machine → restore, repeatedly) must produce
        // the same results, cycles, and memory as one uninterrupted run.
        let run = |interval: Option<u64>| {
            let device = Device::system_a();
            let program = Program::build(VADD, &[], &device).unwrap();
            let mut ctx = Context::new(device);
            ctx.checkpoint_interval = interval;
            let a = ctx.create_buffer(32 * 4);
            let b = ctx.create_buffer(32 * 4);
            let c = ctx.create_buffer(32 * 4);
            ctx.write_buffer_f32(a, &(0..32).map(|i| i as f32).collect::<Vec<_>>()).unwrap();
            ctx.write_buffer_f32(b, &(0..32).map(|i| (i * 2) as f32).collect::<Vec<_>>())
                .unwrap();
            let mut k = program.kernel("vadd").unwrap();
            k.set_arg_buffer(0, a).set_arg_buffer(1, b).set_arg_buffer(2, c);
            let stats = ctx.enqueue_ndrange(&k, NdRange::dim1(32, 8)).unwrap();
            (stats.sim, ctx.read_buffer_f32(c).unwrap())
        };
        let (plain, plain_out) = run(None);
        let (sliced, sliced_out) = run(Some(64));
        assert_eq!(plain, sliced, "interrupted launch diverged from uninterrupted");
        assert_eq!(plain_out, sliced_out);
    }

    #[test]
    fn missing_argument_reported() {
        let device = Device::system_a();
        let program = Program::build(VADD, &[], &device).unwrap();
        let mut ctx = Context::new(device);
        let a = ctx.create_buffer(16);
        let mut k = program.kernel("vadd").unwrap();
        k.set_arg_buffer(0, a);
        let err = ctx.enqueue_ndrange(&k, NdRange::dim1(4, 4)).unwrap_err();
        assert!(err.to_string().contains("never set"));
    }

    #[test]
    fn compile_error_surfaces() {
        let device = Device::system_a();
        let err = Program::build("__kernel void k() { undeclared = 1; }", &[], &device)
            .unwrap_err();
        assert!(matches!(err, BuildError::Compile(_)));
    }

    #[test]
    fn out_of_range_arg_index_is_deferred_to_enqueue() {
        let device = Device::system_a();
        let program = Program::build(VADD, &[], &device).unwrap();
        let mut ctx = Context::new(device);
        let a = ctx.create_buffer(16);
        let mut k = program.kernel("vadd").unwrap();
        // Index 7 is out of range for a 3-parameter kernel; must not panic.
        k.set_arg_buffer(0, a)
            .set_arg_buffer(1, a)
            .set_arg_buffer(2, a)
            .set_arg_f32(7, 1.0);
        let err = ctx.enqueue_ndrange(&k, NdRange::dim1(4, 4)).unwrap_err();
        match err {
            LaunchError::Api(e @ ApiError::InvalidArgIndex { index: 7, num_params: 3 }) => {
                assert_eq!(e.status(), "CL_INVALID_ARG_INDEX");
            }
            other => panic!("expected InvalidArgIndex, got {other}"),
        }
    }

    #[test]
    fn invalid_launch_geometry_is_rejected() {
        let device = Device::system_a();
        let program = Program::build(VADD, &[], &device).unwrap();
        let mut ctx = Context::new(device);
        let a = ctx.create_buffer(32 * 4);
        let mut k = program.kernel("vadd").unwrap();
        k.set_arg_buffer(0, a).set_arg_buffer(1, a).set_arg_buffer(2, a);

        // Local size does not divide the global size (the constructors
        // assert this, but the struct fields are public host inputs).
        let nd = NdRange { work_dim: 1, global: [30, 1, 1], local: [8, 1, 1] };
        match ctx.enqueue_ndrange(&k, nd).unwrap_err() {
            LaunchError::Api(e @ ApiError::InvalidWorkGroupSize { global: 30, local: 8 }) => {
                assert_eq!(e.status(), "CL_INVALID_WORK_GROUP_SIZE");
            }
            other => panic!("expected InvalidWorkGroupSize, got {other}"),
        }

        // Zero-sized local.
        let nd = NdRange { work_dim: 1, global: [32, 1, 1], local: [0, 1, 1] };
        assert!(matches!(
            ctx.enqueue_ndrange(&k, nd).unwrap_err(),
            LaunchError::Api(ApiError::InvalidWorkGroupSize { .. })
        ));

        // A launch beyond the 2^32 work-item id space must be rejected,
        // not truncated into aliased 32-bit serials.
        let nd = NdRange { work_dim: 1, global: [1 << 33, 1, 1], local: [8, 1, 1] };
        match ctx.enqueue_ndrange(&k, nd).unwrap_err() {
            LaunchError::Api(e @ ApiError::InvalidGlobalWorkSize { total }) => {
                assert_eq!(total, 1 << 33);
                assert_eq!(e.status(), "CL_INVALID_GLOBAL_WORK_SIZE");
            }
            other => panic!("expected InvalidGlobalWorkSize, got {other}"),
        }

        // Zero-sized global.
        let nd = NdRange { work_dim: 1, global: [0, 1, 1], local: [1, 1, 1] };
        assert!(matches!(
            ctx.enqueue_ndrange(&k, nd).unwrap_err(),
            LaunchError::Api(ApiError::InvalidGlobalWorkSize { total: 0 })
        ));
    }

    #[test]
    fn work_dimension_outside_one_to_three_is_rejected() {
        let device = Device::system_a();
        let program = Program::build(VADD, &[], &device).unwrap();
        let mut ctx = Context::new(device);
        let a = ctx.create_buffer(32 * 4);
        let mut k = program.kernel("vadd").unwrap();
        k.set_arg_buffer(0, a).set_arg_buffer(1, a).set_arg_buffer(2, a);
        // Only the first `work_dim` entries are read, and there are three.
        for work_dim in [0, 4] {
            let nd = NdRange { work_dim, global: [32, 1, 1], local: [8, 1, 1] };
            match ctx.enqueue_ndrange(&k, nd).unwrap_err() {
                LaunchError::Api(e @ ApiError::InvalidWorkDimension { work_dim: w }) => {
                    assert_eq!(w, work_dim);
                    assert_eq!(e.status(), "CL_INVALID_WORK_DIMENSION");
                }
                other => panic!("expected InvalidWorkDimension, got {other}"),
            }
            assert!(matches!(
                ctx.prepare_launch(&k, nd),
                Err(LaunchError::Api(ApiError::InvalidWorkDimension { .. }))
            ));
        }
    }

    #[test]
    fn scheduler_knob_is_transparent() {
        // Same launch under every scheduler through the host API: the
        // simulated results and output buffers must be bit-identical.
        let device = Device::system_a();
        let program = Program::build(VADD, &[], &device).unwrap();
        let mut results = Vec::new();
        for scheduler in [soff_sim::Scheduler::Dense, soff_sim::Scheduler::Fast] {
            let mut ctx = Context::new(device.clone());
            ctx.scheduler = scheduler;
            let a = ctx.create_buffer(32 * 4);
            let b = ctx.create_buffer(32 * 4);
            let c = ctx.create_buffer(32 * 4);
            ctx.write_buffer_f32(a, &(0..32).map(|i| i as f32).collect::<Vec<_>>()).unwrap();
            ctx.write_buffer_f32(b, &(0..32).map(|i| (i * 2) as f32).collect::<Vec<_>>())
                .unwrap();
            let mut k = program.kernel("vadd").unwrap();
            k.set_arg_buffer(0, a).set_arg_buffer(1, b).set_arg_buffer(2, c);
            let stats = ctx.enqueue_ndrange(&k, NdRange::dim1(32, 8)).unwrap();
            results.push((stats.sim, ctx.read_buffer(c).unwrap()));
        }
        assert_eq!(results[0], results[1], "schedulers diverged through the host API");
    }

    #[test]
    fn arg_kind_mismatch_is_reported() {
        let device = Device::system_a();
        let program = Program::build(VADD, &[], &device).unwrap();
        let mut ctx = Context::new(device);
        let a = ctx.create_buffer(16);
        let mut k = program.kernel("vadd").unwrap();
        // Parameter 1 is a __global pointer; binding a scalar is misuse.
        k.set_arg_buffer(0, a).set_arg_f32(1, 3.0).set_arg_buffer(2, a);
        let err = ctx.enqueue_ndrange(&k, NdRange::dim1(4, 4)).unwrap_err();
        match err {
            LaunchError::Api(e @ ApiError::ArgKindMismatch { index: 1, .. }) => {
                assert_eq!(e.status(), "CL_INVALID_ARG_VALUE");
            }
            other => panic!("expected ArgKindMismatch, got {other}"),
        }
    }

    #[test]
    fn foreign_buffer_handle_is_rejected() {
        let device = Device::system_a();
        let program = Program::build(VADD, &[], &device).unwrap();
        let mut other_ctx = Context::new(device.clone());
        for _ in 0..5 {
            other_ctx.create_buffer(16);
        }
        let foreign = other_ctx.create_buffer(16);
        let mut ctx = Context::new(device);
        assert!(matches!(
            ctx.read_buffer(foreign),
            Err(ApiError::InvalidMemObject { .. })
        ));
        assert!(matches!(
            ctx.write_buffer(foreign, &[0; 4]),
            Err(ApiError::InvalidMemObject { .. })
        ));
        let mut k = program.kernel("vadd").unwrap();
        k.set_arg_buffer(0, foreign).set_arg_buffer(1, foreign).set_arg_buffer(2, foreign);
        let err = ctx.enqueue_ndrange(&k, NdRange::dim1(4, 4)).unwrap_err();
        assert!(matches!(err, LaunchError::Api(ApiError::InvalidMemObject { .. })));

        // A foreign handle whose index *collides* with a live local buffer
        // must still be rejected — the context tag catches it, not the
        // index range check.
        let local = ctx.create_buffer(16);
        let mut other_ctx2 = Context::new(ctx.device().clone());
        let colliding = other_ctx2.create_buffer(16);
        assert!(matches!(
            ctx.read_buffer(colliding),
            Err(ApiError::InvalidMemObject { .. })
        ));
        assert!(ctx.read_buffer(local).is_ok());
    }

    #[test]
    fn oversized_transfer_is_rejected() {
        let device = Device::system_a();
        let mut ctx = Context::new(device);
        let b = ctx.create_buffer(8);
        let err = ctx.write_buffer(b, &[0u8; 16]).unwrap_err();
        assert!(matches!(err, ApiError::BufferOverrun { capacity: 8, len: 16, .. }));
        assert_eq!(err.status(), "CL_INVALID_VALUE");
        // A fitting transfer still works afterwards.
        ctx.write_buffer(b, &[1u8; 8]).unwrap();
        assert_eq!(ctx.read_buffer(b).unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn create_buffer_init_round_trips() {
        let device = Device::system_a();
        let mut ctx = Context::new(device);
        let b = ctx.create_buffer_init(&[1, 2, 3, 4]);
        assert_eq!(ctx.read_buffer(b).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn forced_instance_count_is_used() {
        let device = Device::system_a();
        let program = Program::build(VADD, &[], &device).unwrap();
        let mut ctx = Context::new(device);
        ctx.force_instances = Some(2);
        let a = ctx.create_buffer(64);
        let b = ctx.create_buffer(64);
        let c = ctx.create_buffer(64);
        let mut k = program.kernel("vadd").unwrap();
        k.set_arg_buffer(0, a).set_arg_buffer(1, b).set_arg_buffer(2, c);
        let stats = ctx.enqueue_ndrange(&k, NdRange::dim1(16, 4)).unwrap();
        assert_eq!(stats.num_instances, 2);
    }
}

#[cfg(test)]
mod register_tests {
    use super::*;

    #[test]
    fn registers_follow_the_execution_flow() {
        // §III-C1: write argument + kernel-pointer + trigger registers,
        // run, poll completion. After a launch, completion must be set
        // and trigger cleared.
        let device = Device::system_a();
        let program = Program::build(
            "__kernel void a(__global int* x) { x[0] = 1; }
             __kernel void b(__global int* x) { x[1] = 2; }",
            &[],
            &device,
        )
        .unwrap();
        let mut ctx = Context::new(device);
        let buf = ctx.create_buffer(16);
        let mut kb = program.kernel("b").unwrap();
        kb.set_arg_buffer(0, buf);
        ctx.enqueue_ndrange(&kb, NdRange::dim1(1, 1)).unwrap();
        // Kernel pointer selected the second circuit (§III-B).
        assert_eq!(ctx.registers().kernel_pointer, 1);
        assert!(ctx.registers().completion);
        assert!(!ctx.registers().trigger);
        // The NDRange was encoded into the argument register (7 ints).
        assert_eq!(ctx.registers().argument.len(), 7);
        assert_eq!(ctx.registers().argument[0], 1); // work_dim
    }

    #[test]
    fn buffers_persist_across_launches() {
        let device = Device::system_a();
        let program = Program::build(
            "__kernel void add1(__global int* x) { x[get_global_id(0)] += 1; }",
            &[],
            &device,
        )
        .unwrap();
        let mut ctx = Context::new(device);
        let buf = ctx.create_buffer(8 * 4);
        ctx.write_buffer_i32(buf, &[0; 8]).unwrap();
        let mut k = program.kernel("add1").unwrap();
        k.set_arg_buffer(0, buf);
        for _ in 0..5 {
            ctx.enqueue_ndrange(&k, NdRange::dim1(8, 4)).unwrap();
        }
        assert_eq!(ctx.read_buffer_i32(buf).unwrap(), vec![5; 8]);
    }

    #[test]
    fn exec_stats_are_consistent() {
        let device = Device::system_a();
        let program = Program::build(
            "__kernel void w(__global float* x) { x[get_global_id(0)] = 1.0f; }",
            &[],
            &device,
        )
        .unwrap();
        let mut ctx = Context::new(device);
        let buf = ctx.create_buffer(256 * 4);
        let mut k = program.kernel("w").unwrap();
        k.set_arg_buffer(0, buf);
        let stats = ctx.enqueue_ndrange(&k, NdRange::dim1(256, 32)).unwrap();
        assert_eq!(stats.sim.retired, 256);
        assert!(stats.sim.cycles >= stats.sim.compute_cycles);
        let expect_secs = stats.sim.cycles as f64 / (ctx.device().system.clock_soff_mhz * 1e6);
        assert!((stats.seconds - expect_secs).abs() < 1e-12);
    }
}
