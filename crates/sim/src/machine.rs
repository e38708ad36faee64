//! The whole reconfigurable region (§III-B, Fig. 2): work-item
//! dispatcher, replicated datapath instances, memory subsystem, and the
//! work-item counter that triggers the final cache flush.
//!
//! Each datapath instance owns one equal-length range of the component
//! vector (pipelines and glue). Every cycle the machine dispatches, walks
//! those ranges in component order, ticks the memory system (caches,
//! line buffers, local blocks, DRAM), and counts retirements; under
//! [`Scheduler::Fast`] each skip test reads the component's own state.
//!
//! The machine is **preemptible**: [`Machine`] exposes the construction /
//! stepping split behind [`run`], and [`Machine::snapshot`] /
//! [`Machine::restore`] capture and reinstate the *complete*
//! architectural state (channel queues, unit latches, glue state, MSHRs,
//! cache arrays, barrier buffers, work-group accounting, fault-plan
//! cursor, watchdog timers, profiler counters, and global memory).
//! Restore-then-run is bit-identical to an uninterrupted run under both
//! schedulers — the checkpoint differential tests pin that down.

use crate::channel::{ChanId, Channels};
use crate::diag::{self, DeadlockReport};
use crate::fault::{self, FaultPlan};
use crate::glue::{BarrierUnit, Branch, DecisionFifo, LoopEnter, LoopExit, Select};
use crate::launch::LaunchCtx;
use crate::memsys::{CachePlan, MemTarget, MemorySystem};
use crate::profile::{self, CycleBreakdown, ProfileConfig, ProfileReport, Profiler};
use crate::token::{edge_mapping, Mapping, Token};
use crate::units::{PipeCode, PipelineSim};
use soff_datapath::{Datapath, PipeNode};
use soff_ir::interp::InterpError;
use soff_ir::ir::{BlockId, InstKind, Kernel, NdRange, ValueId};
use soff_ir::mem::{ArgValue, GlobalMemory};
use soff_ir::pointer::{self, Provenance};
use soff_ir::window::{self, SlidingWindow};
use soff_mem::{
    CacheConfig, CacheStats, DramConfig, DramStats, LineBufConfig, LineBufStats, LineBuffer,
    PortId,
};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which main-loop strategy drives the machine.
///
/// Both schedulers build the same machine and run the same component
/// loop over it (every pipeline's unit table lowered at elaboration)
/// with the *same* per-cycle semantics, and produce bit-identical
/// [`SimResult`]s (cycle counts, per-cache statistics, memory contents,
/// error reports, profiles). Snapshot fingerprints exclude the
/// scheduler, so a snapshot taken under one restores under the other
/// and continues bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Tick every component and every unit every cycle, and refresh every
    /// channel — the reference model.
    Dense,
    /// Step every cycle like `Dense`, but skip work that is provably a
    /// no-op: datapath instances with no work-group in flight, components
    /// and units that cannot act, and channels nobody touched.
    ///
    /// Runs exactly like `Dense` while profiling is enabled: the profiler
    /// observes every unit once per simulated cycle.
    #[default]
    Fast,
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cache geometry/timing (per cache instance).
    pub cache: CacheConfig,
    /// External memory timing.
    pub dram: DramConfig,
    /// Number of datapath instances (from the resource model).
    pub num_instances: u32,
    /// Hard cycle budget.
    pub max_cycles: u64,
    /// Cycles without progress before reporting a deadlock. `0` (the
    /// default) derives the window from the machine itself — see
    /// [`crate::diag::derived_deadlock_window`] for the formula.
    pub deadlock_window: u64,
    /// Cycles without a single work-item retiring before reporting a
    /// livelock, even though tokens are still moving (an infinite loop
    /// looks like this). `0` (the default) = 64× the deadlock window.
    pub livelock_window: u64,
    /// Deterministic fault-injection schedule (empty = no faults).
    pub faults: FaultPlan,
    /// Promote the machine's internal debug assertions (unit capacity
    /// `≤ L_F + 1`, loop occupancy `≤ N_max`, work-group order at
    /// barriers) to structured [`SimError::InvariantViolation`] returns,
    /// checked every cycle. Off by default: the checks cost time and the
    /// invariants hold by construction in a fault-free machine.
    pub check_invariants: bool,
    /// Ablation: collapse all global accesses into one shared cache
    /// instead of one per (buffer × datapath) (§V-A).
    pub force_shared_cache: bool,
    /// Lower detected sliding-window read groups onto shift-register
    /// line buffers instead of cache ports (on by default). Results are
    /// bit-identical to the cache path in values — only cycles and
    /// memory-traffic statistics change. Ignored (no windows are lowered)
    /// when [`SimConfig::force_shared_cache`] is set or the kernel forces
    /// a shared cache (atomics / unattributable pointers).
    pub line_buffer: bool,
    /// Cycle-attribution profiling (`None` = off). When off, the per-unit
    /// counter vectors are never allocated and the per-cycle observation
    /// pass is skipped; simulated cycle counts are bit-identical either
    /// way (the profiler only observes).
    pub profile: Option<ProfileConfig>,
    /// Main-loop strategy (see [`Scheduler`]); results are bit-identical
    /// either way.
    pub scheduler: Scheduler,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cache: CacheConfig::default(),
            dram: DramConfig::default(),
            num_instances: 1,
            max_cycles: 2_000_000_000,
            deadlock_window: 0,
            livelock_window: 0,
            faults: FaultPlan::default(),
            check_invariants: false,
            force_shared_cache: false,
            line_buffer: true,
            profile: None,
            scheduler: Scheduler::default(),
        }
    }
}

/// A cooperative cancellation handle: cloneable, thread-safe, one-way.
///
/// The owner keeps one clone and hands another to
/// [`RunControl::cancel`]; calling [`CancelToken::cancel`] makes the
/// machine return [`SimError::Cancelled`] (with a resumable snapshot) at
/// the next poll point. Cancellation is level-triggered and permanent:
/// once set, every run observing the token stops.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Per-run budgets and cancellation, checked inside the run loop under
/// either scheduler. The default is unlimited (exactly the historical
/// behaviour of [`run`]).
///
/// Cycle deadlines are *deterministic*: the run stops before executing
/// the deadline cycle, so two runs with the same deadline stop at the
/// same machine state. Cancellation is polled every
/// [`RunControl::POLL_CYCLES`] simulated cycles and therefore stops at a
/// run-dependent cycle — which is harmless, because the snapshot carried
/// by the error resumes bit-identically from *any* cut point.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Cooperative cancellation (`None` = not cancellable).
    pub cancel: Option<CancelToken>,
    /// Absolute simulated-cycle deadline: the run returns
    /// [`SimError::DeadlineExceeded`] instead of executing this cycle.
    pub cycle_deadline: Option<u64>,
}

impl RunControl {
    /// How often (in simulated cycles) the cancel token is polled.
    pub const POLL_CYCLES: u64 = 1024;

    /// No budgets, no cancellation — the historical [`run`] behaviour.
    pub fn unlimited() -> RunControl {
        RunControl::default()
    }
}

/// An invalid simulator configuration, rejected before the clock starts.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The cache configuration describes an unbuildable geometry.
    Cache(soff_mem::CacheConfigError),
    /// A fault in [`SimConfig::faults`] targets a component the machine
    /// does not have (checked against the *actual* channel/cache counts
    /// at config time, instead of silently wrapping the index).
    Fault {
        /// Index of the offending fault within the plan.
        index: usize,
        /// What was out of range.
        what: String,
    },
    /// A snapshot was restored into a machine with a different identity
    /// (different kernel, geometry, fault plan, or configuration).
    SnapshotMismatch {
        /// Human-readable mismatch description.
        what: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Cache(e) => write!(f, "{e}"),
            ConfigError::Fault { index, what } => {
                write!(f, "fault {index} targets a missing component: {what}")
            }
            ConfigError::SnapshotMismatch { what } => {
                write!(f, "snapshot does not match this machine: {what}")
            }
        }
    }
}

impl From<soff_mem::CacheConfigError> for ConfigError {
    fn from(e: soff_mem::CacheConfigError) -> Self {
        ConfigError::Cache(e)
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A watchdog fired: no progress (or no retirement) for the
    /// configured window. The attached forensic report classifies the
    /// hang (cyclic wait / livelock / starvation / token loss) and names
    /// the culprit components.
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Structured forensics built from the frozen machine state.
        report: Box<DeadlockReport>,
    },
    /// The cycle budget ran out.
    Timeout {
        /// The configured budget.
        max_cycles: u64,
        /// The cycle at which the run was cut off (always equals
        /// `max_cycles`: the budget counts simulated cycles, so the run
        /// stops *before* executing cycle `max_cycles`).
        cycle: u64,
    },
    /// The configuration describes an unbuildable machine (bad cache
    /// geometry, out-of-range fault target, mismatched snapshot).
    Config(ConfigError),
    /// An internal machine invariant broke (only reported with
    /// [`SimConfig::check_invariants`], or on work-item over-retirement,
    /// which is always checked).
    InvariantViolation {
        /// Cycle of the violation.
        cycle: u64,
        /// Which invariant, and where.
        what: String,
    },
    /// Bad launch arguments.
    Args(InterpError),
    /// The run was cancelled via [`RunControl::cancel`]. Not a terminal
    /// failure: the snapshot resumes the run bit-identically.
    Cancelled {
        /// Cycle at which the run stopped (= the snapshot's cycle).
        cycle: u64,
        /// Resumable checkpoint of the full architectural state.
        snapshot: Box<Snapshot>,
    },
    /// The [`RunControl::cycle_deadline`] was reached. Not a terminal
    /// failure: the snapshot resumes the run bit-identically.
    DeadlineExceeded {
        /// Cycle at which the run stopped (= the snapshot's cycle).
        cycle: u64,
        /// Resumable checkpoint of the full architectural state.
        snapshot: Box<Snapshot>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, report } => {
                write!(f, "datapath made no progress after cycle {cycle}: {}", report.summary())
            }
            SimError::Timeout { max_cycles, cycle } => {
                write!(f, "cycle budget of {max_cycles} exhausted at cycle {cycle}")
            }
            SimError::Config(e) => write!(f, "invalid simulator configuration: {e}"),
            SimError::InvariantViolation { cycle, what } => {
                write!(f, "machine invariant violated at cycle {cycle}: {what}")
            }
            SimError::Args(e) => write!(f, "{e}"),
            SimError::Cancelled { cycle, .. } => {
                write!(f, "run cancelled at cycle {cycle} (resumable snapshot attached)")
            }
            SimError::DeadlineExceeded { cycle, .. } => {
                write!(f, "run deadline reached at cycle {cycle} (resumable snapshot attached)")
            }
        }
    }
}

impl Error for SimError {}

impl From<InterpError> for SimError {
    fn from(e: InterpError) -> Self {
        SimError::Args(e)
    }
}

/// Result of one simulated kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total cycles including the final cache flush.
    pub cycles: u64,
    /// Cycles until the last work-item retired.
    pub compute_cycles: u64,
    /// Work-items executed.
    pub retired: u64,
    /// Aggregated cache statistics.
    pub cache: CacheStats,
    /// Per-cache statistics, indexed like the configured machine's cache
    /// array (instance-major, buffer-group-minor; see
    /// [`crate::memsys::CachePlan::cache_index`]). Sums to `cache`.
    pub per_cache: Vec<CacheStats>,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Datapath instances configured. A fault-free launch builds only
    /// the first `min(num_instances, work-groups)`, the ones dispatch can
    /// reach; the per-component statistics still cover all of them.
    pub num_instances: u32,
    /// Cycles any functional unit's output was blocked by a full channel
    /// (Case-2 stalls, §IV-C).
    pub output_stalls: u64,
    /// Cycles memory units could not issue (Case-1 stalls: the unit was
    /// holding `L_F + 1` work-items, or its cache port was busy).
    pub issue_stalls: u64,
    /// Aggregated line-buffer statistics (all zero when no sliding
    /// window was lowered).
    pub line_buf: LineBufStats,
    /// Per-line-buffer statistics, indexed like the configured machine's
    /// line-buffer array (window-major: `window * num_instances +
    /// instance`). Sums to `line_buf`.
    pub per_line_buf: Vec<LineBufStats>,
    /// Full cycle-attribution profile (only when [`SimConfig::profile`]
    /// was set).
    pub profile: Option<Box<ProfileReport>>,
}

#[derive(Clone)]
pub(crate) enum Comp {
    Pipe(PipelineSim),
    Branch(Branch),
    Select(Select),
    Enter(LoopEnter),
    Exit(LoopExit),
    Barrier(BarrierUnit),
}

#[derive(Clone)]
struct Dispatcher {
    entry: ChanId,
    retire: ChanId,
    /// Current work-group being streamed: (serial, next local index).
    cur: Option<(u64, u64)>,
    /// In-flight work-groups → remaining work-items.
    active: HashMap<u32, u64>,
}

/// The complete mutable state of a machine: everything the clock loop
/// writes. [`Machine::snapshot`] clones this struct, deep except for the
/// caches' set chunks, which it shares copy-on-write (construction
/// from `(kernel, datapath, config, launch)` is deterministic, so the
/// static scaffolding — channel topology, unit wiring, port assignments —
/// never needs to be serialized; rebuilding it reproduces it exactly).
#[derive(Clone)]
struct MachineState {
    chans: Channels<Token>,
    comps: Vec<Comp>,
    fifos: Vec<DecisionFifo>,
    counters: Vec<u64>,
    dispatchers: Vec<Dispatcher>,
    mem: MemorySystem,
    profiler: Option<Profiler>,
    /// One-shot fault cursor (parallel to the plan's fault list).
    faults_fired: Vec<bool>,
    next_wg: u64,
    retired: u64,
    now: u64,
    last_metric: u64,
    last_progress: u64,
    last_retired: u64,
    last_retire_progress: u64,
}

impl MachineState {
    /// Ticks the datapath components for cycle `now`, instance by
    /// instance in component order (the order is load-bearing: loop
    /// counters and decision FIFOs are read and written within a cycle).
    ///
    /// With `skip` set, a component is skipped when it provably cannot
    /// act: its tick would only advance attribution counters, which
    /// nothing reads while the profiler is off. Each test reads what the
    /// component's own tick gates on (branch and select pop through
    /// `front()`, which ignores jamming, so their tests do too). With
    /// `skip_idle` set, an instance with no work-group in flight holds no
    /// tokens and is skipped whole.
    fn tick_comps(&mut self, launch: &LaunchCtx, skip: bool, skip_idle: bool) {
        let (now, chans) = (self.now, &mut self.chans);
        let per_inst = self.comps.len() / self.dispatchers.len();
        for (inst, d) in self.comps.chunks_mut(per_inst).zip(&self.dispatchers) {
            if skip_idle && d.active.is_empty() {
                continue;
            }
            for comp in inst {
                match comp {
                    Comp::Pipe(p) => {
                        if skip && p.quiescent(chans) {
                            continue;
                        }
                        p.tick(now, chans, &mut self.mem, launch, !skip);
                    }
                    Comp::Branch(x) => {
                        if skip && chans[x.inp.0].front().is_none() {
                            continue;
                        }
                        x.tick(chans, &mut self.fifos);
                    }
                    Comp::Select(x) => {
                        if skip
                            && chans[x.from_taken.0].front().is_none()
                            && chans[x.from_not_taken.0].front().is_none()
                        {
                            continue;
                        }
                        x.tick(chans, &mut self.fifos);
                    }
                    Comp::Enter(x) => {
                        if skip
                            && (!chans[x.out.0].can_push()
                                || (!chans[x.backedge.0].can_pop()
                                    && chans[x.outside.0].front().is_none()))
                        {
                            continue;
                        }
                        x.tick(chans, &mut self.counters);
                    }
                    Comp::Exit(x) => {
                        if skip && (!chans[x.inp.0].can_pop() || !chans[x.out.0].can_push()) {
                            continue;
                        }
                        x.tick(chans, &mut self.counters);
                    }
                    Comp::Barrier(x) => {
                        // Input available, a full group waiting to start
                        // its release, or a release in progress with room
                        // downstream.
                        let can_act = chans[x.inp.0].can_pop()
                            || (x.releasing == 0 && x.buf.len() as u64 >= x.wg_size)
                            || (x.releasing > 0 && chans[x.out.0].can_push());
                        if skip && !can_act {
                            continue;
                        }
                        x.tick(chans);
                    }
                }
            }
        }
    }
}

/// A resumable checkpoint of a [`Machine`] plus the global memory it was
/// mutating: channels, unit latches, glue, MSHRs, caches, barrier and
/// work-group state, fault-plan cursor, watchdog timers, profiler
/// counters, and an image of global memory. The image is copy-on-write
/// per buffer ([`GlobalMemory`]): taking it copies buffer handles, and a
/// buffer's bytes are copied only when the running machine next writes
/// that buffer. Cache sets are shared the same way in chunks of 64 sets
/// ([`soff_mem::Cache`]), so a snapshot costs the buffers and chunks the
/// running machine writes next; the rest of the state is deep-copied.
///
/// Restoring a snapshot into a machine built from the same kernel,
/// datapath, launch, and configuration (checked via a structural
/// fingerprint) and running to completion is bit-identical to the
/// uninterrupted run — same [`SimResult`], same per-cache statistics,
/// same forensics, same profile, same memory bytes.
#[derive(Clone)]
pub struct Snapshot {
    fingerprint: u64,
    st: MachineState,
    gm: GlobalMemory,
}

impl Snapshot {
    /// The simulated cycle the snapshot was taken at (the next cycle to
    /// execute after a restore).
    pub fn cycle(&self) -> u64 {
        self.st.now
    }

    /// Work-items retired at the snapshot point.
    pub fn retired(&self) -> u64 {
        self.st.retired
    }
}

/// Snapshots compare by identity (machine fingerprint + clock position +
/// dispatch/retire progress), not by deep state: two snapshots of the
/// same machine at the same cycle are interchangeable because the cycle
/// function is deterministic.
impl PartialEq for Snapshot {
    fn eq(&self, other: &Snapshot) -> bool {
        self.fingerprint == other.fingerprint
            && self.st.now == other.st.now
            && self.st.retired == other.st.retired
            && self.st.next_wg == other.st.next_wg
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("cycle", &self.st.now)
            .field("retired", &self.st.retired)
            .field("next_wg", &self.st.next_wg)
            .finish_non_exhaustive()
    }
}

/// Runs `kernel`'s datapath `dp` over `nd` against `gm` to completion
/// with no budgets and no cancellation.
///
/// # Errors
///
/// See [`SimError`].
pub fn run(
    kernel: &Kernel,
    dp: &Datapath,
    cfg: &SimConfig,
    nd: NdRange,
    args: &[ArgValue],
    gm: &mut GlobalMemory,
) -> Result<SimResult, SimError> {
    Machine::new(kernel, dp, cfg, nd, args)?.run(gm)
}

/// A built, steppable machine: the construction/execution split behind
/// [`run`]. Use it directly to checkpoint ([`Machine::snapshot`]),
/// resume ([`Machine::restore`]), or run under budgets
/// ([`Machine::run_with`]). It owns everything it needs, so it can
/// outlive the kernel and datapath it was built from.
pub struct Machine {
    kernel_name: String,
    /// Work-group slots per datapath instance ([`Datapath::wg_slots`]).
    wg_slots: u64,
    cfg: SimConfig,
    launch: LaunchCtx,
    /// Human-readable name per component (parallel to `st.comps`).
    metas: Vec<String>,
    total: u64,
    num_wgs: u64,
    wg_size: u64,
    gate_wgs: bool,
    deadlock_window: u64,
    livelock_window: u64,
    /// Skipping enabled: scheduler = Fast and the profiler off.
    skip: bool,
    fingerprint: u64,
    /// The configured machine's component counts, every instance built.
    configured: Counts,
    st: MachineState,
}

/// Channel, cache and line-buffer counts: what fault plans index and
/// what [`SimResult`]'s per-component statistics are laid out by.
struct Counts {
    chans: usize,
    caches: usize,
    line_bufs: usize,
}

impl Machine {
    /// Builds the machine for one launch, validating the configuration
    /// (cache geometry, launch geometry, fault-plan component targets).
    /// Without a fault plan only the datapath instances dispatch can
    /// reach are built (see [`SimResult::num_instances`]).
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] / [`SimError::Args`] on invalid
    /// configuration or launch.
    pub fn new(
        kernel: &Kernel,
        dp: &Datapath,
        cfg: &SimConfig,
        nd: NdRange,
        args: &[ArgValue],
    ) -> Result<Machine, SimError> {
        cfg.cache.validate().map_err(|e| SimError::Config(e.into()))?;
        // Work-item and work-group serials are carried in 32-bit token
        // fields; a launch that cannot be represented must be rejected up
        // front instead of silently truncating ids (which would alias
        // distinct work-items onto the same serial).
        let total_wi = nd.total_work_items();
        if total_wi == 0 || nd.work_group_size() == 0 {
            return Err(SimError::Args(InterpError::BadArguments(
                "launch geometry has zero work-items or a zero work-group size".into(),
            )));
        }
        if total_wi > 1 << 32 {
            return Err(SimError::Args(InterpError::BadArguments(format!(
                "launch of {total_wi} work-items exceeds the 2^32 work-item id space"
            ))));
        }
        let launch = LaunchCtx::bind(kernel, nd, args)?;
        let pa = pointer::analyze(kernel);
        let mut plan = CachePlan::plan(kernel, &pa);
        if cfg.force_shared_cache && plan.num_groups > 0 {
            for g in plan.group_of_value.iter_mut().flatten() {
                *g = 0;
            }
            plan.num_groups = 1;
            plan.shared = true;
        }
        let n_inst = cfg.num_instances.max(1) as usize;
        let num_wgs = nd.num_groups();
        // The dispatcher (§III-B) hands each idle instance one work-group
        // at cycle 0, in instance order, so a fault-free launch never
        // reaches an instance past its work-group count; only those are
        // built. A fault plan can jam an entry channel and push dispatch
        // further along, so it gets every configured instance.
        let built = if cfg.faults.is_empty() {
            n_inst.min(usize::try_from(num_wgs).unwrap_or(usize::MAX))
        } else {
            n_inst
        };
        let mut mem = MemorySystem::build(kernel, dp, &plan, built, cfg.cache, cfg.dram, &launch);

        // Sliding-window lowering (§13 of DESIGN.md): detected affine
        // window groups whose launch-time span fits the shift register are
        // served by line buffers instead of cache ports. Shared-cache
        // machines keep every access on the caches — a window group there
        // would split the coherence point the sharing exists for.
        let windows: Vec<SlidingWindow> =
            if cfg.line_buffer && !cfg.force_shared_cache && !plan.shared {
                window::detect(kernel)
                    .into_iter()
                    .filter(|w| {
                        w.span_bytes(kernel, &launch.params) <= window::DEFAULT_SPAN_CAP
                    })
                    .collect()
            } else {
                Vec::new()
            };
        for w in &windows {
            // The window's buffer base tells the unit its streamable
            // extent; requests outside it are boundary taps.
            let base = launch.params[w.param];
            for _ in 0..built {
                mem.line_bufs.push(LineBuffer::new(LineBufConfig::default(), base));
            }
        }
        let mut window_of_value: HashMap<ValueId, usize> = HashMap::new();
        for (wi, w) in windows.iter().enumerate() {
            for l in &w.loads {
                window_of_value.insert(l.value, wi);
            }
        }

        let mut b = Builder {
            k: kernel,
            dp,
            launch: &launch,
            plan: &plan,
            pa: &pa,
            mem: &mut mem,
            chans: Channels::default(),
            codes: vec![None; dp.basics.len()],
            maps: RefCell::default(),
            comps: Vec::new(),
            metas: Vec::new(),
            fifos: Vec::new(),
            counters: Vec::new(),
            local_next_port: vec![0; kernel.local_vars.len() * built],
            inst: 0,
            n_inst: built,
            nvars: kernel.local_vars.len(),
            wg_size: launch.wg_size(),
            profile: cfg.profile.is_some(),
            window_of_value: &window_of_value,
        };

        let root = dp.root.clone();
        let mut dispatchers = Vec::with_capacity(built);
        for inst in 0..built {
            b.inst = inst;
            let entry = b.new_chan(2);
            let retire = b.new_chan(4);
            debug_assert!(
                b.live_in_sig(dp.root_entry_block()).is_empty(),
                "entry block must have an empty live-in signature"
            );
            b.build_node(&root, entry, retire, None)?;
            dispatchers.push(Dispatcher { entry, retire, cur: None, active: HashMap::new() });
        }

        let Builder { chans, comps, fifos, counters, metas, .. } = b;
        // Every channel and component belongs to one instance, and all
        // instances are wired alike.
        debug_assert_eq!(comps.len() % built, 0, "instances are built alike");
        let configured = Counts {
            chans: chans.len() / built * n_inst,
            caches: plan.total_caches(n_inst),
            line_bufs: windows.len() * n_inst,
        };

        // Config-time fault validation: every fault must target a
        // component this machine actually has (see `FaultPlan::validate`).
        cfg.faults
            .validate(chans.len(), mem.caches.len(), mem.line_bufs.len())
            .map_err(SimError::Config)?;

        let profiler = cfg.profile.map(|pcfg| {
            Profiler::new(
                pcfg,
                chans.len(),
                metas.clone(),
                profile::cache_labels(&plan, mem.caches.len()),
                profile::line_buf_labels(windows.len(), built),
            )
        });

        let total = launch.total_work_items();
        let wg_size = launch.wg_size();
        let gate_wgs = kernel.uses_local;
        let (deadlock_window, livelock_window) =
            diag::effective_windows(cfg, dp.l_datapath, wg_size);
        // Fast degenerates to dense stepping while the profiler is on: it
        // observes every unit once per simulated cycle.
        let skip = cfg.scheduler == Scheduler::Fast && cfg.profile.is_none();

        // The identity a snapshot must match to be restorable here:
        // kernel, machine topology, launch shape, and every configuration
        // field that influences state evolution. `max_cycles`,
        // `check_invariants`, and the scheduler are deliberately NOT part
        // of the identity — a resumed run may extend the budget, toggle
        // checking, or switch scheduler without changing the semantics
        // (the schedulers are bit-identical by construction).
        let fingerprint = soff_obs::fnv1a(
            soff_obs::FNV_OFFSET,
            format!(
                "{}|chans={}|comps={}|fifos={}|counters={}|caches={}|linebufs={}|\
                 locals={}|cache={:?}|dram={:?}|inst={}|dw={}|lw={}|faults={:?}|\
                 shared={}|lb={}|profile={:?}|total={}|wgs={}|wg={}",
                kernel.name,
                chans.len(),
                comps.len(),
                fifos.len(),
                counters.len(),
                mem.caches.len(),
                mem.line_bufs.len(),
                mem.locals.len(),
                cfg.cache,
                cfg.dram,
                n_inst,
                deadlock_window,
                livelock_window,
                cfg.faults,
                cfg.force_shared_cache,
                cfg.line_buffer,
                cfg.profile,
                total,
                num_wgs,
                wg_size,
            )
            .as_bytes(),
        );

        let faults_fired = vec![false; cfg.faults.faults.len()];
        Ok(Machine {
            kernel_name: kernel.name.clone(),
            wg_slots: dp.wg_slots,
            cfg: cfg.clone(),
            launch,
            metas,
            total,
            num_wgs,
            wg_size,
            gate_wgs,
            deadlock_window,
            livelock_window,
            skip,
            fingerprint,
            configured,
            st: MachineState {
                chans,
                comps,
                fifos,
                counters,
                dispatchers,
                mem,
                profiler,
                faults_fired,
                next_wg: 0,
                retired: 0,
                now: 0,
                last_metric: u64::MAX,
                last_progress: 0,
                last_retired: u64::MAX,
                last_retire_progress: 0,
            },
        })
    }

    /// The simulated cycle the machine is at (the next cycle to execute).
    pub fn cycle(&self) -> u64 {
        self.st.now
    }

    /// Work-items retired so far.
    pub fn retired(&self) -> u64 {
        self.st.retired
    }

    /// Number of inter-component channels of the configured machine
    /// (fault plans index into this), even where a fault-free launch
    /// builds fewer instances.
    pub fn num_channels(&self) -> usize {
        self.configured.chans
    }

    /// Number of cache instances of the configured machine (fault plans
    /// index into this).
    pub fn num_caches(&self) -> usize {
        self.configured.caches
    }

    /// Number of line buffers of the configured machine (fault plans
    /// index into this). Zero unless sliding windows were detected,
    /// gated, and lowered for this launch.
    pub fn num_line_bufs(&self) -> usize {
        self.configured.line_bufs
    }

    /// Captures the complete architectural state plus a copy-on-write
    /// image of `gm`. `gm` must be the global memory the machine has been
    /// running against (the snapshot stores it so a restore is
    /// self-contained).
    pub fn snapshot(&self, gm: &GlobalMemory) -> Snapshot {
        Snapshot { fingerprint: self.fingerprint, st: self.st.clone(), gm: gm.clone() }
    }

    /// Reinstates a snapshot taken from a machine with the same identity
    /// (same kernel, datapath, launch, and configuration), overwriting
    /// this machine's state with the checkpointed copy and rolling `gm`
    /// back to the snapshot's image ([`GlobalMemory::rollback_to`]):
    /// buffers allocated after the snapshot keep their ids and bytes.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] with [`ConfigError::SnapshotMismatch`] when
    /// the snapshot's fingerprint does not match this machine (stale or
    /// foreign snapshot).
    pub fn restore(&mut self, snap: &Snapshot, gm: &mut GlobalMemory) -> Result<(), SimError> {
        if snap.fingerprint != self.fingerprint {
            return Err(SimError::Config(ConfigError::SnapshotMismatch {
                what: format!(
                    "snapshot fingerprint {:016x} != machine fingerprint {:016x} \
                     (kernel `{}`)",
                    snap.fingerprint, self.fingerprint, self.kernel_name
                ),
            }));
        }
        self.st = snap.st.clone();
        gm.rollback_to(&snap.gm);
        Ok(())
    }

    /// Runs to completion with no budgets ([`RunControl::unlimited`]).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&mut self, gm: &mut GlobalMemory) -> Result<SimResult, SimError> {
        self.run_with(gm, &RunControl::unlimited())
    }

    /// Runs the clock until completion, failure, or a [`RunControl`]
    /// stop (cancellation / deadline). A budget stop leaves the machine
    /// at the cut and carries a [`Snapshot`] of it: calling `run_with`
    /// again on this machine, or restoring the snapshot into a freshly
    /// built identical one first, continues the run bit-identically.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_with(
        &mut self,
        gm: &mut GlobalMemory,
        ctl: &RunControl,
    ) -> Result<SimResult, SimError> {
        let polled = ctl.cancel.is_some();
        let mut next_poll = self.st.now;
        loop {
            if self.st.now >= self.cfg.max_cycles {
                // The budget counts simulated cycles: cycles
                // 0..max_cycles-1 may execute, cycle max_cycles may not.
                return Err(SimError::Timeout {
                    max_cycles: self.cfg.max_cycles,
                    cycle: self.st.now,
                });
            }
            if let Some(d) = ctl.cycle_deadline {
                // Deterministic cut: stop *before* executing cycle `d`,
                // so the snapshot is the state after cycle d-1 — exactly
                // the state an uninterrupted run passes through.
                if self.st.now >= d {
                    return Err(SimError::DeadlineExceeded {
                        cycle: self.st.now,
                        snapshot: Box::new(self.snapshot(gm)),
                    });
                }
            }
            if polled && self.st.now >= next_poll {
                next_poll = self.st.now + RunControl::POLL_CYCLES;
                if ctl.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    return Err(SimError::Cancelled {
                        cycle: self.st.now,
                        snapshot: Box::new(self.snapshot(gm)),
                    });
                }
            }
            match self.step(gm) {
                Step::Continue => {}
                Step::Done(r) => return Ok(r),
                Step::Fail(e) => return Err(e),
            }
        }
    }

    /// Executes one simulated cycle.
    fn step(&mut self, gm: &mut GlobalMemory) -> Step {
        let now = self.st.now;
        if self.skip {
            self.st.chans.begin_cycle();
        } else {
            self.st.chans.begin_cycle_all();
        }
        if !self.cfg.faults.is_empty() {
            fault::apply(
                &self.cfg.faults,
                &mut self.st.faults_fired,
                now,
                &mut self.st.chans,
                &mut self.st.mem,
            );
        }
        // Work-item dispatcher (§III-B): one work-item per cycle per
        // datapath, work-groups streamed contiguously.
        for d in &mut self.st.dispatchers {
            if !self.st.chans[d.entry.0].can_push() {
                continue;
            }
            if d.cur.is_none()
                && self.st.next_wg < self.num_wgs
                && (!self.gate_wgs || (d.active.len() as u64) < self.wg_slots)
            {
                d.cur = Some((self.st.next_wg, 0));
                d.active.insert(self.st.next_wg as u32, self.wg_size);
                if let Some(p) = self.st.profiler.as_mut() {
                    p.wg_dispatched(self.st.next_wg as u32, now);
                }
                self.st.next_wg += 1;
            }
            if let Some((wg, lid)) = &mut d.cur {
                let wi = (*wg * self.wg_size + *lid) as u32;
                self.st.chans.push(d.entry.0, Token { wi, wg: *wg as u32, vals: Box::new([]) });
                *lid += 1;
                if *lid == self.wg_size {
                    d.cur = None;
                }
            }
        }
        // Datapath components. Token-loss and duplication faults break the
        // in-flight accounting instance skipping relies on, so under any
        // fault plan every instance runs.
        let skip_idle = self.skip && self.cfg.faults.is_empty();
        self.st.tick_comps(&self.launch, self.skip, skip_idle);
        // Line buffers are memory components; the profiler classifies
        // each one's cycle from its state before the memory tick.
        if let Some(p) = self.st.profiler.as_mut() {
            p.observe_line_bufs(&self.st.mem);
        }
        // Memory subsystem.
        self.st.mem.tick(now, gm);
        // Work-item counter (§III-B).
        for d in &mut self.st.dispatchers {
            while self.st.chans[d.retire.0].can_pop() {
                let tok = self.st.chans.pop(d.retire.0);
                self.st.retired += 1;
                self.st.mem.private.release(tok.wi);
                // A retirement for a work-group that already completed
                // means a token was duplicated somewhere; always checked
                // (the global `retired > total` check below cannot see it,
                // because the run would terminate at `total` first).
                match d.active.get_mut(&tok.wg) {
                    Some(rem) => {
                        *rem -= 1;
                        if *rem == 0 {
                            d.active.remove(&tok.wg);
                            if let Some(p) = self.st.profiler.as_mut() {
                                p.wg_completed(tok.wg, now);
                            }
                        }
                    }
                    None => {
                        return Step::Fail(SimError::InvariantViolation {
                            cycle: now,
                            what: format!(
                                "work-item {} of work-group {} retired after the \
                                 group already completed (duplicated token)",
                                tok.wi, tok.wg
                            ),
                        });
                    }
                }
            }
        }
        // Over-retirement means corrupted work-item accounting (reachable
        // only under token-duplication faults); always checked.
        if self.st.retired > self.total {
            return Step::Fail(SimError::InvariantViolation {
                cycle: now,
                what: format!(
                    "{} work-items retired but only {} were launched",
                    self.st.retired, self.total
                ),
            });
        }
        if self.cfg.check_invariants {
            if let Some(what) = check_invariants(&self.st, &self.metas, now) {
                return Step::Fail(SimError::InvariantViolation { cycle: now, what });
            }
        }

        if let Some(p) = self.st.profiler.as_mut() {
            p.observe(now, &self.st.chans, &self.st.comps, &self.st.mem, self.st.retired);
        }

        if self.st.retired == self.total {
            let done = self.st.mem.flush_all(now);
            let (output_stalls, issue_stalls) = self
                .st
                .comps
                .iter()
                .filter_map(|c| match c {
                    Comp::Pipe(p) => Some((p.stats.output_stalls, p.stats.issue_stalls)),
                    _ => None,
                })
                .fold((0, 0), |(o, i), (po, pi)| (o + po, i + pi));
            let profile = self.st.profiler.take().map(|p| {
                Box::new(p.finish(
                    self.kernel_name.clone(),
                    &self.st.comps,
                    &self.st.mem,
                    &self.st.chans,
                    now,
                    done,
                ))
            });
            // Unbuilt instances pad the per-component statistics with
            // zeros, in the configured machine's layouts: caches are
            // instance-major, so the built ones are a prefix; line
            // buffers are window-major.
            let mut per_cache = self.st.mem.per_cache_stats();
            per_cache.resize(self.configured.caches, CacheStats::default());
            let built = self.st.dispatchers.len();
            let unbuilt = self.cfg.num_instances.max(1) as usize - built;
            let per_line_buf = self
                .st
                .mem
                .per_lb_stats()
                .chunks(built)
                .flat_map(|w| {
                    w.iter().copied().chain(std::iter::repeat_n(LineBufStats::default(), unbuilt))
                })
                .collect();
            return Step::Done(SimResult {
                cycles: done,
                compute_cycles: now,
                retired: self.st.retired,
                cache: self.st.mem.cache_stats(),
                per_cache,
                dram: self.st.mem.dram.stats,
                num_instances: self.cfg.num_instances.max(1),
                output_stalls,
                issue_stalls,
                line_buf: self.st.mem.lb_stats(),
                per_line_buf,
                profile,
            });
        }

        // Progress / deadlock detection. Two watchdogs: the progress
        // watchdog (no token moved anywhere) and the retire-progress
        // watchdog (tokens move but nothing ever finishes — a livelock).
        // The progress metric sums counters that only grow — work-items
        // retired, channel pushes, requests accepted by caches and line
        // buffers — each kept current as its events happen.
        let metric = self.st.retired + self.st.chans.pushes() + self.st.mem.accesses();
        if metric != self.st.last_metric {
            self.st.last_metric = metric;
            self.st.last_progress = now;
        } else if self.st.mem.has_pending_events(now) {
            // Memory has responses scheduled for future cycles: the
            // machine is slow, not stuck (e.g. a DRAM latency spike).
            self.st.last_progress = now;
        }
        if self.st.retired != self.st.last_retired {
            self.st.last_retired = self.st.retired;
            self.st.last_retire_progress = now;
        }
        let fired = if now - self.st.last_progress > self.deadlock_window {
            Some((self.st.last_progress, false))
        } else if now - self.st.last_retire_progress > self.livelock_window {
            Some((self.st.last_retire_progress, true))
        } else {
            None
        };
        if let Some((stalled_since, tokens_flowing)) = fired {
            let report = diag::build_report(&diag::MachineView {
                chans: &self.st.chans,
                comps: &self.st.comps,
                metas: &self.metas,
                counters: &self.st.counters,
                fifos: &self.st.fifos,
                mem: &self.st.mem,
                dispatchers: self
                    .st
                    .dispatchers
                    .iter()
                    .map(|d| diag::DispatcherView {
                        entry: d.entry.0,
                        retire: d.retire.0,
                        pending: d.cur.is_some() || self.st.next_wg < self.num_wgs,
                        slots_full: self.gate_wgs
                            && (d.active.len() as u64) >= self.wg_slots,
                        active: {
                            let mut a: Vec<(u32, u64)> =
                                d.active.iter().map(|(&wg, &rem)| (wg, rem)).collect();
                            a.sort_unstable();
                            a
                        },
                    })
                    .collect(),
                retired: self.st.retired,
                total: self.total,
                stalled_since,
                tokens_flowing,
            });
            // The legacy SOFF_SIM_DEBUG dump is now a thin wrapper over
            // the structured report.
            if std::env::var_os("SOFF_SIM_DEBUG").is_some() {
                eprintln!("{report}");
            }
            return Step::Fail(SimError::Deadlock {
                cycle: stalled_since,
                report: Box::new(report),
            });
        }

        self.st.now = now + 1;
        Step::Continue
    }
}

/// Outcome of one [`Machine::step`].
// `Done` is built exactly once per simulation, so the size gap is moot.
#[allow(clippy::large_enum_variant)]
enum Step {
    Continue,
    Done(SimResult),
    Fail(SimError),
}

/// Per-cycle invariant sweep ([`SimConfig::check_invariants`]): the debug
/// assertions of the fault-free machine, promoted to structured errors.
fn check_invariants(st: &MachineState, metas: &[String], now: u64) -> Option<String> {
    let (comps, counters, mem) = (&st.comps, &st.counters, &st.mem);
    // The watchdog's incremental progress counters against a recount.
    let pushes: u64 = st.chans.iter().map(|c| c.total).sum();
    if pushes != st.chans.pushes() {
        return Some(format!(
            "channel push counter {} diverged from the recount {pushes}",
            st.chans.pushes()
        ));
    }
    let accesses = mem.cache_stats().accesses + mem.lb_stats().accesses;
    if accesses != mem.accesses() {
        return Some(format!(
            "memory access counter {} diverged from the recount {accesses}",
            mem.accesses()
        ));
    }
    for (i, c) in mem.caches.iter().enumerate() {
        if !c.mshr_counter_consistent(now) {
            return Some(format!(
                "cache {i}: incremental MSHR occupancy counter diverged from the \
                 in-flight recount"
            ));
        }
    }
    for (ci, comp) in comps.iter().enumerate() {
        let name = || {
            metas.get(ci).cloned().unwrap_or_else(|| format!("comp {ci}"))
        };
        match comp {
            Comp::Pipe(p) => {
                if let Some(what) = p.check_capacity_invariant() {
                    return Some(format!("{}: {what}", name()));
                }
            }
            Comp::Enter(e) if counters[e.counter] > e.nmax => {
                return Some(format!(
                    "{}: loop occupancy {} exceeds N_max {}",
                    name(),
                    counters[e.counter],
                    e.nmax
                ));
            }
            Comp::Exit(x) if x.underflow => {
                return Some(format!(
                    "{}: work-item left the loop with occupancy already zero \
                     (duplicated token?)",
                    name()
                ));
            }
            Comp::Barrier(b) if b.order_violation => {
                return Some(format!(
                    "{}: barrier release window mixed work-groups \
                     (work-group order violated upstream)",
                    name()
                ));
            }
            _ => {}
        }
    }
    None
}

/// Extension used by the machine: the entry block of the datapath root.
trait RootEntry {
    fn root_entry_block(&self) -> BlockId;
}

impl RootEntry for Datapath {
    fn root_entry_block(&self) -> BlockId {
        entry_of(&self.root, &self.basics)
    }
}

fn entry_of(node: &PipeNode, basics: &[soff_datapath::BasicPipeline]) -> BlockId {
    match node {
        PipeNode::Basic(i) => basics[*i].dfg.block,
        PipeNode::Seq(cs) => cs
            .iter()
            .find(|c| !matches!(c, PipeNode::Barrier { .. }))
            .map(|c| entry_of(c, basics))
            .expect("sequence with only barriers"),
        PipeNode::IfThen { cond, .. } | PipeNode::IfThenElse { cond, .. } => {
            basics[*cond].dfg.block
        }
        PipeNode::While { cond, .. } => basics[*cond].dfg.block,
        PipeNode::SelfLoop { body, .. } => entry_of(body, basics),
        PipeNode::Barrier { .. } => panic!("barrier has no entry block"),
    }
}

struct Builder<'a> {
    k: &'a Kernel,
    dp: &'a Datapath,
    launch: &'a LaunchCtx,
    plan: &'a CachePlan,
    pa: &'a pointer::PointerAnalysis,
    mem: &'a mut MemorySystem,
    chans: Channels<Token>,
    /// Each basic pipeline's unit table, lowered by its first instance
    /// and shared by the rest.
    codes: Vec<Option<Arc<PipeCode>>>,
    /// Glue mappings per CFG edge (see `map_edge`).
    maps: RefCell<HashMap<(BlockId, Option<BlockId>), Mapping>>,
    comps: Vec<Comp>,
    /// Human-readable name per component (parallel to `comps`), consumed
    /// by the deadlock forensics to name culprits.
    metas: Vec<String>,
    fifos: Vec<DecisionFifo>,
    counters: Vec<u64>,
    local_next_port: Vec<usize>,
    inst: usize,
    /// Instances built, which may be fewer than configured.
    n_inst: usize,
    nvars: usize,
    wg_size: u64,
    /// Allocate per-unit cycle-attribution counters in the pipelines.
    profile: bool,
    /// Loads served by a line buffer: value → window index (window-major
    /// indexing into `MemorySystem::line_bufs` with `n_inst`).
    window_of_value: &'a HashMap<ValueId, usize>,
}

/// Capacity of plain inter-pipeline channels (a registered handshake plus
/// one skid slot).
const GLUE_CAP: usize = 2;

impl<'a> Builder<'a> {
    fn new_chan(&mut self, cap: usize) -> ChanId {
        self.chans.add(cap)
    }

    fn push_comp(&mut self, c: Comp, label: String) {
        self.comps.push(c);
        self.metas.push(label);
    }

    fn basic_idx(&self, b: BlockId) -> usize {
        self.dp.basic_of_block[&b]
    }

    fn live_in_sig(&self, b: BlockId) -> &[ValueId] {
        &self.dp.basics[self.basic_idx(b)].dfg.live_in
    }

    fn live_out_sig(&self, b: BlockId) -> &[ValueId] {
        &self.dp.basics[self.basic_idx(b)].dfg.live_out
    }

    /// Mapping for CFG edge `p → s` (`None` = kernel exit: empty token),
    /// computed by the first instance and copied by the rest.
    fn map_edge(&self, p: BlockId, s: Option<BlockId>) -> Result<Mapping, SimError> {
        let mut maps = self.maps.borrow_mut();
        if let Some(map) = maps.get(&(p, s)) {
            return Ok(map.clone());
        }
        let map = match s {
            None => Mapping { slots: Vec::new(), identity: false },
            Some(s) => edge_mapping(
                self.k,
                p,
                self.live_out_sig(p),
                s,
                self.live_in_sig(s),
                &self.launch.params,
            )?,
        };
        maps.insert((p, s), map.clone());
        Ok(map)
    }

    /// Builds the pipeline for block-index `bidx`. Its sink maps onto the
    /// live-in of `succ` (`Some(None)`: the kernel exit's empty token), or
    /// with `succ == None` emits the raw live-out signature for a branch
    /// glue.
    fn build_basic(
        &mut self,
        bidx: usize,
        in_chan: ChanId,
        out_chan: ChanId,
        succ: Option<Option<BlockId>>,
    ) -> Result<(), SimError> {
        let block = self.dp.basics[bidx].dfg.block;
        let code = match &self.codes[bidx] {
            Some(code) => Arc::clone(code),
            None => {
                let map = succ.map(|s| self.map_edge(block, s)).transpose()?;
                let bp = &self.dp.basics[bidx];
                let code =
                    Arc::new(PipeCode::build(self.k, bp, map.as_ref(), &self.launch.params)?);
                self.codes[bidx] = Some(Arc::clone(&code));
                code
            }
        };
        let k = self.k;
        let plan = self.plan;
        let pa = self.pa;
        let inst = self.inst;
        let n_inst = self.n_inst;
        let nvars = self.nvars;
        let windows = self.window_of_value;
        let mem = &mut *self.mem;
        let local_next_port = &mut self.local_next_port;
        let pipe = PipelineSim::new(code, in_chan, out_chan, self.profile, |v| {
            let (space, addr) = match &k.instr(v).kind {
                InstKind::Load { space, addr, .. }
                | InstKind::Store { space, addr, .. }
                | InstKind::Atomic { space, addr, .. } => (*space, *addr),
                other => panic!("memory port for non-memory {other:?}"),
            };
            use soff_frontend::types::AddressSpace;
            match space {
                AddressSpace::Global | AddressSpace::Constant => {
                    // Window loads route to the group's line buffer; the
                    // group's cache stays built but portless (the inert
                    // cache preserves fault-plan and statistics indices —
                    // synthesis would elide it).
                    if let Some(&w) = windows.get(&v) {
                        let idx = w * n_inst + inst;
                        let port = mem.line_bufs[idx].add_port();
                        (MemTarget::LineBuf(idx), port)
                    } else {
                        let g = plan.group_of_value[v.0 as usize]
                            .expect("global access without cache group");
                        let idx = plan.cache_index(g, inst);
                        let port = mem.caches[idx].add_port();
                        (MemTarget::Cache(idx), port)
                    }
                }
                AddressSpace::Local => {
                    let var = match pa.of(addr) {
                        Provenance::Local(var) => var,
                        other => panic!(
                            "local access {v} has imprecise provenance {other:?}; \
                             SOFF requires each unit to connect to one local block"
                        ),
                    };
                    let idx = inst * nvars + var;
                    let port = PortId(local_next_port[idx]);
                    local_next_port[idx] += 1;
                    (MemTarget::Local(idx), port)
                }
                AddressSpace::Private => {
                    let port = mem.add_private_port();
                    (MemTarget::Private, port)
                }
            }
        });
        let label = format!("pipeline {} (inst {})", block, self.inst);
        self.push_comp(Comp::Pipe(pipe), label);
        Ok(())
    }

    /// Builds `node`, consuming tokens from `in_chan` (signature =
    /// live-in of the node's entry block) and producing tokens on
    /// `out_chan` (signature = live-in of `succ`, or empty for the kernel
    /// exit).
    fn build_node(
        &mut self,
        node: &PipeNode,
        in_chan: ChanId,
        out_chan: ChanId,
        succ: Option<BlockId>,
    ) -> Result<(), SimError> {
        match node {
            PipeNode::Basic(i) => self.build_basic(*i, in_chan, out_chan, Some(succ))?,
            PipeNode::Seq(children) => self.build_seq(children, in_chan, out_chan, succ)?,
            PipeNode::Barrier { .. } => {
                // Standalone barrier in a sequence is handled by build_seq.
                unreachable!("barrier outside a sequence")
            }
            PipeNode::IfThen { cond, then, order_fifo } => {
                let b = self.dp.basics[*cond].dfg.block;
                let raw = self.new_chan(GLUE_CAP);
                self.build_basic(*cond, in_chan, raw, None)?;
                let then_entry = entry_of(then, &self.dp.basics);
                let then_in = self.new_chan(GLUE_CAP);
                let sel_t = self.new_chan(GLUE_CAP);
                let sel_f = self.new_chan(GLUE_CAP);
                let then_cap = then.max_capacity(&self.dp.basics);
                let decisions = if *order_fifo { Some(self.new_fifo(then_cap)) } else { None };
                self.push_comp(
                    Comp::Branch(Branch {
                        inp: raw,
                        cond_idx: self.cond_index(b),
                        taken: (then_in, self.map_edge(b, Some(then_entry))?),
                        not_taken: (sel_f, self.map_edge(b, succ)?),
                        decisions,
                        cycles: CycleBreakdown::default(),
                    }),
                    format!("branch {b} (inst {})", self.inst),
                );
                self.build_node(then, then_in, sel_t, succ)?;
                self.push_comp(
                    Comp::Select(Select {
                        from_taken: sel_t,
                        from_not_taken: sel_f,
                        out: out_chan,
                        decisions,
                        rr: false,
                        cycles: CycleBreakdown::default(),
                    }),
                    format!("select {b} (inst {})", self.inst),
                );
            }
            PipeNode::IfThenElse { cond, then, els, order_fifo } => {
                let b = self.dp.basics[*cond].dfg.block;
                let raw = self.new_chan(GLUE_CAP);
                self.build_basic(*cond, in_chan, raw, None)?;
                let then_entry = entry_of(then, &self.dp.basics);
                let els_entry = entry_of(els, &self.dp.basics);
                let then_in = self.new_chan(GLUE_CAP);
                let els_in = self.new_chan(GLUE_CAP);
                let sel_t = self.new_chan(GLUE_CAP);
                let sel_f = self.new_chan(GLUE_CAP);
                let cap = then
                    .max_capacity(&self.dp.basics)
                    .max(els.max_capacity(&self.dp.basics));
                let decisions = if *order_fifo { Some(self.new_fifo(cap)) } else { None };
                self.push_comp(
                    Comp::Branch(Branch {
                        inp: raw,
                        cond_idx: self.cond_index(b),
                        taken: (then_in, self.map_edge(b, Some(then_entry))?),
                        not_taken: (els_in, self.map_edge(b, Some(els_entry))?),
                        decisions,
                        cycles: CycleBreakdown::default(),
                    }),
                    format!("branch {b} (inst {})", self.inst),
                );
                self.build_node(then, then_in, sel_t, succ)?;
                self.build_node(els, els_in, sel_f, succ)?;
                self.push_comp(
                    Comp::Select(Select {
                        from_taken: sel_t,
                        from_not_taken: sel_f,
                        out: out_chan,
                        decisions,
                        rr: false,
                        cycles: CycleBreakdown::default(),
                    }),
                    format!("select {b} (inst {})", self.inst),
                );
            }
            PipeNode::While { cond, body, nmax, backedge_fifo, swgr } => {
                let b = self.dp.basics[*cond].dfg.block;
                let body_entry = entry_of(body, &self.dp.basics);
                let enter_out = self.new_chan(GLUE_CAP);
                let backedge = self.new_chan(*backedge_fifo as usize + 1);
                let counter = self.new_counter();
                let nmax_eff = self.effective_nmax(*nmax, body);
                self.push_comp(
                    Comp::Enter(LoopEnter {
                        outside: in_chan,
                        backedge,
                        out: enter_out,
                        counter,
                        nmax: nmax_eff,
                        swgr: *swgr,
                        cur_wg: 0,
                        cycles: CycleBreakdown::default(),
                    }),
                    format!("loop-enter {b} (inst {})", self.inst),
                );
                let raw = self.new_chan(GLUE_CAP);
                self.build_basic(*cond, enter_out, raw, None)?;
                let body_in = self.new_chan(GLUE_CAP);
                let exit_in = self.new_chan(GLUE_CAP);
                self.push_comp(
                    Comp::Branch(Branch {
                        inp: raw,
                        cond_idx: self.cond_index(b),
                        taken: (body_in, self.map_edge(b, Some(body_entry))?),
                        not_taken: (exit_in, self.map_edge(b, succ)?),
                        decisions: None,
                        cycles: CycleBreakdown::default(),
                    }),
                    format!("loop-branch {b} (inst {})", self.inst),
                );
                self.build_node(body, body_in, backedge, Some(b))?;
                self.push_comp(
                    Comp::Exit(LoopExit {
                        inp: exit_in,
                        out: out_chan,
                        counter,
                        underflow: false,
                        cycles: CycleBreakdown::default(),
                    }),
                    format!("loop-exit {b} (inst {})", self.inst),
                );
            }
            PipeNode::SelfLoop { body, nmax, backedge_fifo, swgr } => {
                let body_entry = entry_of(body, &self.dp.basics);
                let enter_out = self.new_chan(GLUE_CAP);
                let backedge = self.new_chan(*backedge_fifo as usize + 1);
                let counter = self.new_counter();
                let nmax_eff = self.effective_nmax(*nmax, body);
                self.push_comp(
                    Comp::Enter(LoopEnter {
                        outside: in_chan,
                        backedge,
                        out: enter_out,
                        counter,
                        nmax: nmax_eff,
                        swgr: *swgr,
                        cur_wg: 0,
                        cycles: CycleBreakdown::default(),
                    }),
                    format!("loop-enter {body_entry} (inst {})", self.inst),
                );
                // The body's last block computes the loop condition; split
                // it off and route its raw output through the back branch.
                let (prefix, last): (&[PipeNode], usize) = match body.as_ref() {
                    PipeNode::Seq(cs) => {
                        let last = match cs.last() {
                            Some(PipeNode::Basic(i)) => *i,
                            other => panic!("self-loop body must end in a block, got {other:?}"),
                        };
                        (&cs[..cs.len() - 1], last)
                    }
                    PipeNode::Basic(i) => (&[], *i),
                    other => panic!("self-loop body must end in a block, got {other:?}"),
                };
                let last_block = self.dp.basics[last].dfg.block;
                let last_in = if prefix.is_empty() {
                    enter_out
                } else {
                    let chan = self.new_chan(GLUE_CAP);
                    self.build_seq(prefix, enter_out, chan, Some(last_block))?;
                    chan
                };
                let raw = self.new_chan(GLUE_CAP);
                self.build_basic(last, last_in, raw, None)?;
                let exit_in = self.new_chan(GLUE_CAP);
                self.push_comp(
                    Comp::Branch(Branch {
                        inp: raw,
                        cond_idx: self.cond_index(last_block),
                        taken: (backedge, self.map_edge(last_block, Some(body_entry))?),
                        not_taken: (exit_in, self.map_edge(last_block, succ)?),
                        decisions: None,
                        cycles: CycleBreakdown::default(),
                    }),
                    format!("loop-branch {last_block} (inst {})", self.inst),
                );
                self.push_comp(
                    Comp::Exit(LoopExit {
                        inp: exit_in,
                        out: out_chan,
                        counter,
                        underflow: false,
                        cycles: CycleBreakdown::default(),
                    }),
                    format!("loop-exit {last_block} (inst {})", self.inst),
                );
            }
        }
        Ok(())
    }

    /// Builds the children of a sequence, handling barrier elements.
    fn build_seq(
        &mut self,
        children: &[PipeNode],
        in_chan: ChanId,
        out_chan: ChanId,
        succ: Option<BlockId>,
    ) -> Result<(), SimError> {
        // Entry block of the element each child hands its tokens to.
        let next_entry: Vec<Option<BlockId>> = (0..children.len())
            .map(|j| {
                children[j + 1..]
                    .iter()
                    .find(|c| !matches!(c, PipeNode::Barrier { .. }))
                    .map(|c| entry_of(c, &self.dp.basics))
                    .or(succ)
            })
            .collect();
        let mut cur_in = in_chan;
        for (i, child) in children.iter().enumerate() {
            let is_last = i + 1 == children.len();
            match child {
                PipeNode::Barrier { .. } => {
                    let out = if is_last { out_chan } else { self.new_chan(GLUE_CAP) };
                    self.push_comp(
                        Comp::Barrier(BarrierUnit {
                            inp: cur_in,
                            out,
                            wg_size: self.wg_size,
                            buf: VecDeque::new(),
                            releasing: 0,
                            order_violation: false,
                            cycles: CycleBreakdown::default(),
                        }),
                        format!("barrier (inst {})", self.inst),
                    );
                    cur_in = out;
                }
                _ => {
                    let child_succ = if is_last { succ } else { next_entry[i] };
                    let out = if is_last { out_chan } else { self.new_chan(GLUE_CAP) };
                    self.build_node(child, cur_in, out, child_succ)?;
                    cur_in = out;
                }
            }
        }
        Ok(())
    }

    /// Index of the branch condition within a block's raw live-out.
    fn cond_index(&self, b: BlockId) -> usize {
        let cond = match &self.k.block(b).term {
            soff_ir::ir::Terminator::CondBr { cond, .. } => *cond,
            other => panic!("{b} used as condition block but ends in {other:?}"),
        };
        self.live_out_sig(b)
            .iter()
            .position(|&v| v == cond)
            .expect("condition missing from live-out")
    }

    fn new_fifo(&mut self, region_capacity: u64) -> usize {
        // Must cover every work-item that can be inside the construct
        // (including barrier storage) or the branch would deadlock.
        let cap = region_capacity + self.wg_size * self.dp.wg_slots + 64;
        self.fifos.push(DecisionFifo { q: VecDeque::new(), cap: cap as usize });
        self.fifos.len() - 1
    }

    fn new_counter(&mut self) -> usize {
        self.counters.push(0);
        self.counters.len() - 1
    }

    /// A loop containing a barrier must be able to hold a whole work-group
    /// (the barrier only releases complete groups).
    fn effective_nmax(&self, nmax: u64, body: &PipeNode) -> u64 {
        if body.contains_barrier() {
            nmax.max(self.wg_size + 8)
        } else {
            nmax
        }
    }
}
