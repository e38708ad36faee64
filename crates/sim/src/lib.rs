//! # soff-sim
//!
//! Cycle-level simulator of SOFF's synthesized circuits — the substitute
//! for the FPGA in this reproduction. Every functional unit, FIFO channel,
//! glue device, cache, and arbiter of §III–§V is modeled with the
//! synchronous valid/stall handshake (one-cycle stall recognition), so the
//! dynamic effects the paper's architecture is about — Case-1/Case-2
//! stalls, loop occupancy limits, work-group-order preservation, barrier
//! release, cache misses, and the final flush — all emerge from the model
//! rather than being postulated.
//!
//! The simulator is also *functionally exact*: it computes real values,
//! and its memory contents after a run are bit-identical to the reference
//! interpreter's (`soff_ir::interp`), which the integration tests assert.
//!
//! ## Example
//!
//! ```
//! use soff_datapath::{Datapath, LatencyModel};
//! use soff_ir::{build, ir::NdRange, mem::{ArgValue, GlobalMemory}};
//! use soff_sim::machine::{run, SimConfig};
//!
//! let src = "__kernel void inc(__global int* a) {
//!     int i = get_global_id(0);
//!     a[i] = a[i] + 1;
//! }";
//! let parsed = soff_frontend::compile(src, &[]).unwrap();
//! let module = build::lower(&parsed).unwrap();
//! let kernel = module.kernel("inc").unwrap();
//! let dp = Datapath::build(kernel, &LatencyModel::default());
//!
//! let mut gm = GlobalMemory::new();
//! let buf = gm.alloc(16 * 4);
//! let result = run(kernel, &dp, &SimConfig::default(),
//!                  NdRange::dim1(16, 4), &[ArgValue::Buffer(buf)], &mut gm).unwrap();
//! assert_eq!(result.retired, 16);
//! assert!(result.cycles > 0);
//! ```

pub mod channel;
pub mod diag;
pub mod fault;
pub mod glue;
pub mod launch;
pub mod machine;
pub mod memsys;
pub mod profile;
pub mod token;
pub mod units;

pub use diag::{derived_deadlock_window, DeadlockReport, HangKind};
pub use fault::{Fault, FaultPlan};
pub use machine::{
    run, CancelToken, ConfigError, Machine, RunControl, Scheduler, SimConfig, SimError,
    SimResult, Snapshot,
};
pub use profile::{
    chrome_trace_events, write_chrome_trace, Bottleneck, CacheProfile, CompProfile,
    CycleBreakdown, FifoDepth, ProfileConfig, ProfileReport, Sample, Span, SpanTrack,
    UnitProfile,
};
pub use soff_mem::linebuf::LineBufStats;

// Compile-time audit for the parallel sweep engine: simulation results —
// including the profiler's reports with their sampled ring buffers and
// span tracks — are produced inside worker threads and shipped back to
// the reassembling thread, so every type crossing that boundary must be
// `Send`; the configs are shared by reference across cells (`Sync`).
const _: () = {
    const fn shared<T: Send + Sync>() {}
    const fn owned<T: Send>() {}
    shared::<SimConfig>();
    shared::<ProfileConfig>();
    shared::<Scheduler>();
    owned::<SimResult>();
    owned::<SimError>();
    owned::<ProfileReport>();
    owned::<Sample>();
    owned::<SpanTrack>();
    owned::<DeadlockReport>();
    owned::<FaultPlan>();
    // Resilient-execution layer: cancel tokens are cloned across threads
    // (shared), snapshots ride inside `SimError` back to the reassembling
    // thread, and a serve job carries its live machine and last snapshot
    // from one device-slot worker to the next (owned).
    shared::<CancelToken>();
    shared::<RunControl>();
    owned::<Machine>();
    owned::<Snapshot>();
    owned::<ConfigError>();
};
