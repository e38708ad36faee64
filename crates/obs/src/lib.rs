//! # soff-obs — service-wide observability for SOFF
//!
//! Three pieces, all dependency-free:
//!
//! - [`metrics`]: a registry of named, labeled counters, gauges, and
//!   log-scale histograms. Handles are lock-free `AtomicU64` cells; the
//!   registry renders a deterministic Prometheus-style text exposition
//!   ([`Registry::expose`]) and a JSON snapshot
//!   ([`Registry::snapshot_json`]).
//! - [`span`]: begin/end span events with tenant/session/job
//!   correlation IDs in a bounded ring buffer ([`TraceBuf`]), plus
//!   [`pair_spans`] to reassemble intervals.
//! - [`chrome`]: a streaming Chrome trace-event writer
//!   ([`ChromeTraceWriter`]) that lets callers merge serve-level spans
//!   with externally produced event streams (the simulator's per-cycle
//!   profiles) into one Perfetto timeline.
//!
//! [`jsonlint`] is the independent well-formedness check for everything
//! the exporters emit.
//!
//! ## Who uses what
//!
//! `soff_runtime::cache` registers its hit/miss/evict/corrupt counters
//! on [`metrics::global`]; `soff_exec` records task queue latency
//! there too; `soff-serve` takes an optional per-server registry and
//! trace buffer via its config (defaulting to the global registry) and
//! instruments the admit → queue → slice → settle path; `serve_soak
//! --metrics/--trace` writes the exposition and the merged timeline.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod jsonlint;
pub mod metrics;
pub mod span;

pub use chrome::ChromeTraceWriter;
pub use metrics::{global, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use span::{
    pair_spans, pair_spans_with_drops, CompletedSpan, CorrId, PairedSpans, SpanEvent, SpanKind,
    TraceBuf,
};
