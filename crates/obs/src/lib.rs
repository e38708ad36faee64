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
//! the exporters emit, and [`fnv1a`] is the workspace's one content hash.
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

/// The FNV-1a-64 offset basis: the state a fresh [`fnv1a`] hash starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-64 over `bytes`, folded into a running `state` (start from
/// [`FNV_OFFSET`]), so hashing pieces in turn equals hashing their
/// concatenation. The workspace's one content hash: compile-cache keys,
/// store and journal checksums, sweep, serve and chaos digests, retry
/// jitter, and snapshot fingerprints all use it.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        // The published FNV-1a-64 test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a(FNV_OFFSET, b"ab"), fnv1a(FNV_OFFSET, b"ba"));
    }

    proptest! {
        /// Hashing `x` then `y` equals hashing `x‖y`.
        #[test]
        fn fnv1a_chains(
            x in proptest::collection::vec(any::<u8>(), 0..64),
            y in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let xy: Vec<u8> = x.iter().chain(&y).copied().collect();
            prop_assert_eq!(fnv1a(fnv1a(FNV_OFFSET, &x), &y), fnv1a(FNV_OFFSET, &xy));
        }
    }
}
