//! The metrics registry: named, labeled counters, gauges, and
//! fixed-bucket log-scale histograms.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path updates are lock-free.** A metric handle is an `Arc`
//!    around atomic cells; `inc`/`record` never take the registry lock.
//!    The registry's mutex is touched only at registration time (once
//!    per `(name, labels)` identity per process) and when rendering an
//!    exposition.
//! 2. **Exposition is deterministic.** Metrics render sorted by name,
//!    then by rendered label set, so two dumps of the same state are
//!    byte-identical — the property CI diffs rely on.
//! 3. **No dependencies.** The Prometheus-style text format and the JSON
//!    snapshot are emitted by hand (same philosophy as
//!    `soff_bench::json`).
//!
//! Histograms use power-of-two buckets: value `0` lands in bucket 0,
//! and a value `v > 0` lands in bucket `64 - v.leading_zeros()`, i.e.
//! bucket `i` covers `[2^(i-1), 2^i - 1]`. Percentiles use **explicit
//! nearest-rank semantics**: for `0 < p <= 1` over `N` recorded values,
//! the reported quantile is the value of rank `ceil(p·N)` (1-based), and
//! the histogram reports that rank's bucket upper bound — a conservative
//! (never underestimating) answer that is stable across merge order.

use crate::chrome::esc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Number of histogram buckets: one for zero plus one per bit position.
pub const NUM_BUCKETS: usize = 65;

/// The bucket index a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive upper bound of bucket `i` (`u64::MAX` for the last).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

// ---------------------------------------------------------------- counter

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

/// A monotonically increasing counter. Cloning shares the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<CounterCell>,
}

impl Counter {
    /// A counter not attached to any registry (it never appears in an
    /// exposition; useful for tests and optional instrumentation).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (for `reset_stats`-style APIs; the metric
    /// stays registered).
    pub fn reset(&self) {
        self.cell.value.store(0, Ordering::Relaxed);
    }
}

// ------------------------------------------------------------------ gauge

#[derive(Debug, Default)]
struct GaugeCell {
    /// The current value's `f64` bit pattern.
    bits: AtomicU64,
}

/// A gauge holding one `f64` (set-to-current-value semantics).
/// Cloning shares the same cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
}

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (CAS loop; gauges are low-frequency by design).
    pub fn add(&self, delta: f64) {
        let mut cur = self.cell.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.cell.bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.bits.load(Ordering::Relaxed))
    }

    /// Zeroes the gauge.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

// -------------------------------------------------------------- histogram

#[derive(Debug)]
struct HistCell {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log-scale histogram of `u64` observations.
/// Cloning shares the same cells.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Arc<HistCell>,
}

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping on overflow, like any counter).
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the cells. Concurrent recorders may land
    /// between the bucket and count reads, so the snapshot re-derives
    /// `count` from the buckets — conservation (`Σ buckets == count`)
    /// holds in every snapshot by construction.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> =
            self.cell.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum();
        HistogramSnapshot { buckets, count, sum: self.cell.sum.load(Ordering::Relaxed) }
    }

    /// Nearest-rank percentile over the live cells (see
    /// [`HistogramSnapshot::percentile`]).
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }

    /// Zeroes all cells.
    pub fn reset(&self) {
        for b in &self.cell.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.cell.count.store(0, Ordering::Relaxed);
        self.cell.sum.store(0, Ordering::Relaxed);
    }
}

/// An owned, mergeable copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`NUM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations (== `buckets.iter().sum()`).
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: vec![0; NUM_BUCKETS], count: 0, sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Element-wise merge: the histogram of the union of both
    /// observation sets. Associative and commutative (bucket-wise `+`),
    /// which the property tests pin down.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&other.buckets)
            .map(|(a, b)| a.wrapping_add(*b))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.wrapping_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
        }
    }

    /// Explicit nearest-rank percentile: for `0 < p <= 1` the value of
    /// rank `ceil(p·N)` (1-based) over the sorted observations, reported
    /// as its bucket's inclusive upper bound. `p <= 0` reports the
    /// lowest bucket bound with any observation; an empty histogram
    /// reports 0.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Nearest rank: ceil(p * N), clamped to [1, N].
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    }

    /// `(inclusive upper bound, count)` for every non-empty bucket, in
    /// increasing bound order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
            .collect()
    }
}

// --------------------------------------------------------------- registry

/// The kind of a registered metric (drives the exposition `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> Kind {
        match self {
            Handle::Counter(_) => Kind::Counter,
            Handle::Gauge(_) => Kind::Gauge,
            Handle::Histogram(_) => Kind::Histogram,
        }
    }
}

/// A metric identity: name plus sorted label pairs.
type MetricKey = (String, Vec<(String, String)>);

/// A registry of named, labeled metrics.
///
/// `get-or-create` registration: asking twice for the same
/// `(name, labels)` returns handles sharing the same cells. Asking for
/// an existing name with a *different metric kind* returns a detached
/// handle (updates work, nothing is double-registered) — a programming
/// error that must not take down a serving process.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricKey, Handle>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.lock().len();
        write!(f, "Registry({n} metrics)")
    }
}

/// The process-wide registry every subsystem defaults to.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

fn key_of(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut l: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    l.sort();
    (name.to_string(), l)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<MetricKey, Handle>> {
        // Registration and rendering never panic mid-update; recovering
        // from poison keeps metrics flowing after an unrelated panic.
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], fresh: Handle) -> Handle {
        let key = key_of(name, labels);
        let mut m = self.lock();
        match m.get(&key) {
            Some(existing) if existing.kind() == fresh.kind() => existing.clone(),
            Some(_) => fresh, // kind clash: hand back a detached cell
            None => {
                m.insert(key, fresh.clone());
                fresh
            }
        }
    }

    /// The counter for `(name, labels)`, creating it on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, labels, Handle::Counter(Counter::detached())) {
            Handle::Counter(c) => c,
            _ => unreachable!("register preserves kind"),
        }
    }

    /// The gauge for `(name, labels)`, creating it on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, labels, Handle::Gauge(Gauge::detached())) {
            Handle::Gauge(g) => g,
            _ => unreachable!("register preserves kind"),
        }
    }

    /// The histogram for `(name, labels)`, creating it on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, labels, Handle::Histogram(Histogram::detached())) {
            Handle::Histogram(h) => h,
            _ => unreachable!("register preserves kind"),
        }
    }

    /// Number of registered metric series.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Renders the Prometheus-style text exposition. Deterministic:
    /// metrics sort by name then label set (the registry is a `BTreeMap`
    /// over exactly that key), one `# TYPE` line per name.
    pub fn expose(&self) -> String {
        let metrics = self.lock().clone();
        drop_guard_expose(&metrics)
    }

    /// Renders a JSON snapshot (`{"metrics":[...]}`), same order as
    /// [`Registry::expose`].
    pub fn snapshot_json(&self) -> String {
        let metrics = self.lock().clone();
        let mut out = String::from("{\"metrics\":[");
        for (i, ((name, labels), handle)) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\"", esc(name));
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", esc(k), esc(v));
            }
            out.push('}');
            match handle {
                Handle::Counter(c) => {
                    let _ = write!(out, ",\"type\":\"counter\",\"value\":{}", c.get());
                }
                Handle::Gauge(g) => {
                    let v = g.get();
                    if v.is_finite() {
                        let _ = write!(out, ",\"type\":\"gauge\",\"value\":{v}");
                    } else {
                        out.push_str(",\"type\":\"gauge\",\"value\":null");
                    }
                }
                Handle::Histogram(h) => {
                    let s = h.snapshot();
                    let _ = write!(
                        out,
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        s.count, s.sum
                    );
                    for (j, (le, c)) in s.nonzero_buckets().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{{\"le\":{le},\"count\":{c}}}");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Zeroes every registered cell (series stay registered).
    pub fn reset_all(&self) {
        for handle in self.lock().values() {
            match handle {
                Handle::Counter(c) => c.reset(),
                Handle::Gauge(g) => g.reset(),
                Handle::Histogram(h) => h.reset(),
            }
        }
    }
}

/// Escapes a label value for the text exposition (`\` `"` and newline).
fn label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{label="v",...}` (empty string for no labels), with an
/// optional extra pair appended (histogram `le`).
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", label_escape(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

fn drop_guard_expose(metrics: &BTreeMap<MetricKey, Handle>) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for ((name, labels), handle) in metrics {
        if last_name != Some(name.as_str()) {
            let ty = match handle.kind() {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Histogram => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {ty}");
            last_name = Some(name.as_str());
        }
        match handle {
            Handle::Counter(c) => {
                let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), c.get());
            }
            Handle::Gauge(g) => {
                let v = g.get();
                if v.is_finite() {
                    let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                } else {
                    // Prometheus text allows +Inf/-Inf/NaN spellings.
                    let s = if v.is_nan() {
                        "NaN"
                    } else if v > 0.0 {
                        "+Inf"
                    } else {
                        "-Inf"
                    };
                    let _ = writeln!(out, "{name}{} {s}", render_labels(labels, None));
                }
            }
            Handle::Histogram(h) => {
                let s = h.snapshot();
                // Cumulative buckets up to the highest non-empty one,
                // then +Inf — compact but parseable as standard
                // histogram series.
                let mut cum = 0u64;
                let top = s
                    .buckets
                    .iter()
                    .rposition(|&c| c > 0)
                    .map_or(0, |i| i + 1)
                    .min(NUM_BUCKETS - 1);
                for (i, &c) in s.buckets.iter().enumerate().take(top) {
                    cum += c;
                    let le = bucket_upper_bound(i).to_string();
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {cum}",
                        render_labels(labels, Some(("le", &le)))
                    );
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {}",
                    render_labels(labels, Some(("le", "+Inf"))),
                    s.count
                );
                let _ = writeln!(out, "{name}_sum{} {}", render_labels(labels, None), s.sum);
                let _ =
                    writeln!(out, "{name}_count{} {}", render_labels(labels, None), s.count);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value's bucket bound is >= the value, and the previous
        // bucket's bound is < the value (tightness).
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_upper_bound(i) >= v);
            if i > 0 {
                assert!(bucket_upper_bound(i - 1) < v);
            }
        }
    }

    #[test]
    fn counter_and_gauge_share_cells_through_the_registry() {
        let r = Registry::new();
        let a = r.counter("requests_total", &[("tenant", "t0")]);
        let b = r.counter("requests_total", &[("tenant", "t0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = r.gauge("depth", &[]);
        g.set(4.5);
        g.add(0.5);
        assert_eq!(r.gauge("depth", &[]).get(), 5.0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        let a = r.counter("x", &[("a", "1"), ("b", "2")]);
        let b = r.counter("x", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn kind_clash_degrades_to_a_detached_handle() {
        let r = Registry::new();
        let c = r.counter("m", &[]);
        c.inc();
        let h = r.histogram("m", &[]);
        h.record(7); // works, but is not registered
        assert_eq!(r.len(), 1);
        assert!(r.expose().contains("# TYPE m counter"));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let h = Histogram::detached();
        // 1..=100 (each lands in its own log bucket region).
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Rank ceil(0.5*100) = 50 → value 50 → bucket [32,63] → bound 63.
        assert_eq!(s.percentile(0.50), 63);
        // Rank ceil(0.99*100) = 99 → value 99 → bucket [64,127] → 127.
        assert_eq!(s.percentile(0.99), 127);
        // p=1 → rank 100 → value 100 → 127. p tiny → rank 1 → value 1.
        assert_eq!(s.percentile(1.0), 127);
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0);
    }

    #[test]
    fn histogram_conservation_in_snapshot() {
        let h = Histogram::detached();
        for v in [0u64, 1, 1, 5, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert_eq!(s.count, 6);
    }

    #[test]
    fn reset_zeroes_every_kind() {
        let r = Registry::new();
        r.counter("c", &[]).inc();
        r.gauge("g", &[]).set(3.0);
        r.histogram("h", &[]).record(9);
        r.reset_all();
        assert_eq!(r.counter("c", &[]).get(), 0);
        assert_eq!(r.gauge("g", &[]).get(), 0.0);
        assert_eq!(r.histogram("h", &[]).count(), 0);
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        let r = Registry::new();
        r.counter("c", &[("k", "v")]).add(2);
        r.histogram("h", &[]).record(5);
        let json = r.snapshot_json();
        crate::jsonlint::validate(&json).expect("snapshot must be valid JSON");
        assert!(json.contains("\"type\":\"counter\""));
        assert!(json.contains("\"type\":\"histogram\""));
    }
}
