//! What one run reports: operation counts, metrics by name, the notes
//! printed above the result line, and the result line itself.

use crate::stats::Repeats;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), with units, in output order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units, in output order. Every
/// workload prints all of them; a layer a workload does not exercise
/// reads 0. The per-app `sim.run_s.<app>` series follow these.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("frontend.preprocess_s", "s"),
    ("frontend.lex_s", "s"),
    ("frontend.parse_s", "s"),
    ("frontend.sema_s", "s"),
    ("frontend.tokens", "count"),
    ("ir.lower_s", "s"),
    ("ir.instrs", "count"),
    ("datapath.build_s", "s"),
    ("datapath.units", "count"),
    ("ilp.balance_s", "s"),
    ("datapath.resource_s", "s"),
    ("runtime.prepare_s", "s"),
    ("runtime.buffer_io_s", "s"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("sim.elaborate_s", "s"),
    ("sim.run_s", "s"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.launches", "count"),
    ("sim.device_cycles", "cycles"),
    ("sim.slice_construct_s", "s"),
    ("sim.slice_restore_s", "s"),
    ("sim.slice_run_s", "s"),
    ("sim.slice_snapshot_s", "s"),
    ("sim.output_stalls", "cycles"),
    ("sim.issue_stalls", "cycles"),
    ("mem.cache_hits", "count"),
    ("mem.cache_misses", "count"),
    ("mem.dram_lines", "count"),
    ("mem.linebuf_window_hits", "count"),
    ("serve.enqueue_us", "us"),
    ("serve.build_program_s", "s"),
    ("serve.slices", "count"),
    ("serve.preemptions", "count"),
    ("serve.slices_per_job", "ratio"),
    ("serve.queue_wait_mean_us", "us"),
    ("serve.slice_mean_us", "us"),
    ("workloads.host_s", "s"),
    ("obs.trace_overhead", "ratio"),
];

/// Prefix of the per-app simulator run-time series.
pub const APP_RUN_PREFIX: &str = "sim.run_s.";

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations performed.
    pub attempted: u64,
    /// Operations that failed a check or returned an error.
    pub failed: u64,
    /// A conservation check did not hold.
    pub broken_invariant: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one checked operation.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Counts one checked app run.
    pub fn check(&mut self, app: &str, verdict: Result<(), String>) {
        self.op(verdict.is_ok(), || {
            format!("{app}: {}", verdict.unwrap_err())
        });
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a conservation check: `ratio` must lie in `[lo, hi]`.
    pub fn conserve(&mut self, what: &str, ratio: f64, lo: f64, hi: f64) {
        let ok = (lo..=hi).contains(&ratio);
        self.broken_invariant |= !ok;
        let verdict = if ok { "ok" } else { "BROKEN" };
        self.notes.push(format!(
            "conservation {what}: {ratio:.4} (tolerance {lo}..{hi}) {verdict}"
        ));
    }

    /// Sets `pass_s` and the latency percentiles from a run's repeated
    /// work, with a note giving the sample counts behind them.
    pub fn timings(&mut self, workload: &str, repeats: &Repeats, what: &str) {
        let Some(s) = repeats.summary() else { return };
        self.set("pass_s", s.pass);
        self.set("latency_p50_ms", s.p50 * 1e3);
        self.set("latency_p90_ms", s.p90 * 1e3);
        self.note(format!(
            "{workload}: {what}; each unit and operation is timed as the nearest-rank \
             p{} of its repeats (at least {}); pass_s sums the units, latency_p50_ms and \
             latency_p90_ms are nearest-rank percentiles over {} operations",
            s.percentile, s.repeats, s.ops
        ));
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: the chosen metric set with units, each present
    /// (0 when the workload did not measure it).
    pub fn result_line(&self, names: &[(String, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                // JSON has no NaN/inf; no metric legitimately produces one.
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && !self.broken_invariant && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size per measured pass. `VmHWM` is reset before
/// each pass (`/proc/self/clear_refs`), so allocator growth left over
/// from earlier passes does not compound into later ones. The lowest
/// per-pass peak is reported: every pass does the same work, so a change
/// that needs more memory raises every pass's peak.
#[derive(Default)]
pub struct PeakRss(Vec<f64>);

impl PeakRss {
    /// Starts a pass: resets the high-water mark. Where the kernel does
    /// not allow it, the mark keeps covering the whole process.
    pub fn start(&self) {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    /// Ends a pass: records its high-water mark.
    pub fn stop(&mut self) {
        self.0.push(peak_rss_mb());
    }

    /// Lowest per-pass peak in MB (whole-process peak if no pass ran).
    pub fn lowest(&self) -> f64 {
        if self.0.is_empty() {
            peak_rss_mb()
        } else {
            crate::stats::lowest(self.0.iter().copied())
        }
    }
}

/// Resident set size high-water mark of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_and_the_verdict() {
        let mut r = Report::default();
        r.op(true, String::new);
        r.set("pass_s", 1.25);
        let names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        let line = r.result_line(&names);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"pass_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        r.conserve("x", 2.0, 0.9, 1.1);
        assert!(r.result_line(&names).starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(PER_LAYER.iter().map(|(n, _)| n.to_string()));
        names.extend(
            crate::suite::apps()
                .iter()
                .map(|a| format!("{APP_RUN_PREFIX}{}", a.name)),
        );
        for n in &names {
            assert!(
                spec.contains(&format!("\"name\": \"{n}\"")),
                "{n} missing from BENCHMARK.json"
            );
        }
        let listed = spec.matches("\"name\": ").count();
        assert_eq!(
            listed,
            names.len() + crate::WORKLOADS.len(),
            "BENCHMARK.json lists extra names"
        );
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
