//! Sample summaries: the percentile rule every reported timing uses.
//!
//! Percentiles are **nearest-rank**: the `p`-th percentile of `n` samples
//! is the sample at 1-based rank `⌈p/100 · n⌉` of the sorted samples
//! (clamped to `1..=n`). It is always one of the measured values — never
//! an interpolation — and it is reported together with `n`, so a reader
//! can tell how many samples lie beyond it.

use std::collections::BTreeMap;

/// A timing summary: sample count plus nearest-rank p50 and p90.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        Some(Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0)?,
            p90: percentile(&sorted, 90.0)?,
        })
    }
}

/// The samples in ascending order (total order, so NaNs cannot panic).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of ascending `sorted` samples; `None` when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Nearest-rank median of `samples` (any order); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0).unwrap_or(0.0)
}

/// The smallest of `values` (infinity when empty).
pub fn lowest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// The median of each CPU's values, and the lowest of those: the figure
/// from the CPU that ran at full speed (see `cpus.rs`). Values with no
/// CPU recorded form one group.
pub fn lowest_median(values: &[(Option<usize>, f64)]) -> f64 {
    let mut by_cpu: BTreeMap<Option<usize>, Vec<f64>> = BTreeMap::new();
    for &(cpu, v) in values {
        by_cpu.entry(cpu).or_default().push(v);
    }
    lowest(by_cpu.values().map(|v| median(v)))
}

/// Timings of work that every pass repeats exactly. A pass runs the same
/// units (an app, or one cold build), and each unit the same operations
/// in the same order (its launches, or the build), on the same inputs.
///
/// For each unit and for each of its operations, a run keeps a low
/// nearest-rank percentile of its times across the passes. On a shared
/// host, outside load comes and goes in phases of seconds and only ever
/// slows work down; a pass takes seconds, so no whole pass is reliably
/// quiet, but each single unit and operation meets quiet moments in some
/// passes. The low percentile is that quiet time, and unlike the lowest
/// it is not set by one lucky sample. A change that slows the program
/// slows every repeat, the kept one included.
pub struct Repeats {
    percentile: f64,
    units: BTreeMap<String, Unit>,
}

#[derive(Default)]
struct Unit {
    walls: Vec<f64>,
    ops: Vec<Vec<f64>>,
}

/// A run's repeated timings, summarized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeatSummary {
    /// The nearest-rank percentile kept of each unit's and operation's
    /// repeats.
    pub percentile: f64,
    /// Fewest repeats behind one kept sample.
    pub repeats: usize,
    /// Number of distinct operations (the percentile base).
    pub ops: usize,
    /// Sum over units of each unit's kept wall time: one pass.
    pub pass: f64,
    /// Nearest-rank p50 of the operations' kept times.
    pub p50: f64,
    /// Nearest-rank p90 of the operations' kept times.
    pub p90: f64,
}

impl Repeats {
    /// Keeps the nearest-rank `percentile` of each unit's and operation's
    /// repeats.
    pub fn new(percentile: f64) -> Repeats {
        Repeats {
            percentile,
            units: BTreeMap::new(),
        }
    }

    /// Adds one run of `unit` that took `wall` and whose operations, in
    /// order, took `ops`.
    pub fn push(&mut self, unit: &str, wall: f64, ops: &[f64]) {
        let u = self.units.entry(unit.to_string()).or_default();
        u.walls.push(wall);
        if u.ops.len() < ops.len() {
            u.ops.resize_with(ops.len(), Vec::new);
        }
        for (samples, &t) in u.ops.iter_mut().zip(ops) {
            samples.push(t);
        }
    }

    /// Summarizes; `None` when no operation was pushed.
    pub fn summary(&self) -> Option<RepeatSummary> {
        let kept = |samples: &[f64]| percentile(&sorted(samples), self.percentile);
        let ops: Vec<&Vec<f64>> = self.units.values().flat_map(|u| &u.ops).collect();
        let kept_ops: Vec<f64> = ops.iter().filter_map(|s| kept(s)).collect();
        let s = Summary::of(&kept_ops)?;
        Some(RepeatSummary {
            percentile: self.percentile,
            repeats: self
                .units
                .values()
                .map(|u| u.walls.len())
                .chain(ops.iter().map(|s| s.len()))
                .min()?,
            ops: s.n,
            pass: self.units.values().filter_map(|u| kept(&u.walls)).sum(),
            p50: s.p50,
            p90: s.p90,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        // ⌈0.5·10⌉ = 5, ⌈0.9·10⌉ = 9: no interpolation between samples.
        assert_eq!(percentile(&ten, 50.0), Some(5.0));
        assert_eq!(percentile(&ten, 90.0), Some(9.0));
        assert_eq!(percentile(&ten, 100.0), Some(10.0));
        // Rank 0 clamps to the smallest sample.
        assert_eq!(percentile(&ten, 0.0), Some(1.0));
    }

    #[test]
    fn odd_counts_round_the_rank_up() {
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        let s = sorted(&five);
        // ⌈2.5⌉ = 3 and ⌈4.5⌉ = 5.
        assert_eq!(percentile(&s, 50.0), Some(3.0));
        assert_eq!(percentile(&s, 90.0), Some(5.0));
        assert_eq!(median(&five), 3.0);
    }

    #[test]
    fn summary_reports_its_sample_count() {
        let samples: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let s = Summary::of(&samples).expect("non-empty");
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 49.0);
        assert_eq!(s.p90, 89.0);
        let one = Summary::of(&[7.5]).expect("non-empty");
        assert_eq!((one.n, one.p50, one.p90), (1, 7.5, 7.5));
    }

    #[test]
    fn repeats_keep_each_operations_lower_quartile() {
        let mut r = Repeats::new(25.0);
        // Four passes of two units; the third pass met a slow phase.
        for slow in [1.0, 1.0, 3.0, 1.0] {
            r.push("a", 10.0 * slow, &[2.0 * slow, 6.0 * slow]);
            r.push("b", 4.0 * slow, &[4.0 * slow]);
        }
        r.push("a", 11.0, &[2.5, 6.5]);
        let s = r.summary().expect("ops pushed");
        // Lower quartiles: a 10, b 4; ops 2, 6 and 4.
        assert_eq!((s.repeats, s.ops), (4, 3));
        assert_eq!((s.pass, s.p50, s.p90), (14.0, 4.0, 6.0));
        // A program slower by half is slower in every repeat.
        let mut slower = Repeats::new(25.0);
        for slow in [1.5, 1.5, 4.5, 1.5] {
            slower.push("a", 10.0 * slow, &[2.0 * slow, 6.0 * slow]);
            slower.push("b", 4.0 * slow, &[4.0 * slow]);
        }
        let t = slower.summary().expect("ops pushed");
        assert_eq!((t.pass, t.p50, t.p90), (21.0, 6.0, 9.0));
        // The 10th percentile of twenty repeats is the second lowest.
        let mut twenty = Repeats::new(10.0);
        for t in (1..=20).rev().map(f64::from) {
            twenty.push("a", t, &[t]);
        }
        let s = twenty.summary().expect("ops pushed");
        assert_eq!((s.percentile, s.repeats, s.pass, s.p50), (10.0, 20, 2.0, 2.0));
    }

    #[test]
    fn units_with_fewer_operations_keep_the_ones_they_ran() {
        let mut r = Repeats::new(25.0);
        r.push("a", 3.0, &[1.0, 2.0]);
        r.push("a", 1.0, &[1.0]);
        let s = r.summary().expect("ops pushed");
        assert_eq!((s.repeats, s.ops, s.pass, s.p90), (1, 2, 1.0, 2.0));
        assert_eq!(Repeats::new(25.0).summary(), None);
        let mut no_ops = Repeats::new(25.0);
        no_ops.push("a", 1.0, &[]);
        assert_eq!(no_ops.summary(), None);
    }

    #[test]
    fn each_cpu_has_its_own_median() {
        // CPU 1 ran slow: its median is 9, CPU 0's is 2.
        let values = [
            (Some(0), 2.0),
            (Some(1), 9.0),
            (Some(0), 3.0),
            (Some(1), 8.0),
            (Some(0), 1.0),
            (Some(1), 10.0),
        ];
        assert_eq!(lowest_median(&values), 2.0);
        // Pooled, the median would be a slow CPU's value.
        assert_eq!(median(&values.map(|(_, v)| v)), 3.0);
        assert_eq!(lowest_median(&[(None, 4.0), (None, 5.0)]), 4.0);
    }

    #[test]
    fn empty_input_has_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }
}
