//! Cycle-attribution profiler for the machine simulator.
//!
//! The paper explains performance entirely through architectural behaviour
//! — Case-1/Case-2 stalls (§IV-C), cache misses, barrier draining, and
//! loop occupancy limits (§VI) — but aggregate end-of-run totals cannot
//! say *which* unit stalled on *whom*. This module attributes every
//! component's cycles into four exclusive categories:
//!
//! * **busy** — the component moved a token this cycle (or holds work in
//!   flight that is progressing through its latency);
//! * **issue-stall** — inputs were ready but the component could not issue
//!   (Case-1: capacity `L_F + 1` reached, memory port busy, loop occupancy
//!   at `N_max`, SWGR admission refused, decision-FIFO head missing);
//! * **output-stall** — a finished token was blocked by a full downstream
//!   channel (Case-2);
//! * **idle** — no input and nothing in flight.
//!
//! Exactly one category is incremented per component per machine cycle, so
//! `busy + issue_stall + output_stall + idle == cycles_observed` holds for
//! every functional unit, glue device, line buffer, and cache — the
//! conservation invariant the property tests assert.
//!
//! On top of the counters the profiler records a bounded ring buffer of
//! sampled time series (FIFO depth histograms, per-buffer cache hit/miss
//! and MSHR occupancy, DRAM channel occupancy, work-items in flight per
//! basic block), work-group lifetime and barrier-release spans for the
//! Chrome trace-event / Perfetto export, and a bottleneck ranking derived
//! from the same channel wiring the deadlock forensics use
//! (`diag::channel_wiring`).
//!
//! Profiling is off by default ([`crate::machine::SimConfig::profile`] is
//! `None`): the per-unit counter vectors are not even allocated, the
//! per-cycle observation pass is skipped entirely, and simulated cycle
//! counts are bit-identical with profiling on or off (the profiler only
//! observes; it never changes machine behaviour).

use crate::channel::Channel;
use crate::diag::{self, Node};
use crate::machine::Comp;
use crate::memsys::{CachePlan, MemTarget, MemorySystem};
use crate::token::Token;
use soff_mem::CacheStats;
use std::collections::VecDeque;
use std::io::{self, Write};

/// Profiler configuration ([`crate::machine::SimConfig::profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Cycles between time-series samples.
    pub sample_interval: u64,
    /// Ring-buffer bound on stored samples (oldest evicted first).
    pub max_samples: usize,
    /// Bound on stored trace spans (further spans are counted as dropped).
    pub max_spans: usize,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig { sample_interval: 64, max_samples: 4096, max_spans: 16384 }
    }
}

/// Exclusive per-cycle attribution of one component's time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles a token moved (or latency-covered work was in flight).
    pub busy: u64,
    /// Cycles inputs were ready but issue was refused (Case-1).
    pub issue_stall: u64,
    /// Cycles a finished token was blocked downstream (Case-2).
    pub output_stall: u64,
    /// Cycles with no input and nothing in flight.
    pub idle: u64,
}

impl CycleBreakdown {
    /// Sum of all four categories (== cycles observed).
    pub fn total(&self) -> u64 {
        self.busy + self.issue_stall + self.output_stall + self.idle
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &CycleBreakdown) {
        self.busy += other.busy;
        self.issue_stall += other.issue_stall;
        self.output_stall += other.output_stall;
        self.idle += other.idle;
    }
}

/// Per-functional-unit attribution inside one basic pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitProfile {
    /// Unit index within the pipeline's DFG.
    pub unit: usize,
    /// Engine kind: `source` / `sink` / `compute` / `mem`.
    pub kind: String,
    /// Cycle attribution.
    pub cycles: CycleBreakdown,
}

/// Per-component attribution (pipelines carry their per-unit detail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompProfile {
    /// Build-time label (e.g. `pipeline bb2 (inst 0)`).
    pub label: String,
    /// Component kind.
    pub kind: String,
    /// Cycle attribution. For pipelines this is the element-wise sum over
    /// `units`; conservation holds per unit, not for the sum.
    pub cycles: CycleBreakdown,
    /// Per-unit detail (empty for glue components).
    pub units: Vec<UnitProfile>,
}

/// Per-cache attribution and final counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheProfile {
    /// `cache buf-group G (inst I)` or `(shared)`.
    pub label: String,
    /// Cycle attribution of the cache + its datapath-cache arbiter.
    pub cycles: CycleBreakdown,
    /// Final counters (hits, misses, arbitration/MSHR stalls, prefetch
    /// hits, …).
    pub stats: CacheStats,
}

/// Occupancy histogram of one machine channel. Buckets: depth 0, 1, 2, 3,
/// 4–7, ≥8 — chosen so the common capacities (2-deep glue channels,
/// ILP-balanced FIFOs) resolve exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoDepth {
    /// Machine channel index.
    pub chan: usize,
    /// Channel capacity.
    pub capacity: usize,
    /// Cycle counts per depth bucket.
    pub buckets: [u64; 6],
}

/// Per-cache slice of one time-series sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSample {
    /// Accepted requests awaiting response (MSHR occupancy proxy).
    pub inflight: u32,
    /// Ports with a latched, not-yet-granted request.
    pub latched: u32,
    /// Cumulative hits at sample time.
    pub hits: u64,
    /// Cumulative misses at sample time.
    pub misses: u64,
}

/// One entry of the bounded time-series ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Sample cycle.
    pub cycle: u64,
    /// Tokens anywhere in the machine (channels + pipelines + barriers).
    pub tokens_in_flight: u64,
    /// Work-items retired so far.
    pub retired: u64,
    /// DRAM channels mid-transfer at this cycle.
    pub dram_busy_channels: u32,
    /// Cumulative DRAM line reads.
    pub dram_reads: u64,
    /// Cumulative DRAM line writes.
    pub dram_writes: u64,
    /// Per-cache state, indexed like [`MemorySystem::caches`].
    pub caches: Vec<CacheSample>,
    /// Work-items in flight per basic pipeline (machine component order).
    pub pipes: Vec<u32>,
}

/// Which Perfetto track a span renders on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanTrack {
    /// Work-group lifetime (dispatch → last retirement).
    WorkGroup,
    /// A barrier's release phase (first → last released work-item).
    Barrier,
}

/// One timeline span for the trace export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Display name (`wg 3`, `barrier (inst 0) release`).
    pub name: String,
    /// Track assignment.
    pub track: SpanTrack,
    /// Start cycle.
    pub start: u64,
    /// End cycle (inclusive of the last active cycle).
    pub end: u64,
}

/// One ranked stall chain: `victim` lost `cycles` waiting on `blocker`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bottleneck {
    /// The stalled component (or unit within it).
    pub victim: String,
    /// What it was waiting on.
    pub blocker: String,
    /// Stalled cycles attributed to this edge.
    pub cycles: u64,
    /// Which handshake stalled.
    pub reason: String,
}

/// Everything the profiler learned about one kernel execution. Attached to
/// [`crate::machine::SimResult::profile`] when profiling is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Kernel name.
    pub kernel: String,
    /// Machine cycles observed by the profiler (the conservation total:
    /// every per-unit breakdown sums to exactly this). Equals
    /// `compute_cycles + 1` — the final retiring cycle is observed too;
    /// the end-of-kernel flush runs after the clock stops and is excluded.
    pub cycles_observed: u64,
    /// Total cycles of the run including the final cache flush.
    pub total_cycles: u64,
    /// Per-component attribution, in machine component order.
    pub comps: Vec<CompProfile>,
    /// Per-cache attribution (per buffer × instance, not lumped).
    pub caches: Vec<CacheProfile>,
    /// Channel occupancy histograms.
    pub fifo_depth: Vec<FifoDepth>,
    /// Bounded time-series ring buffer (oldest samples evicted).
    pub samples: Vec<Sample>,
    /// Work-group and barrier spans for the trace export.
    pub spans: Vec<Span>,
    /// Ranked dominant stall chains.
    pub bottlenecks: Vec<Bottleneck>,
    /// Spans not recorded because `max_spans` was reached.
    pub dropped_spans: u64,
}

/// Human-readable labels for the cache layout of a plan.
pub(crate) fn cache_labels(plan: &CachePlan, total: usize) -> Vec<String> {
    (0..total)
        .map(|i| {
            if plan.shared {
                format!("cache buf-group {i} (shared)")
            } else {
                let groups = plan.num_groups.max(1);
                format!("cache buf-group {} (inst {})", i % groups, i / groups)
            }
        })
        .collect()
}

/// Human-readable labels for the line buffers, window-major like
/// [`MemorySystem::line_bufs`].
pub(crate) fn line_buf_labels(windows: usize, instances: usize) -> Vec<String> {
    (0..windows)
        .flat_map(|w| (0..instances).map(move |i| format!("line buffer {w} (inst {i})")))
        .collect()
}

fn depth_bucket(len: usize) -> usize {
    match len {
        0..=3 => len,
        4..=7 => 4,
        _ => 5,
    }
}

/// The live profiler the machine drives while the clock runs.
#[derive(Debug, Clone)]
pub(crate) struct Profiler {
    cfg: ProfileConfig,
    ticks: u64,
    comp_labels: Vec<String>,
    cache_labels: Vec<String>,
    fifo_hist: Vec<[u64; 6]>,
    cache_cycles: Vec<CycleBreakdown>,
    cache_prev_accesses: Vec<u64>,
    line_buf_labels: Vec<String>,
    line_buf_cycles: Vec<CycleBreakdown>,
    samples: VecDeque<Sample>,
    spans: Vec<Span>,
    dropped_spans: u64,
    /// Open work-group spans: (wg, dispatch cycle).
    open_wg: Vec<(u32, u64)>,
    /// Per-component barrier release-phase tracking.
    barrier_release_start: Vec<Option<u64>>,
}

impl Profiler {
    pub(crate) fn new(
        cfg: ProfileConfig,
        num_chans: usize,
        comp_labels: Vec<String>,
        cache_labels: Vec<String>,
        line_buf_labels: Vec<String>,
    ) -> Profiler {
        let num_caches = cache_labels.len();
        let num_comps = comp_labels.len();
        Profiler {
            cfg,
            ticks: 0,
            comp_labels,
            cache_labels,
            fifo_hist: vec![[0; 6]; num_chans],
            cache_cycles: vec![CycleBreakdown::default(); num_caches],
            cache_prev_accesses: vec![0; num_caches],
            line_buf_cycles: vec![CycleBreakdown::default(); line_buf_labels.len()],
            line_buf_labels,
            samples: VecDeque::new(),
            spans: Vec::new(),
            dropped_spans: 0,
            open_wg: Vec::new(),
            barrier_release_start: vec![None; num_comps],
        }
    }

    /// A work-group entered the dispatcher.
    pub(crate) fn wg_dispatched(&mut self, wg: u32, now: u64) {
        self.open_wg.push((wg, now));
    }

    /// A work-group's last work-item retired.
    pub(crate) fn wg_completed(&mut self, wg: u32, now: u64) {
        if let Some(pos) = self.open_wg.iter().position(|&(w, _)| w == wg) {
            let (_, start) = self.open_wg.swap_remove(pos);
            self.push_span(Span {
                name: format!("wg {wg}"),
                track: SpanTrack::WorkGroup,
                start,
                end: now,
            });
        }
    }

    fn push_span(&mut self, span: Span) {
        if self.spans.len() < self.cfg.max_spans {
            self.spans.push(span);
        } else {
            self.dropped_spans += 1;
        }
    }

    /// Classifies each line buffer's cycle from its state before the
    /// memory tick: fills in flight are busy work, latched requests with
    /// no fill traffic wait on residency (issue side), undelivered
    /// responses wait on the datapath (output side).
    pub(crate) fn observe_line_bufs(&mut self, mem: &MemorySystem) {
        for (cyc, b) in self.line_buf_cycles.iter_mut().zip(&mem.line_bufs) {
            if b.inflight_fills() > 0 {
                cyc.busy += 1;
            } else if b.latched_requests() > 0 {
                cyc.issue_stall += 1;
            } else if b.pending_responses() > 0 {
                cyc.output_stall += 1;
            } else {
                cyc.idle += 1;
            }
        }
    }

    /// One end-of-cycle observation pass (only called when profiling).
    pub(crate) fn observe(
        &mut self,
        now: u64,
        chans: &[Channel<Token>],
        comps: &[Comp],
        mem: &MemorySystem,
        retired: u64,
    ) {
        self.ticks += 1;

        for (i, c) in chans.iter().enumerate() {
            self.fifo_hist[i][depth_bucket(c.len())] += 1;
        }

        // Cache + arbiter attribution: accepting a request (or serving
        // in-flight ones) is busy; latched-but-ungranted ports with no
        // grant this cycle are arbitration/MSHR issue stalls.
        for (i, c) in mem.caches.iter().enumerate() {
            let cyc = &mut self.cache_cycles[i];
            let accepted = c.stats.accesses > self.cache_prev_accesses[i];
            self.cache_prev_accesses[i] = c.stats.accesses;
            if accepted {
                cyc.busy += 1;
            } else if c.latched_requests() > 0 {
                cyc.issue_stall += 1;
            } else if c.inflight_requests() > 0 {
                cyc.busy += 1;
            } else {
                cyc.idle += 1;
            }
        }

        // Barrier release phases.
        for (ci, comp) in comps.iter().enumerate() {
            if let Comp::Barrier(b) = comp {
                let releasing = b.releasing > 0;
                match (self.barrier_release_start[ci], releasing) {
                    (None, true) => self.barrier_release_start[ci] = Some(now),
                    (Some(start), false) => {
                        self.barrier_release_start[ci] = None;
                        let name = format!("{} release", self.comp_labels[ci]);
                        self.push_span(Span {
                            name,
                            track: SpanTrack::Barrier,
                            start,
                            end: now,
                        });
                    }
                    _ => {}
                }
            }
        }

        if now.is_multiple_of(self.cfg.sample_interval) {
            let mut tokens: u64 = chans.iter().map(|c| c.len() as u64).sum();
            let mut pipes = Vec::new();
            for comp in comps {
                match comp {
                    Comp::Pipe(p) => {
                        let h = p.holding() as u64;
                        tokens += h;
                        pipes.push(h as u32);
                    }
                    Comp::Barrier(b) => tokens += b.buf.len() as u64,
                    _ => {}
                }
            }
            let caches = mem
                .caches
                .iter()
                .map(|c| CacheSample {
                    inflight: c.inflight_requests() as u32,
                    latched: c.latched_requests() as u32,
                    hits: c.stats.hits,
                    misses: c.stats.misses,
                })
                .collect();
            if self.samples.len() >= self.cfg.max_samples {
                self.samples.pop_front();
            }
            self.samples.push_back(Sample {
                cycle: now,
                tokens_in_flight: tokens,
                retired,
                dram_busy_channels: mem.dram.busy_channels(now),
                dram_reads: mem.dram.stats.reads,
                dram_writes: mem.dram.stats.writes,
                caches,
                pipes,
            });
        }
    }

    /// Seals the profile after the last work-item retired.
    pub(crate) fn finish(
        mut self,
        kernel: String,
        comps: &[Comp],
        mem: &MemorySystem,
        chans: &[Channel<Token>],
        end_cycle: u64,
        total_cycles: u64,
    ) -> ProfileReport {
        // Close anything still open (possible only if the machine ends
        // mid-phase, e.g. a barrier releasing on the final cycle).
        let open_wg = std::mem::take(&mut self.open_wg);
        for (wg, start) in open_wg {
            self.push_span(Span {
                name: format!("wg {wg}"),
                track: SpanTrack::WorkGroup,
                start,
                end: end_cycle,
            });
        }
        for ci in 0..self.barrier_release_start.len() {
            if let Some(start) = self.barrier_release_start[ci].take() {
                let name = format!("{} release", self.comp_labels[ci]);
                self.push_span(Span {
                    name,
                    track: SpanTrack::Barrier,
                    start,
                    end: end_cycle,
                });
            }
        }
        self.spans.sort_by(|a, b| (a.start, &a.name).cmp(&(b.start, &b.name)));

        let comp_profiles: Vec<CompProfile> = comps
            .iter()
            .zip(&self.comp_labels)
            .map(|(comp, label)| {
                let (kind, cycles, units) = match comp {
                    Comp::Pipe(p) => {
                        let units = p.unit_profiles().unwrap_or_default();
                        let mut sum = CycleBreakdown::default();
                        for u in &units {
                            sum.add(&u.cycles);
                        }
                        ("pipeline", sum, units)
                    }
                    Comp::Branch(b) => ("branch", b.cycles, Vec::new()),
                    Comp::Select(s) => ("select", s.cycles, Vec::new()),
                    Comp::Enter(e) => ("loop-enter", e.cycles, Vec::new()),
                    Comp::Exit(x) => ("loop-exit", x.cycles, Vec::new()),
                    Comp::Barrier(b) => ("barrier", b.cycles, Vec::new()),
                };
                CompProfile { label: label.clone(), kind: kind.to_string(), cycles, units }
            })
            .chain(self.line_buf_labels.iter().zip(&self.line_buf_cycles).map(|(label, cycles)| {
                CompProfile {
                    label: label.clone(),
                    kind: "line-buffer".to_string(),
                    cycles: *cycles,
                    units: Vec::new(),
                }
            }))
            .collect();

        let cache_profiles: Vec<CacheProfile> = self
            .cache_labels
            .iter()
            .zip(&self.cache_cycles)
            .zip(&mem.caches)
            .map(|((label, cycles), cache)| CacheProfile {
                label: label.clone(),
                cycles: *cycles,
                stats: cache.stats,
            })
            .collect();

        let fifo_depth: Vec<FifoDepth> = chans
            .iter()
            .enumerate()
            .map(|(i, c)| FifoDepth { chan: i, capacity: c.capacity(), buckets: self.fifo_hist[i] })
            .collect();

        let bottlenecks =
            rank_bottlenecks(comps, &self.comp_labels, &self.cache_labels, &comp_profiles);

        ProfileReport {
            kernel,
            cycles_observed: self.ticks,
            total_cycles,
            comps: comp_profiles,
            caches: cache_profiles,
            fifo_depth,
            samples: self.samples.into_iter().collect(),
            spans: self.spans,
            bottlenecks,
            dropped_spans: self.dropped_spans,
        }
    }
}

/// Ranks dominant stall chains over the machine's static channel wiring —
/// the same topology the deadlock forensics walk, applied to accumulated
/// stall counters instead of a frozen hang.
fn rank_bottlenecks(
    comps: &[Comp],
    comp_labels: &[String],
    cache_labels: &[String],
    profiles: &[CompProfile],
) -> Vec<Bottleneck> {
    let wiring = diag::channel_wiring(comps);
    let name_of = |n: Node| -> String {
        match n {
            Node::Comp(i) => comp_labels.get(i).cloned().unwrap_or_else(|| format!("comp {i}")),
            Node::Cache(i) => cache_labels.get(i).cloned().unwrap_or_else(|| format!("cache {i}")),
            Node::LineBuf(i) => format!("line buffer {i}"),
            Node::Chan(i) => format!("channel {i}"),
            Node::Dispatcher(i) => format!("dispatcher {i}"),
        }
    };
    let consumer_of = |chan: usize| -> String {
        wiring
            .consumer
            .get(&chan)
            .copied()
            .map(name_of)
            .unwrap_or_else(|| "work-item counter (retire)".to_string())
    };

    let mut out = Vec::new();
    let mut push = |victim: String, blocker: String, cycles: u64, reason: &str| {
        if cycles > 0 {
            out.push(Bottleneck { victim, blocker, cycles, reason: reason.to_string() });
        }
    };

    for (ci, comp) in comps.iter().enumerate() {
        let label = &comp_labels[ci];
        match comp {
            Comp::Pipe(p) => {
                // Sink output stalls point at the downstream consumer;
                // memory-unit issue stalls point at the unit's cache/local
                // target (Case-1).
                if let Some(units) = p.unit_profiles() {
                    for u in &units {
                        if u.kind == "sink" {
                            push(
                                label.clone(),
                                consumer_of(p.out_chan.0),
                                u.cycles.output_stall,
                                "output channel full (Case-2)",
                            );
                        }
                    }
                }
                for (target, stalls) in p.mem_unit_issue_stalls() {
                    let blocker = match target {
                        MemTarget::Cache(c) => name_of(Node::Cache(c)),
                        MemTarget::LineBuf(b) => name_of(Node::LineBuf(b)),
                        MemTarget::Local(l) => format!("local block {l}"),
                        MemTarget::Private => "private memory".to_string(),
                    };
                    push(
                        label.clone(),
                        blocker,
                        stalls,
                        "memory unit could not issue (Case-1)",
                    );
                }
            }
            Comp::Branch(b) => {
                push(
                    label.clone(),
                    consumer_of(b.taken.0 .0),
                    profiles[ci].cycles.output_stall,
                    "branch arm or decision fifo full",
                );
            }
            Comp::Select(s) => {
                push(
                    label.clone(),
                    consumer_of(s.out.0),
                    profiles[ci].cycles.output_stall,
                    "merge output full",
                );
                push(
                    label.clone(),
                    "decision fifo (upstream branch)".to_string(),
                    profiles[ci].cycles.issue_stall,
                    "waiting for the ordered work-group at the fifo head",
                );
            }
            Comp::Enter(e) => {
                push(
                    label.clone(),
                    consumer_of(e.out.0),
                    profiles[ci].cycles.output_stall,
                    "loop entry channel full",
                );
                push(
                    label.clone(),
                    "loop occupancy limit (N_max / SWGR)".to_string(),
                    profiles[ci].cycles.issue_stall,
                    "admission refused at capacity",
                );
            }
            Comp::Exit(x) => {
                push(
                    label.clone(),
                    consumer_of(x.out.0),
                    profiles[ci].cycles.output_stall,
                    "post-loop channel full",
                );
            }
            Comp::Barrier(b) => {
                push(
                    label.clone(),
                    consumer_of(b.out.0),
                    profiles[ci].cycles.output_stall,
                    "release blocked by full output",
                );
            }
        }
    }

    out.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.victim.cmp(&b.victim)));
    out.truncate(16);
    out
}

fn esc(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\t' => o.push_str("\\t"),
            '\r' => o.push_str("\\r"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o
}

/// Emits the report's trace events into an already-open Chrome
/// trace-event array, parameterized for merging: `pid` names the
/// process group (each report in a merged timeline gets its own),
/// `ts_offset_us` shifts every timestamp (one simulated cycle maps to
/// one microsecond of trace time), and `first` carries the
/// between-events comma state across emitters sharing one array
/// (`true` iff nothing has been written yet; left `false` afterwards).
///
/// [`write_chrome_trace`] is the single-report wrapper;
/// `soff-obs`-based exporters call this directly to interleave sim
/// profiles with serve-level spans in one timeline.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn chrome_trace_events<W: Write>(
    report: &ProfileReport,
    w: &mut W,
    pid: u64,
    ts_offset_us: u64,
    first: &mut bool,
) -> io::Result<()> {
    let mut emit = |w: &mut W, s: String| -> io::Result<()> {
        if *first {
            *first = false;
        } else {
            write!(w, ",")?;
        }
        write!(w, "{s}")
    };

    emit(
        w,
        format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"SOFF simulator: {}\"}}}}",
            esc(&report.kernel)
        ),
    )?;
    emit(
        w,
        format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"work-groups\"}}}}"
        ),
    )?;
    emit(
        w,
        format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":2,\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"barriers\"}}}}"
        ),
    )?;

    for span in &report.spans {
        let tid = match span.track {
            SpanTrack::WorkGroup => 1,
            SpanTrack::Barrier => 2,
        };
        let dur = span.end.saturating_sub(span.start).max(1);
        emit(
            w,
            format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\
                 \"ts\":{},\"dur\":{dur}}}",
                esc(&span.name),
                span.start + ts_offset_us
            ),
        )?;
    }

    for s in &report.samples {
        let ts = s.cycle + ts_offset_us;
        emit(
            w,
            format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"tokens in flight\",\
                 \"ts\":{ts},\"args\":{{\"tokens\":{}}}}}",
                s.tokens_in_flight
            ),
        )?;
        emit(
            w,
            format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"retired\",\
                 \"ts\":{ts},\"args\":{{\"work-items\":{}}}}}",
                s.retired
            ),
        )?;
        emit(
            w,
            format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"dram busy channels\",\
                 \"ts\":{ts},\"args\":{{\"channels\":{}}}}}",
                s.dram_busy_channels
            ),
        )?;
        for (i, c) in s.caches.iter().enumerate() {
            emit(
                w,
                format!(
                    "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"cache {i} occupancy\",\
                     \"ts\":{ts},\"args\":{{\"inflight\":{},\"latched\":{}}}}}",
                    c.inflight, c.latched
                ),
            )?;
        }
        for (i, h) in s.pipes.iter().enumerate() {
            emit(
                w,
                format!(
                    "{{\"ph\":\"C\",\"pid\":{pid},\"name\":\"pipe {i} work-items\",\
                     \"ts\":{ts},\"args\":{{\"holding\":{h}}}}}"
                ),
            )?;
        }
    }
    Ok(())
}

/// Writes the report as Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load). One simulated cycle maps to one microsecond
/// of trace time. Spans become complete (`"X"`) events on named tracks;
/// sampled series become counter (`"C"`) events.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace<W: Write>(report: &ProfileReport, w: &mut W) -> io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    chrome_trace_events(report, w, 0, 0, &mut first)?;
    write!(w, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_add() {
        let mut a = CycleBreakdown { busy: 1, issue_stall: 2, output_stall: 3, idle: 4 };
        assert_eq!(a.total(), 10);
        a.add(&CycleBreakdown { busy: 10, issue_stall: 0, output_stall: 0, idle: 0 });
        assert_eq!(a.busy, 11);
        assert_eq!(a.total(), 20);
    }

    #[test]
    fn depth_buckets_partition_all_depths() {
        assert_eq!(depth_bucket(0), 0);
        assert_eq!(depth_bucket(1), 1);
        assert_eq!(depth_bucket(2), 2);
        assert_eq!(depth_bucket(3), 3);
        assert_eq!(depth_bucket(4), 4);
        assert_eq!(depth_bucket(7), 4);
        assert_eq!(depth_bucket(8), 5);
        assert_eq!(depth_bucket(1000), 5);
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn trace_of_empty_report_is_valid_json_skeleton() {
        let report = ProfileReport {
            kernel: "k".into(),
            cycles_observed: 0,
            total_cycles: 0,
            comps: Vec::new(),
            caches: Vec::new(),
            fifo_depth: Vec::new(),
            samples: Vec::new(),
            spans: Vec::new(),
            bottlenecks: Vec::new(),
            dropped_spans: 0,
        };
        let mut buf = Vec::new();
        write_chrome_trace(&report, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"traceEvents\":["));
        assert!(s.contains("work-groups"));
    }
}
