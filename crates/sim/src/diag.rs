//! Deadlock forensics: structured hang reports for the cycle simulator.
//!
//! When the progress watchdog in [`crate::machine`] fires, the machine is
//! frozen mid-hang and every piece of evidence is still in place. This
//! module turns that state into a [`DeadlockReport`]: per-channel
//! occupancy, per-component hold/releasing state, decision-FIFO heads,
//! loop occupancy counters against their `N_max` bounds, and a
//! **wait-for graph** derived from the valid/stall handshake (who is
//! stalled, and on whom). The graph is then classified:
//!
//! * a cycle of blocked components is a **true deadlock** (cyclic wait) —
//!   impossible in a fault-free machine by Theorem 1, so seeing one means
//!   either fault injection or a glue-logic bug, and the report names the
//!   components on the cycle;
//! * tokens still circulating (channel pushes keep happening) while
//!   nothing ever retires is a **livelock / infinite loop** — the report
//!   names the loops currently holding work-items;
//! * blocked components all waiting on something idle (a decision FIFO
//!   head that never arrives, a half-full barrier, a wedged channel or
//!   cache) is **starvation**, and the terminal blocker is the culprit;
//! * a fully drained machine with `retired < total` is **token loss**.
//!
//! The report attaches to [`crate::machine::SimError::Deadlock`] and
//! renders through `Display`; the legacy `SOFF_SIM_DEBUG=1` dump is now a
//! thin wrapper that prints the same rendering.

use crate::channel::Channel;
use crate::glue::DecisionFifo;
use crate::machine::{Comp, SimConfig};
use crate::memsys::{MemTarget, MemorySystem};
use crate::token::Token;
use std::collections::HashMap;
use std::fmt;

/// What kind of hang the forensic pass concluded this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HangKind {
    /// A cycle of components each stalled on the next (true deadlock).
    CyclicWait,
    /// Tokens keep moving but none ever retire (infinite loop).
    Livelock,
    /// Components starve waiting on something that never produces.
    Starvation,
    /// The machine drained but fewer work-items retired than launched.
    TokenLoss,
}

impl fmt::Display for HangKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HangKind::CyclicWait => write!(f, "true deadlock (cyclic wait)"),
            HangKind::Livelock => write!(f, "livelock / infinite loop"),
            HangKind::Starvation => write!(f, "starvation"),
            HangKind::TokenLoss => write!(f, "token loss"),
        }
    }
}

/// Snapshot of one (non-empty or wedged) channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelState {
    /// Machine channel index.
    pub id: usize,
    /// Occupancy.
    pub len: usize,
    /// Capacity.
    pub cap: usize,
    /// Front token's work-item serial, if visible.
    pub front_wi: Option<u32>,
    /// Front token's work-group serial, if visible.
    pub front_wg: Option<u32>,
    /// Wedged by fault injection.
    pub jammed: bool,
}

/// Snapshot of one component that still holds work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentState {
    /// Component index.
    pub id: usize,
    /// Human-readable name (assigned at build time).
    pub name: String,
    /// Hold/releasing detail.
    pub detail: String,
}

/// Snapshot of one non-empty decision FIFO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoState {
    /// FIFO index.
    pub id: usize,
    /// Entries.
    pub len: usize,
    /// Capacity.
    pub cap: usize,
    /// Work-group id at the head (what the paired select waits for).
    pub head_wg: Option<u32>,
}

/// Snapshot of one loop's occupancy counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopState {
    /// Shared counter index.
    pub counter: usize,
    /// Name of the loop's entrance glue.
    pub enter: String,
    /// Current occupancy.
    pub occupancy: u64,
    /// The `N_max` bound.
    pub nmax: u64,
}

/// One edge of the wait-for graph: `from` is stalled until `to` acts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    /// The waiting party.
    pub from: String,
    /// The party being waited on.
    pub to: String,
    /// Which handshake is stuck and why.
    pub reason: String,
}

/// The full forensic report attached to a deadlock error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Cycle at which progress stopped.
    pub cycle: u64,
    /// Classification.
    pub kind: HangKind,
    /// Named culprits: the cyclic-wait members, the starved-on terminal
    /// blockers, the live loops, or the incomplete work-groups.
    pub culprits: Vec<String>,
    /// Work-items retired before the hang.
    pub retired: u64,
    /// Work-items launched.
    pub total: u64,
    /// Non-empty (or wedged) channels.
    pub channels: Vec<ChannelState>,
    /// Components holding work.
    pub components: Vec<ComponentState>,
    /// Non-empty decision FIFOs.
    pub fifos: Vec<FifoState>,
    /// Loop occupancy counters.
    pub loops: Vec<LoopState>,
    /// The wait-for graph.
    pub waits: Vec<WaitEdge>,
}

impl DeadlockReport {
    /// One-line summary used by `SimError`'s `Display`.
    pub fn summary(&self) -> String {
        if self.culprits.is_empty() {
            format!("{}", self.kind)
        } else {
            format!("{}; culprit: {}", self.kind, self.culprits.join(", "))
        }
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(f, "=== hang forensics (cycle {}) ===", self.cycle)?;
            writeln!(f, "classification: {}", self.kind)?;
            for c in &self.culprits {
                writeln!(f, "culprit: {c}")?;
            }
            writeln!(f, "retired {} of {} work-items", self.retired, self.total)?;
            if !self.channels.is_empty() {
                writeln!(f, "channels:")?;
                for c in &self.channels {
                    writeln!(
                        f,
                        "  chan {}: {}/{} tokens, front wi={:?} wg={:?}{}",
                        c.id,
                        c.len,
                        c.cap,
                        c.front_wi,
                        c.front_wg,
                        if c.jammed { " [JAMMED]" } else { "" }
                    )?;
                }
            }
            if !self.components.is_empty() {
                writeln!(f, "components holding work:")?;
                for c in &self.components {
                    writeln!(f, "  [{}] {}: {}", c.id, c.name, c.detail)?;
                }
            }
            if !self.fifos.is_empty() {
                writeln!(f, "decision fifos:")?;
                for q in &self.fifos {
                    writeln!(
                        f,
                        "  fifo {}: {}/{} entries, head wg={:?}",
                        q.id, q.len, q.cap, q.head_wg
                    )?;
                }
            }
            if !self.loops.is_empty() {
                writeln!(f, "loops:")?;
                for l in &self.loops {
                    writeln!(
                        f,
                        "  counter #{} ({}): occupancy {}/{} (N_max)",
                        l.counter, l.enter, l.occupancy, l.nmax
                    )?;
                }
            }
            if !self.waits.is_empty() {
                writeln!(f, "wait-for graph:")?;
                for w in &self.waits {
                    writeln!(f, "  {} -> {}: {}", w.from, w.to, w.reason)?;
                }
            }
            Ok(())
    }
}

/// Per-dispatcher view the machine hands to [`build_report`].
#[derive(Debug, Clone)]
pub(crate) struct DispatcherView {
    /// Entry channel index.
    pub entry: usize,
    /// Retire channel index.
    pub retire: usize,
    /// Whether it still has work-items to dispatch.
    pub pending: bool,
    /// Whether dispatch is gated on a free work-group slot.
    pub slots_full: bool,
    /// In-flight work-groups and their remaining (unretired) work-items.
    pub active: Vec<(u32, u64)>,
}

/// Everything the forensic pass needs, borrowed from the frozen machine.
pub(crate) struct MachineView<'a> {
    pub chans: &'a [Channel<Token>],
    pub comps: &'a [Comp],
    pub metas: &'a [String],
    pub counters: &'a [u64],
    pub fifos: &'a [DecisionFifo],
    pub mem: &'a MemorySystem,
    pub dispatchers: Vec<DispatcherView>,
    pub retired: u64,
    pub total: u64,
    /// Cycle at which progress stopped.
    pub stalled_since: u64,
    /// True when invoked from the retire-progress (livelock) watchdog:
    /// tokens are still moving, only retirement is stuck.
    pub tokens_flowing: bool,
}

/// Wait-for graph node. Shared with the profiler's bottleneck analyzer
/// ([`crate::profile`]), which ranks stall chains over the same topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    Comp(usize),
    Cache(usize),
    LineBuf(usize),
    Chan(usize),
    Dispatcher(usize),
}

/// Static channel/FIFO/counter wiring of a built machine: who produces
/// into and consumes from each channel, which select drains each decision
/// FIFO, and which exit glue frees each loop counter. Built once from the
/// component list; used by both the deadlock forensics and the profiler's
/// bottleneck analyzer.
#[derive(Debug, Default)]
pub(crate) struct ChannelWiring {
    pub producer: HashMap<usize, Node>,
    pub consumer: HashMap<usize, Node>,
    pub fifo_select: HashMap<usize, Node>,
    pub counter_exit: HashMap<usize, Node>,
}

/// Derives the [`ChannelWiring`] from the component list.
pub(crate) fn channel_wiring(comps: &[Comp]) -> ChannelWiring {
    let mut w = ChannelWiring::default();
    for (ci, comp) in comps.iter().enumerate() {
        let me = Node::Comp(ci);
        match comp {
            Comp::Pipe(p) => {
                w.consumer.insert(p.in_chan.0, me);
                w.producer.insert(p.out_chan.0, me);
            }
            Comp::Branch(b) => {
                w.consumer.insert(b.inp.0, me);
                w.producer.insert(b.taken.0 .0, me);
                w.producer.insert(b.not_taken.0 .0, me);
            }
            Comp::Select(s) => {
                w.consumer.insert(s.from_taken.0, me);
                w.consumer.insert(s.from_not_taken.0, me);
                w.producer.insert(s.out.0, me);
                if let Some(fi) = s.decisions {
                    w.fifo_select.insert(fi, me);
                }
            }
            Comp::Enter(e) => {
                w.consumer.insert(e.outside.0, me);
                w.consumer.insert(e.backedge.0, me);
                w.producer.insert(e.out.0, me);
            }
            Comp::Exit(x) => {
                w.consumer.insert(x.inp.0, me);
                w.producer.insert(x.out.0, me);
                w.counter_exit.insert(x.counter, me);
            }
            Comp::Barrier(b) => {
                w.consumer.insert(b.inp.0, me);
                w.producer.insert(b.out.0, me);
            }
        }
    }
    w
}

struct Graph {
    edges: Vec<(Node, Node, String)>,
    /// Nodes blocked for a reason of their own (wedged channel, faulted
    /// cache, slot-starved dispatcher) — terminal suspects.
    terminal: HashMap<Node, String>,
}

impl Graph {
    fn blocked(&self) -> Vec<Node> {
        let mut nodes: Vec<Node> = self.edges.iter().map(|(a, _, _)| *a).collect();
        nodes.extend(self.terminal.keys().copied());
        nodes.sort_by_key(|n| format!("{n:?}"));
        nodes.dedup();
        nodes
    }

    /// Finds a cycle among blocked nodes (iterative DFS, 3-color).
    fn find_cycle(&self) -> Option<Vec<Node>> {
        let mut adj: HashMap<Node, Vec<Node>> = HashMap::new();
        for (a, b, _) in &self.edges {
            adj.entry(*a).or_default().push(*b);
        }
        let mut color: HashMap<Node, u8> = HashMap::new(); // 0 white 1 grey 2 black
        for &start in adj.keys() {
            if color.get(&start).copied().unwrap_or(0) != 0 {
                continue;
            }
            // Stack of (node, next-child-index); path = grey chain.
            let mut stack: Vec<(Node, usize)> = vec![(start, 0)];
            color.insert(start, 1);
            while let Some(&mut (n, ref mut i)) = stack.last_mut() {
                let children = adj.get(&n).map(|v| v.as_slice()).unwrap_or(&[]);
                if *i < children.len() {
                    let c = children[*i];
                    *i += 1;
                    match color.get(&c).copied().unwrap_or(0) {
                        0 => {
                            color.insert(c, 1);
                            stack.push((c, 0));
                        }
                        1 => {
                            // Found a back edge: the cycle is the grey
                            // suffix of the stack from `c` onward.
                            let pos = stack
                                .iter()
                                .position(|(m, _)| *m == c)
                                .unwrap_or(0);
                            return Some(stack[pos..].iter().map(|(m, _)| *m).collect());
                        }
                        _ => {}
                    }
                } else {
                    color.insert(n, 2);
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Builds the full forensic report from the frozen machine state.
pub(crate) fn build_report(v: &MachineView<'_>) -> DeadlockReport {
    let name = |n: Node| -> String {
        match n {
            Node::Comp(i) => v.metas.get(i).cloned().unwrap_or_else(|| format!("comp {i}")),
            Node::Cache(i) => format!("cache {i}"),
            Node::LineBuf(i) => format!("line buffer {i}"),
            Node::Chan(i) => format!("channel {i}"),
            Node::Dispatcher(i) => format!("dispatcher {i}"),
        }
    };

    // Static wiring, shared with the profiler's bottleneck analyzer.
    let ChannelWiring { mut producer, mut consumer, fifo_select, counter_exit } =
        channel_wiring(v.comps);
    for (di, d) in v.dispatchers.iter().enumerate() {
        producer.insert(d.entry, Node::Dispatcher(di));
        consumer.insert(d.retire, Node::Dispatcher(di));
    }

    let chan = |i: usize| &v.chans[i];
    let full = |i: usize| chan(i).len() >= chan(i).capacity();
    let has = |i: usize| !chan(i).is_empty();
    let jammed = |i: usize| chan(i).is_jammed();

    let mut g = Graph { edges: Vec::new(), terminal: HashMap::new() };
    // Attribute a stuck output handshake: a wedged channel is its own
    // culprit, a full one points at its consumer.
    let out_edge = |g: &mut Graph, me: Node, out: usize, what: &str| {
        if jammed(out) {
            g.edges.push((me, Node::Chan(out), format!("{what} channel {out} jammed")));
            g.terminal.insert(Node::Chan(out), "stuck-stall handshake (fault)".into());
        } else if full(out) {
            if let Some(&next) = consumer.get(&out) {
                g.edges.push((me, next, format!("{what} channel {out} full")));
            } else {
                g.terminal.insert(me, format!("{what} channel {out} full, no consumer"));
            }
        }
    };
    // Attribute a starved input handshake.
    let in_jam = |g: &mut Graph, me: Node, inp: usize| {
        if jammed(inp) && has(inp) {
            g.edges.push((me, Node::Chan(inp), format!("input channel {inp} jammed")));
            g.terminal.insert(Node::Chan(inp), "stuck-stall handshake (fault)".into());
        }
    };

    for (ci, comp) in v.comps.iter().enumerate() {
        let me = Node::Comp(ci);
        match comp {
            Comp::Pipe(p) => {
                let holding = p.holding();
                in_jam(&mut g, me, p.in_chan.0);
                if holding == 0 {
                    continue;
                }
                out_edge(&mut g, me, p.out_chan.0, "output");
                for (target, n) in p.mem_waits() {
                    let dst = match target {
                        MemTarget::Cache(c) => Node::Cache(c),
                        MemTarget::LineBuf(b) => Node::LineBuf(b),
                        _ => continue,
                    };
                    g.edges.push((me, dst, format!("{n} request(s) outstanding")));
                }
                for target in p.mem_issue_blocked(v.mem) {
                    let dst = match target {
                        MemTarget::Cache(c) => Node::Cache(c),
                        MemTarget::LineBuf(b) => Node::LineBuf(b),
                        _ => continue,
                    };
                    g.edges.push((me, dst, "cannot issue request".into()));
                }
            }
            Comp::Branch(b) => {
                in_jam(&mut g, me, b.inp.0);
                let Some(front) = chan(b.inp.0).front() else { continue };
                let taken = front.vals.get(b.cond_idx).copied().unwrap_or(0) != 0;
                let (dst, _) = if taken { &b.taken } else { &b.not_taken };
                out_edge(
                    &mut g,
                    me,
                    dst.0,
                    if taken { "taken-arm" } else { "not-taken-arm" },
                );
                if let Some(fi) = b.decisions {
                    if v.fifos[fi].q.len() >= v.fifos[fi].cap {
                        if let Some(&sel) = fifo_select.get(&fi) {
                            g.edges.push((me, sel, format!("decision fifo {fi} full")));
                        }
                    }
                }
            }
            Comp::Select(s) => {
                in_jam(&mut g, me, s.from_taken.0);
                in_jam(&mut g, me, s.from_not_taken.0);
                let has_input = has(s.from_taken.0) || has(s.from_not_taken.0);
                match s.decisions {
                    Some(fi) => {
                        let head = v.fifos[fi].q.front().copied();
                        match head {
                            None => {}
                            Some(head_wg) => {
                                let matches = |c: usize| {
                                    chan(c).front().map(|t| t.wg == head_wg).unwrap_or(false)
                                };
                                if matches(s.from_taken.0) || matches(s.from_not_taken.0) {
                                    out_edge(&mut g, me, s.out.0, "output");
                                } else {
                                    // Head work-group not available on
                                    // either arm: starving on producers.
                                    for arm in [s.from_taken.0, s.from_not_taken.0] {
                                        if let Some(&p) = producer.get(&arm) {
                                            g.edges.push((
                                                me,
                                                p,
                                                format!(
                                                    "waiting for a work-group {head_wg} \
                                                     token on channel {arm}"
                                                ),
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                        if head.is_none() && has_input {
                            g.terminal.insert(
                                me,
                                format!(
                                    "tokens waiting but decision fifo {fi} is empty \
                                     (decision lost?)"
                                ),
                            );
                        }
                    }
                    None => {
                        if has_input {
                            out_edge(&mut g, me, s.out.0, "output");
                        }
                    }
                }
            }
            Comp::Enter(e) => {
                in_jam(&mut g, me, e.outside.0);
                in_jam(&mut g, me, e.backedge.0);
                let wants = has(e.outside.0) || has(e.backedge.0);
                if !wants {
                    continue;
                }
                if full(e.out.0) || jammed(e.out.0) {
                    out_edge(&mut g, me, e.out.0, "output");
                    continue;
                }
                if has(e.backedge.0) {
                    continue; // back-edge has priority and can move: not blocked
                }
                let occ = v.counters[e.counter];
                if occ >= e.nmax {
                    if let Some(&exit) = counter_exit.get(&e.counter) {
                        g.edges.push((
                            me,
                            exit,
                            format!("loop at N_max ({}/{})", occ, e.nmax),
                        ));
                    }
                } else if e.swgr && occ > 0 {
                    if let Some(front) = chan(e.outside.0).front() {
                        if front.wg != e.cur_wg {
                            if let Some(&exit) = counter_exit.get(&e.counter) {
                                g.edges.push((
                                    me,
                                    exit,
                                    format!(
                                        "SWGR: work-group {} waits for work-group {} \
                                         to drain",
                                        front.wg, e.cur_wg
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            Comp::Exit(x) => {
                in_jam(&mut g, me, x.inp.0);
                if has(x.inp.0) {
                    out_edge(&mut g, me, x.out.0, "output");
                }
            }
            Comp::Barrier(b) => {
                in_jam(&mut g, me, b.inp.0);
                if b.releasing > 0 {
                    out_edge(&mut g, me, b.out.0, "output");
                } else if !b.buf.is_empty() && (b.buf.len() as u64) < b.wg_size {
                    if let Some(&p) = producer.get(&b.inp.0) {
                        g.edges.push((
                            me,
                            p,
                            format!(
                                "waiting for rest of work-group {} ({} of {} arrived)",
                                b.buf.front().map(|t| t.wg).unwrap_or(0),
                                b.buf.len(),
                                b.wg_size
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Dispatchers and caches.
    for (di, d) in v.dispatchers.iter().enumerate() {
        let me = Node::Dispatcher(di);
        if !d.pending {
            continue;
        }
        if jammed(d.entry) || full(d.entry) {
            out_edge(&mut g, me, d.entry, "entry");
        } else if d.slots_full {
            let missing: Vec<String> = d
                .active
                .iter()
                .map(|(wg, rem)| format!("work-group {wg} ({rem} work-items unretired)"))
                .collect();
            g.terminal.insert(
                me,
                format!("all work-group slots held by: {}", missing.join(", ")),
            );
        }
    }
    for (i, c) in v.mem.caches.iter().enumerate() {
        if c.fault_active() {
            g.terminal.insert(
                Node::Cache(i),
                format!(
                    "fault injection wedged this cache ({} latched, {} in flight)",
                    c.latched_requests(),
                    c.inflight_requests()
                ),
            );
        }
    }
    for (i, b) in v.mem.line_bufs.iter().enumerate() {
        if b.fault_active() {
            g.terminal.insert(
                Node::LineBuf(i),
                format!(
                    "fault injection jammed this line buffer ({} latched, {} fill(s) \
                     in flight)",
                    b.latched_requests(),
                    b.inflight_fills()
                ),
            );
        }
    }

    // ---- classify -------------------------------------------------------
    let blocked = g.blocked();
    let (kind, culprits) = if let Some(cycle) = g.find_cycle() {
        (HangKind::CyclicWait, cycle.into_iter().map(name).collect())
    } else if v.tokens_flowing {
        let mut live: Vec<String> = v
            .comps
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| match c {
                Comp::Enter(e) if v.counters[e.counter] > 0 => Some(format!(
                    "{} (occupancy {}/{})",
                    name(Node::Comp(ci)),
                    v.counters[e.counter],
                    e.nmax
                )),
                _ => None,
            })
            .collect();
        if live.is_empty() {
            live.push("tokens circulating outside any loop".into());
        }
        (HangKind::Livelock, live)
    } else if blocked.is_empty() && machine_drained(v) {
        let mut missing: Vec<String> = v
            .dispatchers
            .iter()
            .flat_map(|d| d.active.iter())
            .map(|(wg, rem)| format!("work-group {wg} lost {rem} work-item(s)"))
            .collect();
        if missing.is_empty() {
            missing.push(format!(
                "machine drained with {} of {} work-items retired",
                v.retired, v.total
            ));
        }
        (HangKind::TokenLoss, missing)
    } else {
        // Starvation: the culprits are the ends of the wait chains — a
        // terminal blocked node, or a blocked node whose waits all lead
        // to parties that are themselves unblocked (idle forever).
        let blocked_set: std::collections::HashSet<Node> = blocked.iter().copied().collect();
        let mut culprits: Vec<String> = Vec::new();
        for n in &blocked {
            let outs: Vec<&Node> =
                g.edges.iter().filter(|(a, _, _)| a == n).map(|(_, b, _)| b).collect();
            let is_terminal = outs.is_empty() || outs.iter().all(|b| !blocked_set.contains(b));
            if is_terminal {
                let detail = g.terminal.get(n).cloned().or_else(|| {
                    g.edges
                        .iter()
                        .find(|(a, _, _)| a == n)
                        .map(|(_, b, r)| format!("waits on idle {}: {r}", name(*b)))
                });
                match detail {
                    Some(d) => culprits.push(format!("{}: {d}", name(*n))),
                    None => culprits.push(name(*n)),
                }
            }
        }
        if culprits.is_empty() {
            culprits.push("no blocked component identified".into());
        }
        (HangKind::Starvation, culprits)
    };

    DeadlockReport {
        cycle: v.stalled_since,
        kind,
        culprits,
        retired: v.retired,
        total: v.total,
        channels: v
            .chans
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty() || c.is_jammed())
            .map(|(i, c)| ChannelState {
                id: i,
                len: c.len(),
                cap: c.capacity(),
                front_wi: c.front().map(|t| t.wi),
                front_wg: c.front().map(|t| t.wg),
                jammed: c.is_jammed(),
            })
            .collect(),
        components: v
            .comps
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| {
                let detail = match c {
                    Comp::Pipe(p) if p.holding() > 0 => {
                        let units: Vec<String> = p
                            .unit_holds()
                            .iter()
                            .map(|(u, kind, held, cap)| format!("unit {u} ({kind}) {held}/{cap}"))
                            .collect();
                        Some(format!(
                            "holding {} work-item(s); {}",
                            p.holding(),
                            if units.is_empty() { "all on internal edges".into() } else { units.join(", ") }
                        ))
                    }
                    Comp::Barrier(b) if !b.buf.is_empty() => Some(format!(
                        "buffering {} token(s), releasing {}",
                        b.buf.len(),
                        b.releasing
                    )),
                    _ => None,
                };
                detail.map(|detail| ComponentState {
                    id: ci,
                    name: name(Node::Comp(ci)),
                    detail,
                })
            })
            .collect(),
        fifos: v
            .fifos
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.q.is_empty())
            .map(|(i, f)| FifoState {
                id: i,
                len: f.q.len(),
                cap: f.cap,
                head_wg: f.q.front().copied(),
            })
            .collect(),
        loops: v
            .comps
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| match c {
                Comp::Enter(e) => Some(LoopState {
                    counter: e.counter,
                    enter: name(Node::Comp(ci)),
                    occupancy: v.counters[e.counter],
                    nmax: e.nmax,
                }),
                _ => None,
            })
            .collect(),
        waits: g
            .edges
            .iter()
            .map(|(a, b, r)| WaitEdge { from: name(*a), to: name(*b), reason: r.clone() })
            .collect(),
    }
}

fn machine_drained(v: &MachineView<'_>) -> bool {
    v.chans.iter().all(|c| c.is_empty())
        && v.comps.iter().all(|c| match c {
            Comp::Pipe(p) => p.is_empty(),
            Comp::Barrier(b) => b.is_empty(),
            _ => true,
        })
}

// ---- watchdog window derivation ----------------------------------------

/// Derives the default deadlock window from machine parameters.
///
/// The window must exceed the longest *legitimate* stretch of cycles in
/// which neither a work-item retires, a channel push happens, nor a cache
/// accepts a request. The worst case is a full work-group funneling
/// through one serialized resource while everything else drains:
///
/// ```text
/// window = 4 · L_Datapath                      (drain the deepest path)
///        + wg_size · (t_DRAM + t_line + t_hit)  (a group of serialized misses)
///        + 4096                                 (slack: arbiters, flush)
/// ```
///
/// The progress watchdog additionally holds fire while the memory system
/// has timed events scheduled (see `MemorySystem::has_pending_events`),
/// so a DRAM latency spike cannot produce a false deadlock no matter the
/// window.
pub fn derived_deadlock_window(
    l_datapath: u64,
    wg_size: u64,
    dram_latency: u64,
    dram_cycles_per_line: u64,
    cache_hit_latency: u64,
) -> u64 {
    4 * l_datapath
        + wg_size.max(1) * (dram_latency + dram_cycles_per_line + cache_hit_latency)
        + 4096
}

/// Resolves the configured windows: `0` means "derive".
///
/// The livelock (retire-progress) window is much larger than the deadlock
/// window — tokens legitimately circulate a loop for its whole trip count
/// without retiring anything — and defaults to 64× the deadlock window.
pub(crate) fn effective_windows(cfg: &SimConfig, l_datapath: u64, wg_size: u64) -> (u64, u64) {
    let deadlock = if cfg.deadlock_window == 0 {
        derived_deadlock_window(
            l_datapath,
            wg_size,
            cfg.dram.latency as u64,
            cfg.dram.cycles_per_line as u64,
            cfg.cache.hit_latency as u64,
        )
    } else {
        cfg.deadlock_window
    };
    let livelock = if cfg.livelock_window == 0 {
        deadlock.saturating_mul(64)
    } else {
        cfg.livelock_window
    };
    (deadlock, livelock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_window_scales_with_inputs() {
        let base = derived_deadlock_window(100, 64, 38, 4, 4);
        assert_eq!(base, 4 * 100 + 64 * 46 + 4096);
        assert!(derived_deadlock_window(1000, 64, 38, 4, 4) > base);
        assert!(derived_deadlock_window(100, 256, 38, 4, 4) > base);
        assert!(derived_deadlock_window(100, 64, 400, 4, 4) > base);
    }

    #[test]
    fn explicit_windows_win() {
        let cfg = SimConfig { deadlock_window: 5_000, livelock_window: 70_000, ..SimConfig::default() };
        assert_eq!(effective_windows(&cfg, 100, 64), (5_000, 70_000));
        let auto = SimConfig { deadlock_window: 5_000, ..SimConfig::default() };
        assert_eq!(effective_windows(&auto, 100, 64), (5_000, 5_000 * 64));
    }

    #[test]
    fn cycle_detection_finds_a_cycle() {
        let g = Graph {
            edges: vec![
                (Node::Comp(0), Node::Comp(1), "a".into()),
                (Node::Comp(1), Node::Comp(2), "b".into()),
                (Node::Comp(2), Node::Comp(0), "c".into()),
                (Node::Comp(3), Node::Comp(0), "d".into()),
            ],
            terminal: HashMap::new(),
        };
        let cyc = g.find_cycle().expect("cycle exists");
        assert_eq!(cyc.len(), 3);
        assert!(cyc.contains(&Node::Comp(0)));
        assert!(!cyc.contains(&Node::Comp(3)), "tail node is not on the cycle");
    }

    #[test]
    fn cycle_detection_rejects_dags() {
        let g = Graph {
            edges: vec![
                (Node::Comp(0), Node::Comp(1), "a".into()),
                (Node::Comp(0), Node::Comp(2), "b".into()),
                (Node::Comp(1), Node::Comp(2), "c".into()),
                (Node::Comp(2), Node::Cache(0), "d".into()),
            ],
            terminal: HashMap::new(),
        };
        assert!(g.find_cycle().is_none());
    }
}
