//! Basic-pipeline simulation: functional units, internal channels, and the
//! run-time pipelining handshake (§IV-A/B/C).
//!
//! Each basic pipeline is lowered once per launch into a `PipeCode`: a
//! flat unit table in which every instruction is decoded into a micro-op
//! with a fixed-arity operand template (uniforms pre-filled), every unit's
//! in/out-edge wiring is resolved to dense indices, and the sink's slot
//! table is fused with the mapping onto the successor's signature. The
//! table is shared by every datapath instance of the launch; a
//! [`PipelineSim`] holds only one instance's dynamic state — unit latches,
//! internal channels (capacity `1 + q_e` from the FIFO balancing ILP),
//! memory ports and statistics.
//!
//! Units are fully pipelined: they hold at most `L_F + 1` work-items and
//! never stall while holding `≤ L_F` (§IV-C), which the deadlock argument
//! of §IV-E depends on — `SimConfig::check_invariants` checks it.
//!
//! The machine skips a pipeline that [`PipelineSim::quiescent`] reports
//! idle; inside a ticked pipeline, each unit's activity summary decides
//! whether it acts. Memory lives in [`crate::memsys`]: line buffers, like
//! caches, are memory components, not units.

use crate::channel::{ChanId, Channel, Channels};
use crate::launch::LaunchCtx;
use crate::machine::SimError;
use crate::memsys::{MemTarget, MemorySystem};
use crate::profile::{CycleBreakdown, UnitProfile};
use crate::token::{uniform_value, Mapping, Slot, Token};
use soff_datapath::pipeline::BasicPipeline;
use soff_frontend::ast::{BinOp, UnOp};
use soff_frontend::builtins::{AtomicOp, MathFunc, WorkItemQuery};
use soff_frontend::types::Scalar;
use soff_ir::dfg::{EdgeKind, Node};
use soff_ir::eval;
use soff_ir::ir::{InstKind, Kernel, ValueId};
use soff_mem::{MemOp, MemRequest, PortId};
use std::collections::VecDeque;
use std::sync::Arc;

/// The most operands one unit takes (`select`, three-argument math,
/// `atomic_cmpxchg`).
const MAX_OPERANDS: usize = 3;

/// In-wire marker: the edge carries no operand (order edges, and data
/// edges whose operand is a launch constant).
const NO_OPERAND: u8 = u8::MAX;

/// Unit index of the source (`Dfg::nodes[0]`).
const SOURCE: usize = 0;

/// A value-granularity token flowing inside a basic pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Micro {
    /// Work-item serial.
    pub wi: u32,
    /// Work-group serial.
    pub wg: u32,
    /// The carried value (0 for pure ordering tokens).
    pub val: u64,
}

/// A non-memory instruction, decoded once at elaboration.
#[derive(Debug, Clone, Copy)]
enum ComputeOp {
    Bin(BinOp, Scalar),
    Un(UnOp, Scalar),
    Cast(Scalar, Scalar),
    Select,
    Math(MathFunc, Scalar),
    WorkItem(WorkItemQuery, u8),
}

impl ComputeOp {
    fn eval(self, ops: &[u64; MAX_OPERANDS], wi: u32, launch: &LaunchCtx) -> u64 {
        match self {
            ComputeOp::Bin(op, ty) => eval::eval_bin(op, ty, ops[0], ops[1]),
            ComputeOp::Un(op, ty) => eval::eval_un(op, ty, ops[0]),
            ComputeOp::Cast(from, to) => eval::eval_cast(from, to, ops[0]),
            ComputeOp::Select => {
                if ops[0] != 0 {
                    ops[1]
                } else {
                    ops[2]
                }
            }
            ComputeOp::Math(func, ty) => eval::eval_math(func, ty, ops),
            ComputeOp::WorkItem(q, dim) => {
                let d = dim as usize;
                let nd = &launch.nd;
                match q {
                    WorkItemQuery::GlobalId => launch.wi_info(wi).gid[d],
                    WorkItemQuery::LocalId => launch.wi_info(wi).lid[d],
                    WorkItemQuery::GroupId => launch.wi_info(wi).group[d],
                    WorkItemQuery::GlobalSize => nd.global[d],
                    WorkItemQuery::LocalSize => nd.local[d],
                    WorkItemQuery::NumGroups => nd.global[d] / nd.local[d],
                    WorkItemQuery::WorkDim => nd.work_dim as u64,
                    WorkItemQuery::GlobalOffset => 0,
                }
            }
        }
    }
}

/// A memory instruction, decoded once at elaboration.
#[derive(Debug, Clone, Copy)]
enum MemAccess {
    Load(Scalar),
    Store(Scalar),
    /// Atomic read-modify-write with `.2` value operands after the address.
    Atomic(AtomicOp, Scalar, u8),
}

impl MemAccess {
    fn request(self, ops: &[u64; MAX_OPERANDS], wi: u32, wg: u32) -> MemRequest {
        let (op, ty) = match self {
            MemAccess::Load(ty) => (MemOp::Load, ty),
            MemAccess::Store(ty) => (MemOp::Store { value: ops[1] }, ty),
            MemAccess::Atomic(op, ty, n) => {
                (MemOp::Atomic { op, operands: ops[1..=n as usize].to_vec() }, ty)
            }
        };
        MemRequest { op, addr: ops[0], ty, wi, wg }
    }
}

/// What a unit does.
#[derive(Debug, Clone, Copy)]
enum UnitOp {
    Source,
    Sink,
    Compute(ComputeOp),
    /// A memory unit; `port` indexes the instance's `PipelineSim::ports`.
    Mem { access: MemAccess, port: u32, value: ValueId },
}

impl UnitOp {
    /// Decodes an instruction, or `None` when no datapath unit executes it.
    fn decode(v: ValueId, kind: &InstKind, port: u32) -> Option<UnitOp> {
        let compute = |op| Some(UnitOp::Compute(op));
        let mem = |access| Some(UnitOp::Mem { access, port, value: v });
        match kind {
            InstKind::Bin { op, ty, .. } => compute(ComputeOp::Bin(*op, *ty)),
            InstKind::Un { op, ty, .. } => compute(ComputeOp::Un(*op, *ty)),
            InstKind::Cast { from, to, .. } => compute(ComputeOp::Cast(*from, *to)),
            InstKind::Select { .. } => compute(ComputeOp::Select),
            InstKind::Math { func, ty, .. } => compute(ComputeOp::Math(*func, *ty)),
            InstKind::WorkItem(q, dim) => compute(ComputeOp::WorkItem(*q, *dim)),
            InstKind::Load { ty, .. } => mem(MemAccess::Load(*ty)),
            InstKind::Store { ty, .. } => mem(MemAccess::Store(*ty)),
            InstKind::Atomic { op, ty, operands, .. } => {
                mem(MemAccess::Atomic(*op, *ty, operands.len() as u8))
            }
            InstKind::Const(_)
            | InstKind::Param(_)
            | InstKind::LocalBase(_)
            | InstKind::PrivBase(_)
            | InstKind::Phi { .. } => None,
        }
    }

    fn kind(self) -> &'static str {
        match self {
            UnitOp::Source => "source",
            UnitOp::Sink => "sink",
            UnitOp::Compute(_) => "compute",
            UnitOp::Mem { .. } => "mem",
        }
    }
}

/// One in-edge of a unit.
#[derive(Debug, Clone, Copy)]
struct InWire {
    edge: u32,
    /// Operand position the edge's value fills (`NO_OPERAND`: none).
    operand: u8,
}

/// What the source drives onto one of its out-edges.
#[derive(Debug, Clone, Copy)]
enum SourceOut {
    /// `token.vals[i]` of the incoming context token.
    LiveIn(usize),
    /// A launch constant (e.g. a uniform branch condition).
    Uniform(u64),
    /// Pure ordering token.
    Order,
}

/// The static description of one unit.
#[derive(Debug)]
struct UnitCode {
    op: UnitOp,
    lf: u32,
    /// In-wires: `PipeCode::ins[ins.0..ins.1]`.
    ins: (u32, u32),
    /// Out-edges: `PipeCode::outs[outs.0..outs.1]`.
    outs: (u32, u32),
    /// Operand template: launch constants pre-filled, in-wire slots 0.
    operands: [u64; MAX_OPERANDS],
}

/// The sink's output with the successor mapping fused in: the outgoing
/// token is `template` with each popped in-slot value written to its
/// out-slots.
#[derive(Debug, Clone, PartialEq)]
struct SinkSlots {
    /// Uniform slots pre-filled, every other slot 0.
    template: Box<[u64]>,
    /// `(in-slot, out-slot)` writes, in in-slot order.
    writes: Vec<(u32, u32)>,
}

impl SinkSlots {
    /// Composes the raw fill — in-slot `s` writes live-out index
    /// `out_pos[s]` of a `width`-slot signature — with `out_map` (`None`:
    /// emit the raw signature).
    fn compose(
        out_pos: &[Option<usize>],
        width: usize,
        out_map: Option<&Mapping>,
    ) -> SinkSlots {
        let map = out_map.filter(|m| !m.identity);
        let template = match map {
            None => vec![0; width].into_boxed_slice(),
            Some(m) => m
                .slots
                .iter()
                .map(|s| match s {
                    Slot::Uniform(u) => *u,
                    Slot::Idx(_) => 0,
                })
                .collect(),
        };
        let mut writes = Vec::new();
        for (s, &pos) in out_pos.iter().enumerate() {
            let Some(p) = pos else { continue };
            match map {
                None => writes.push((s as u32, p as u32)),
                Some(m) => writes.extend(
                    (0..m.slots.len())
                        .filter(|&j| m.slots[j] == Slot::Idx(p))
                        .map(|j| (s as u32, j as u32)),
                ),
            }
        }
        SinkSlots { template, writes }
    }

    /// Builds the outgoing values, taking in-slot `s`'s value from
    /// `pop(s)` for every `s < n_in`, in order.
    fn fill(&self, n_in: usize, mut pop: impl FnMut(usize) -> u64) -> Box<[u64]> {
        let mut vals = self.template.clone();
        let mut w = 0;
        for s in 0..n_in {
            let v = pop(s);
            while let Some(&(ws, out)) = self.writes.get(w) {
                if ws as usize != s {
                    break;
                }
                vals[out as usize] = v;
                w += 1;
            }
        }
        vals
    }
}

/// One basic pipeline lowered into a flat unit table. Built once per
/// launch (it depends on the launch's uniform values) and shared by every
/// datapath instance; it never changes after elaboration, so snapshots
/// share it instead of copying it.
#[derive(Debug)]
pub(crate) struct PipeCode {
    units: Vec<UnitCode>,
    ins: Vec<InWire>,
    outs: Vec<u32>,
    /// Consuming unit of each internal edge.
    consumer: Vec<u32>,
    /// Capacity of each internal edge (`1 + q_e`).
    caps: Vec<usize>,
    /// Per source out-edge value (parallel to the source's outs).
    drive: Vec<SourceOut>,
    sink: SinkSlots,
}

impl PipeCode {
    /// Lowers `bp` for a launch with argument values `params`; the sink
    /// maps its live-out onto `out_map`'s signature (`None`: raw live-out,
    /// used before branch glue).
    ///
    /// # Errors
    ///
    /// [`SimError::InvariantViolation`] (at cycle 0) naming the pipeline
    /// and unit when an instruction has no datapath micro-op, takes more
    /// than [`MAX_OPERANDS`] operands, or is not wired to its operands.
    pub(crate) fn build(
        k: &Kernel,
        bp: &BasicPipeline,
        out_map: Option<&Mapping>,
        params: &[u64],
    ) -> Result<PipeCode, SimError> {
        let dfg = &bp.dfg;
        let err = |ui: usize, what: String| SimError::InvariantViolation {
            cycle: 0,
            what: format!("pipeline {} unit {ui}: {what}", dfg.block),
        };
        let n = dfg.nodes.len();
        let mut ins_of = vec![Vec::new(); n];
        let mut outs_of = vec![Vec::new(); n];
        for (ei, e) in dfg.edges.iter().enumerate() {
            ins_of[e.to.0 as usize].push(ei);
            outs_of[e.from.0 as usize].push(ei);
        }
        let mut code = PipeCode {
            units: Vec::with_capacity(n),
            ins: Vec::new(),
            outs: Vec::new(),
            consumer: dfg.edges.iter().map(|e| e.to.0).collect(),
            caps: bp.fifo_extra.iter().map(|&q| 1 + q as usize).collect(),
            drive: Vec::new(),
            sink: SinkSlots::compose(&[], 0, None),
        };
        let mut mem_units = 0;
        for (ui, node) in dfg.nodes.iter().enumerate() {
            let ins = &ins_of[ui];
            let mut operands = [0; MAX_OPERANDS];
            let mut slot_operand = vec![NO_OPERAND; ins.len()];
            let op = match node {
                Node::Source => {
                    for &ei in &outs_of[ui] {
                        let out = match dfg.edges[ei].kind {
                            EdgeKind::Data(v, _) => match uniform_value(k, v, params) {
                                Some(u) => SourceOut::Uniform(u),
                                None => SourceOut::LiveIn(
                                    dfg.live_in.iter().position(|&l| l == v).ok_or_else(|| {
                                        err(ui, format!("{v} driven by the source but not live-in"))
                                    })?,
                                ),
                            },
                            EdgeKind::Order => SourceOut::Order,
                        };
                        code.drive.push(out);
                    }
                    UnitOp::Source
                }
                Node::Sink => {
                    let out_pos: Vec<Option<usize>> = ins
                        .iter()
                        .map(|&ei| match dfg.edges[ei].kind {
                            EdgeKind::Data(_, pos) => Some(pos as usize),
                            EdgeKind::Order => None,
                        })
                        .collect();
                    code.sink = SinkSlots::compose(&out_pos, dfg.live_out.len(), out_map);
                    UnitOp::Sink
                }
                Node::Instr(v) => {
                    let instr = k.instr(*v);
                    let op = UnitOp::decode(*v, &instr.kind, mem_units).ok_or_else(|| {
                        err(ui, format!("{v} = {:?} has no datapath micro-op", instr.kind))
                    })?;
                    if matches!(op, UnitOp::Mem { .. }) {
                        mem_units += 1;
                    }
                    let mut vs = Vec::new();
                    instr.operands(&mut vs);
                    if vs.len() > MAX_OPERANDS {
                        return Err(err(
                            ui,
                            format!(
                                "{v} takes {} operands; a unit takes at most {MAX_OPERANDS}",
                                vs.len()
                            ),
                        ));
                    }
                    for (pos, &o) in vs.iter().enumerate() {
                        if let Some(u) = uniform_value(k, o, params) {
                            operands[pos] = u;
                            continue;
                        }
                        let wired = |&ei: &usize| {
                            matches!(dfg.edges[ei].kind, EdgeKind::Data(_, p) if p as usize == pos)
                        };
                        let slot = ins.iter().position(wired).ok_or_else(|| {
                            err(ui, format!("operand {pos} of {v} has no in-edge"))
                        })?;
                        slot_operand[slot] = pos as u8;
                    }
                    op
                }
            };
            let ins_start = code.ins.len() as u32;
            code.ins.extend(
                ins.iter()
                    .zip(slot_operand)
                    .map(|(&ei, operand)| InWire { edge: ei as u32, operand }),
            );
            let outs_start = code.outs.len() as u32;
            code.outs.extend(outs_of[ui].iter().map(|&ei| ei as u32));
            code.units.push(UnitCode {
                op,
                lf: bp.units[ui].lf,
                ins: (ins_start, code.ins.len() as u32),
                outs: (outs_start, code.outs.len() as u32),
                operands,
            });
        }
        Ok(code)
    }

    fn ins(&self, u: &UnitCode) -> &[InWire] {
        &self.ins[u.ins.0 as usize..u.ins.1 as usize]
    }

    fn outs(&self, u: &UnitCode) -> &[u32] {
        &self.outs[u.outs.0 as usize..u.outs.1 as usize]
    }
}

/// A unit's finished results waiting for out-edge space, oldest first,
/// each with the cycle it becomes emittable.
type Finished = VecDeque<(u64, Micro)>;

/// One memory unit's port and its outstanding requests.
#[derive(Debug, Clone)]
struct MemPort {
    target: MemTarget,
    port: PortId,
    /// Work-items with an issued request awaiting a response, oldest first.
    pending: VecDeque<(u32, u32)>,
}

/// Statistics of one pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Tokens that completed the pipeline.
    pub completed: u64,
    /// Cycles any unit wanted to fire but an output channel was full
    /// (Case-2 stalls, §IV-C).
    pub output_stalls: u64,
    /// Cycles a memory unit could not issue (port busy or `L_F` reached —
    /// Case-1 stalls).
    pub issue_stalls: u64,
}

/// Simulates one basic pipeline of one datapath instance.
#[derive(Debug, Clone)]
pub struct PipelineSim {
    /// External input channel (tokens with the block's live-in signature).
    pub in_chan: ChanId,
    /// External output channel.
    pub out_chan: ChanId,
    code: Arc<PipeCode>,
    /// Per unit.
    finished: Vec<Finished>,
    /// Per memory unit, in unit order.
    ports: Vec<MemPort>,
    edges: Channels<Micro>,
    /// Per-unit activity summary (see [`Activity`]).
    act: Vec<Activity>,
    /// Tokens inside the pipeline: on internal edges, finished, or
    /// awaiting a memory response.
    holding: usize,
    /// Statistics.
    pub stats: PipelineStats,
    /// Per-unit cycle attribution, allocated only when profiling is on.
    unit_stats: Option<Vec<CycleBreakdown>>,
}

/// Exclusive per-cycle activity classification of one unit.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Act {
    Busy,
    IssueStall,
    OutputStall,
    Idle,
}

/// What the output stage of a unit did this cycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Drain {
    /// No finished token was due.
    NoneReady,
    /// A finished token moved onto the out edges.
    Emitted,
    /// A finished token was due but an out edge was full (Case-2).
    Blocked,
}

/// What a unit could act on, summarised in 16 contiguous bytes.
///
/// A unit can act in a cycle only if its oldest finished result is due,
/// a memory response may be waiting, or every in-edge holds a token (a
/// unit pops all of its in-edges at once). When none holds, its tick is
/// a no-op apart from idle attribution, so the fast scheduler skips it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Activity {
    /// Ready cycle of the oldest finished result (`u64::MAX`: none).
    due: u64,
    /// In-edges without a token; a unit without in-edges never fires, so
    /// its count starts at 1.
    missing: u32,
    /// Requests awaiting a memory response.
    pending: u32,
}

impl Activity {
    fn idle(self, now: u64) -> bool {
        self.due > now && self.pending == 0 && self.missing > 0
    }
}

/// The internal edges plus the activity counters that every push, pop,
/// finished result and memory request keeps current.
struct Wires<'a> {
    edges: &'a mut Channels<Micro>,
    act: &'a mut [Activity],
    holding: &'a mut usize,
    consumer: &'a [u32],
}

impl Wires<'_> {
    fn push(&mut self, e: u32, m: Micro) {
        self.edges.push(e as usize, m);
        *self.holding += 1;
        if self.edges[e as usize].len() == 1 {
            self.act[self.consumer[e as usize] as usize].missing -= 1;
        }
    }

    fn pop(&mut self, e: u32) -> Micro {
        let m = self.edges.pop(e as usize);
        *self.holding -= 1;
        if self.edges[e as usize].is_empty() {
            self.act[self.consumer[e as usize] as usize].missing += 1;
        }
        m
    }

    /// Queues a finished result of unit `ui`, emittable from `ready`.
    fn finish(&mut self, q: &mut Finished, ui: usize, ready: u64, m: Micro) {
        if q.is_empty() {
            self.act[ui].due = ready;
        }
        q.push_back((ready, m));
        *self.holding += 1;
    }

    /// Removes unit `ui`'s oldest finished result.
    fn retire_front(&mut self, q: &mut Finished, ui: usize) {
        q.pop_front();
        self.act[ui].due = q.front().map_or(u64::MAX, |&(ready, _)| ready);
        *self.holding -= 1;
    }

    /// Records a request unit `ui` issued for work-item `(wi, wg)`.
    fn issue(&mut self, mp: &mut MemPort, ui: usize, wi: u32, wg: u32) {
        mp.pending.push_back((wi, wg));
        self.act[ui].pending += 1;
        *self.holding += 1;
    }

    /// Turns unit `ui`'s oldest pending request into a finished result
    /// carrying the response `val`, emittable at once.
    fn respond(&mut self, q: &mut Finished, mp: &mut MemPort, ui: usize, now: u64, val: u64) {
        let (wi, wg) = mp.pending.pop_front().expect("response without pending request");
        self.act[ui].pending -= 1;
        *self.holding -= 1;
        self.finish(q, ui, now, Micro { wi, wg, val });
    }

    fn can_pop_all(&self, ins: &[InWire]) -> bool {
        !ins.is_empty() && ins.iter().all(|w| self.edges[w.edge as usize].can_pop())
    }

    fn can_push_all(&self, outs: &[u32]) -> bool {
        outs.iter().all(|&e| self.edges[e as usize].can_push())
    }

    /// Pops one token from every in-wire into a copy of the operand
    /// template.
    fn pop_operands(
        &mut self,
        ins: &[InWire],
        mut ops: [u64; MAX_OPERANDS],
    ) -> (u32, u32, [u64; MAX_OPERANDS]) {
        let (mut wi, mut wg) = (0, 0);
        for (i, w) in ins.iter().enumerate() {
            let m = self.pop(w.edge);
            debug_assert!(i == 0 || m.wi == wi, "unit received interleaved work-items");
            wi = m.wi;
            wg = m.wg;
            if w.operand != NO_OPERAND {
                ops[w.operand as usize] = m.val;
            }
        }
        (wi, wg, ops)
    }

    /// The output stage: emits the oldest finished result once it is due
    /// and every out-edge has room.
    fn drain(
        &mut self,
        q: &mut Finished,
        ui: usize,
        outs: &[u32],
        now: u64,
        stats: &mut PipelineStats,
        mult: u64,
    ) -> Drain {
        match q.front() {
            Some(&(ready, m)) if ready <= now => {
                if !self.can_push_all(outs) {
                    stats.output_stalls += mult;
                    return Drain::Blocked;
                }
                self.retire_front(q, ui);
                for &e in outs {
                    self.push(e, m);
                }
                Drain::Emitted
            }
            _ => Drain::NoneReady,
        }
    }
}

impl PipelineSim {
    /// Instantiates `code` for one datapath instance. `port_of` assigns
    /// each memory unit, in unit order, its memory target and port.
    pub(crate) fn new(
        code: Arc<PipeCode>,
        in_chan: ChanId,
        out_chan: ChanId,
        profile: bool,
        mut port_of: impl FnMut(ValueId) -> (MemTarget, PortId),
    ) -> PipelineSim {
        let ports = code
            .units
            .iter()
            .filter_map(|u| match u.op {
                UnitOp::Mem { value, .. } => {
                    let (target, port) = port_of(value);
                    Some(MemPort { target, port, pending: VecDeque::new() })
                }
                _ => None,
            })
            .collect();
        let edges = Channels::with_capacities(&code.caps);
        let n = code.units.len();
        let act = code
            .units
            .iter()
            .map(|u| Activity {
                due: u64::MAX,
                missing: (u.ins.1 - u.ins.0).max(1),
                pending: 0,
            })
            .collect();
        PipelineSim {
            in_chan,
            out_chan,
            finished: vec![VecDeque::new(); n],
            ports,
            edges,
            act,
            holding: 0,
            stats: PipelineStats::default(),
            unit_stats: profile.then(|| vec![CycleBreakdown::default(); n]),
            code,
        }
    }

    /// Per-unit cycle attribution (`None` unless built with profiling).
    pub(crate) fn unit_profiles(&self) -> Option<Vec<UnitProfile>> {
        let us = self.unit_stats.as_ref()?;
        Some(
            self.code
                .units
                .iter()
                .enumerate()
                .map(|(i, u)| UnitProfile {
                    unit: i,
                    kind: u.op.kind().to_string(),
                    cycles: us[i],
                })
                .collect(),
        )
    }

    /// Every memory unit with its index.
    fn mem_units(&self) -> impl Iterator<Item = (usize, &MemPort)> + '_ {
        self.code.units.iter().enumerate().filter_map(|(i, u)| match u.op {
            UnitOp::Mem { port, .. } => Some((i, &self.ports[port as usize])),
            _ => None,
        })
    }

    /// Work-items unit `ui` holds: finished or awaiting a response.
    fn held(&self, ui: usize) -> usize {
        self.finished[ui].len() + self.act[ui].pending as usize
    }

    /// Issue-stall cycles per memory unit with its static target, for the
    /// bottleneck analyzer (empty unless built with profiling).
    pub(crate) fn mem_unit_issue_stalls(&self) -> Vec<(MemTarget, u64)> {
        let Some(us) = self.unit_stats.as_ref() else { return Vec::new() };
        self.mem_units().map(|(i, mp)| (mp.target, us[i].issue_stall)).collect()
    }

    /// Whether the pipeline holds no work-items.
    pub fn is_empty(&self) -> bool {
        self.holding == 0
    }

    /// Total work-item tokens inside the pipeline (units + internal edges).
    pub fn holding(&self) -> usize {
        self.holding
    }

    /// Memory targets this pipeline is currently waiting on: one entry per
    /// memory unit with issued-but-unanswered requests (target, count).
    pub fn mem_waits(&self) -> Vec<(MemTarget, usize)> {
        self.mem_units()
            .filter(|(_, mp)| !mp.pending.is_empty())
            .map(|(_, mp)| (mp.target, mp.pending.len()))
            .collect()
    }

    /// Per-unit hold state for deadlock forensics: `(unit index, kind,
    /// held, capacity L_F + 1)` for every unit currently holding tokens.
    pub fn unit_holds(&self) -> Vec<(usize, &'static str, usize, usize)> {
        self.code
            .units
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.held(i) > 0)
            .map(|(i, u)| (i, u.op.kind(), self.held(i), u.lf as usize + 1))
            .collect()
    }

    /// Memory targets this pipeline wants to issue to but cannot: a unit
    /// has operands ready and free capacity, yet the target refuses the
    /// request (port latch busy or jammed). Distinguishes "waiting on a
    /// wedged cache" from ordinary pipeline stalls in the wait-for graph.
    pub fn mem_issue_blocked(&self, mem: &MemorySystem) -> Vec<MemTarget> {
        self.mem_units()
            .filter(|&(i, mp)| {
                let u = &self.code.units[i];
                let ins = self.code.ins(u);
                let ready =
                    !ins.is_empty() && ins.iter().all(|w| self.edges[w.edge as usize].can_pop());
                let has_room = self.held(i) < u.lf as usize + 1;
                ready && has_room && !mem.can_request(mp.target, mp.port)
            })
            .map(|(_, mp)| mp.target)
            .collect()
    }

    /// Checks the fully-pipelined capacity invariant (§IV-C): no unit may
    /// ever hold more than `L_F + 1` work-items — and that the activity
    /// counters match a recount. Returns a description of the first
    /// violation found.
    pub fn check_capacity_invariant(&self) -> Option<String> {
        let mut total = 0;
        for (i, u) in self.code.units.iter().enumerate() {
            let cap = u.lf as usize + 1;
            if self.held(i) > cap {
                return Some(format!(
                    "unit {i} holds {} work-items, capacity L_F+1 = {cap}",
                    self.held(i)
                ));
            }
            let ins = self.code.ins(u);
            let empty = ins.iter().filter(|w| self.edges[w.edge as usize].is_empty()).count();
            let pending = match u.op {
                UnitOp::Mem { port, .. } => self.ports[port as usize].pending.len(),
                _ => 0,
            };
            let recount = Activity {
                due: self.finished[i].front().map_or(u64::MAX, |&(ready, _)| ready),
                missing: (empty + ins.is_empty() as usize) as u32,
                pending: pending as u32,
            };
            if self.act[i] != recount {
                return Some(format!(
                    "unit {i} activity {:?} diverged from the recount {recount:?}",
                    self.act[i]
                ));
            }
            total += self.finished[i].len()
                + pending
                + ins.iter().map(|w| self.edges[w.edge as usize].len()).sum::<usize>();
        }
        (self.holding != total).then(|| {
            format!("holding counter {} diverged from the recount {total}", self.holding)
        })
    }

    /// Whether the pipeline provably does nothing this cycle: it holds no
    /// work and its input channel offers no token.
    pub fn quiescent(&self, ext: &[Channel<Token>]) -> bool {
        self.is_empty() && !ext[self.in_chan.0].can_pop()
    }

    /// The earliest future cycle at which a unit-internal completion
    /// becomes emittable (the only time-driven transition inside a
    /// pipeline); `None` when no unit holds a future-dated result.
    pub fn next_internal_event(&self, now: u64) -> Option<u64> {
        self.act.iter().map(|a| a.due).filter(|&r| r > now && r != u64::MAX).min()
    }

    /// Advances one cycle. Returns whether any token moved: a unit fired,
    /// a memory response was delivered, or a completed result drained onto
    /// an edge or the output channel. With `all` unset only units that
    /// can act tick and only touched edges refresh their snapshot (exact
    /// when nothing observes idle ticks, i.e. with profiling off); with
    /// `all` set every unit ticks and every edge refreshes.
    pub fn tick(
        &mut self,
        now: u64,
        ext: &mut Channels<Token>,
        mem: &mut MemorySystem,
        launch: &LaunchCtx,
        all: bool,
    ) -> bool {
        self.step(now, ext, mem, launch, 1, all)
    }

    /// Replays `cycles` consecutive stalled cycles in one pass: every
    /// stall counter a dense tick would bump gets bumped `cycles` times,
    /// and nothing moves. Only valid when the machine state is frozen
    /// across the window (the tick at `now` reported no movement and no
    /// internal completion or memory response matures inside it), which
    /// makes every per-cycle decision identical to the one at `now`.
    pub fn replay_stalls(
        &mut self,
        now: u64,
        ext: &mut Channels<Token>,
        mem: &mut MemorySystem,
        launch: &LaunchCtx,
        cycles: u64,
    ) {
        if cycles == 0 {
            return;
        }
        let moved = self.step(now, ext, mem, launch, cycles, false);
        debug_assert!(!moved, "replay of a stalled pipeline must not move tokens");
    }

    fn step(
        &mut self,
        now: u64,
        ext: &mut Channels<Token>,
        mem: &mut MemorySystem,
        launch: &LaunchCtx,
        mult: u64,
        all: bool,
    ) -> bool {
        if all {
            self.edges.begin_cycle_all();
        } else {
            self.edges.begin_cycle();
        }
        let src_ready = ext[self.in_chan.0].can_pop();
        let mut moved = false;
        for ui in 0..self.act.len() {
            if !all && self.act[ui].idle(now) && !(ui == SOURCE && src_ready) {
                continue;
            }
            moved |= self.tick_unit(ui, now, ext, mem, launch, mult);
        }
        moved
    }

    fn tick_unit(
        &mut self,
        ui: usize,
        now: u64,
        ext: &mut Channels<Token>,
        mem: &mut MemorySystem,
        launch: &LaunchCtx,
        mult: u64,
    ) -> bool {
        let code = &*self.code;
        let u = &code.units[ui];
        let (ins, outs) = (code.ins(u), code.outs(u));
        let cap = u.lf as usize + 1;
        let q = &mut self.finished[ui];
        let stats = &mut self.stats;
        let mut io = Wires {
            edges: &mut self.edges,
            act: &mut self.act,
            holding: &mut self.holding,
            consumer: &code.consumer,
        };

        let (act, moved) = match u.op {
            UnitOp::Source => {
                // Fire: needs an input token and space on every out edge.
                if !ext[self.in_chan.0].can_pop() {
                    (Act::Idle, false)
                } else if !io.can_push_all(outs) {
                    stats.output_stalls += mult;
                    (Act::OutputStall, false)
                } else {
                    let t = ext.pop(self.in_chan.0);
                    for (&e, d) in outs.iter().zip(&code.drive) {
                        let val = match *d {
                            SourceOut::LiveIn(i) => t.vals[i],
                            SourceOut::Uniform(v) => v,
                            SourceOut::Order => 0,
                        };
                        io.push(e, Micro { wi: t.wi, wg: t.wg, val });
                    }
                    (Act::Busy, true)
                }
            }
            UnitOp::Sink => {
                if !io.can_pop_all(ins) {
                    (Act::Idle, false)
                } else if !ext[self.out_chan.0].can_push() {
                    stats.output_stalls += mult;
                    (Act::OutputStall, false)
                } else {
                    let (mut wi, mut wg) = (0, 0);
                    let vals = code.sink.fill(ins.len(), |s| {
                        let m = io.pop(ins[s].edge);
                        debug_assert!(s == 0 || m.wi == wi, "sink received interleaved work-items");
                        wi = m.wi;
                        wg = m.wg;
                        m.val
                    });
                    ext.push(self.out_chan.0, Token { wi, wg, vals });
                    stats.completed += 1;
                    (Act::Busy, true)
                }
            }
            UnitOp::Compute(op) => {
                let drained = io.drain(q, ui, outs, now, stats, mult);
                // Fire stage (fully pipelined: capacity L_F + 1).
                let inputs_ready = io.can_pop_all(ins);
                let fired = inputs_ready && q.len() < cap;
                if fired {
                    let (wi, wg, ops) = io.pop_operands(ins, u.operands);
                    let val = op.eval(&ops, wi, launch);
                    io.finish(q, ui, now + u.lf as u64, Micro { wi, wg, val });
                }
                let act = if drained == Drain::Blocked {
                    Act::OutputStall
                } else if inputs_ready && !fired {
                    Act::IssueStall
                } else if fired || drained == Drain::Emitted || !q.is_empty() {
                    Act::Busy
                } else {
                    Act::Idle
                };
                (act, fired || drained == Drain::Emitted)
            }
            UnitOp::Mem { access, port, .. } => {
                let mp = &mut self.ports[port as usize];
                let (target, port) = (mp.target, mp.port);
                // Deliver a memory response (at most one per cycle).
                let mut delivered = false;
                if let Some(resp) = mem.pop_response(target, port, now) {
                    io.respond(q, mp, ui, now, resp.value);
                    delivered = true;
                }
                let drained = io.drain(q, ui, outs, now, stats, mult);
                // Fire stage: the unit never stalls while holding ≤ L_F
                // work-items (§IV-C); enforce the capacity L_F + 1.
                let inputs_ready = io.can_pop_all(ins);
                let held = q.len() + mp.pending.len();
                let mut fired = false;
                if inputs_ready {
                    if held < cap && mem.can_request(target, port) {
                        let (wi, wg, ops) = io.pop_operands(ins, u.operands);
                        mem.request(target, port, access.request(&ops, wi, wg), now);
                        io.issue(mp, ui, wi, wg);
                        fired = true;
                    } else {
                        stats.issue_stalls += mult;
                    }
                }
                let act = if drained == Drain::Blocked {
                    Act::OutputStall
                } else if inputs_ready && !fired {
                    Act::IssueStall
                } else if fired
                    || delivered
                    || drained == Drain::Emitted
                    || !q.is_empty()
                    || !mp.pending.is_empty()
                {
                    Act::Busy
                } else {
                    Act::Idle
                };
                (act, fired || delivered || drained == Drain::Emitted)
            }
        };

        if let Some(us) = self.unit_stats.as_mut() {
            let c = &mut us[ui];
            match act {
                Act::Busy => c.busy += mult,
                Act::IssueStall => c.issue_stall += mult,
                Act::OutputStall => c.output_stall += mult,
                Act::Idle => c.idle += mult,
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// splitmix64: derives the test case's shape from one seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest! {
        /// The fused sink slot table is the raw sink fill followed by
        /// `Mapping::apply`: random widths, order edges (no live-out
        /// position), repeated positions, identity maps, raw (`None`)
        /// sinks, and maps mixing index and uniform slots.
        #[test]
        fn fused_sink_slots_equal_raw_fill_then_mapping(
            seed in any::<u64>(),
            width in 0usize..6,
            n_in in 0usize..8,
            map_kind in 0u8..3,
            map_width in 0usize..7,
        ) {
            let mut rng = seed;
            let out_pos: Vec<Option<usize>> = (0..n_in)
                .map(|_| {
                    let r = next(&mut rng);
                    (width > 0 && !r.is_multiple_of(4)).then(|| (r >> 8) as usize % width)
                })
                .collect();
            let map = match map_kind {
                0 => None,
                1 => Some(Mapping::identity()),
                _ => Some(Mapping {
                    slots: (0..map_width)
                        .map(|_| {
                            let r = next(&mut rng);
                            if width > 0 && !r.is_multiple_of(3) {
                                Slot::Idx((r >> 8) as usize % width)
                            } else {
                                Slot::Uniform(r >> 4)
                            }
                        })
                        .collect(),
                    identity: false,
                }),
            };
            let inputs: Vec<u64> = (0..n_in).map(|_| next(&mut rng)).collect();

            let mut raw = vec![0u64; width];
            for (s, pos) in out_pos.iter().enumerate() {
                if let Some(p) = pos {
                    raw[*p] = inputs[s];
                }
            }
            let raw = Token { wi: 3, wg: 1, vals: raw.into_boxed_slice() };
            let expected = match &map {
                Some(m) => m.apply(raw),
                None => raw,
            };

            let fused = SinkSlots::compose(&out_pos, width, map.as_ref());
            let mut popped = Vec::new();
            let vals = fused.fill(n_in, |s| {
                popped.push(s);
                inputs[s]
            });
            prop_assert_eq!(popped, (0..n_in).collect::<Vec<_>>());
            prop_assert_eq!(&*vals, &*expected.vals);
        }
    }
}
