//! The tick program: the machine's component graph lowered once, at
//! elaboration, into a flat op stream, and the dispatch loop that runs
//! one cycle from it (both [`crate::machine::Scheduler`]s use it).
//!
//! The component graph is *resolved* at build time — every channel,
//! decision FIFO, and loop counter a component touches is a fixed dense
//! index. [`TickProgram::lower`] emits one compact [`Op`] per component,
//! in component order, with the channel indices its activity test needs
//! pre-resolved into the operand slots. [`exec_cycle`] decides
//! skip-or-tick from the op stream alone and only dereferences the big
//! `Comp` value when the component actually executes, so a mostly-idle
//! machine touches almost none of its component memory per cycle.
//!
//! ## Opcode table
//!
//! | opcode    | component            | `a`          | `b`            | `c`       |
//! |-----------|----------------------|--------------|----------------|-----------|
//! | `Unit`    | pipelined datapath   | input chan   | —              | —         |
//! | `Branch`  | cond. branch glue    | input chan   | —              | —         |
//! | `Select`  | merge glue           | taken chan   | not-taken chan | —         |
//! | `Enter`   | loop-entry glue      | output chan  | backedge chan  | outside chan |
//! | `Exit`    | loop-exit glue       | input chan   | output chan    | —         |
//! | `Barrier` | work-group barrier   | input chan   | output chan    | —         |
//! | `LineBuf` | line-buffer observer | —            | —              | —         |
//!
//! ## Activity tests and the hot-state byte
//!
//! With skipping on, an op is skipped when its component provably cannot
//! act this cycle; the skipped tick would only have advanced attribution
//! counters, which nothing reads while the profiler is off. Each test
//! reads exactly what the component's own tick gates on (branch and
//! select pop through `front()`, which ignores jamming, so their tests
//! do too). Two tests need component-internal state — a pipeline's
//! emptiness and a barrier's release state — which is kept in one byte
//! per op (`TickProgram::hot`), rewritten after every tick of its
//! component. That is sound because both facts change only inside the
//! component's own tick: fault injection perturbs channels, caches and
//! DRAM, never component internals. [`crate::machine::Machine::restore`]
//! rebuilds the bytes from the restored state ([`TickProgram::resync`]).
//! `LineBuf` has no hot byte: it only observes a line buffer that changes
//! on memory ticks, and its tick only advances attribution, so it is
//! skipped whenever skipping is on.

use crate::channel::Channels;
use crate::glue::{BarrierUnit, DecisionFifo};
use crate::launch::LaunchCtx;
use crate::machine::Comp;
use crate::memsys::MemorySystem;
use crate::token::Token;

/// Which tick routine an [`Op`] dispatches to (one per [`Comp`] variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum OpCode {
    /// A pipelined datapath segment (`Comp::Pipe`).
    Unit,
    /// Conditional-branch glue (`Comp::Branch`).
    Branch,
    /// Merge glue (`Comp::Select`).
    Select,
    /// Loop-entry glue (`Comp::Enter`).
    Enter,
    /// Loop-exit glue (`Comp::Exit`).
    Exit,
    /// Work-group barrier (`Comp::Barrier`).
    Barrier,
    /// Line-buffer attribution observer (`Comp::LineBuf`).
    LineBuf,
}

/// `hot` bit: the pipeline holds at least one work-item token.
const HOT_NONEMPTY: u8 = 1 << 0;
/// `hot` bit: the barrier is mid-release (`releasing > 0`).
const HOT_RELEASING: u8 = 1 << 1;
/// `hot` bit: the barrier holds a full work-group and is not yet
/// releasing (`releasing == 0 && buf.len() >= wg_size`).
const HOT_FULL_GROUP: u8 = 1 << 2;

/// One lowered component: opcode, component index, and the pre-resolved
/// channel indices its activity test reads (see the opcode table).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    code: OpCode,
    comp: u32,
    a: u32,
    b: u32,
    c: u32,
}

/// A lowered tick program: the static op stream plus the per-op hot
/// byte. The ops never change; the hot bytes are maintained by
/// [`exec_cycle`] and rebuilt on snapshot restore.
#[derive(Debug, Clone)]
pub(crate) struct TickProgram {
    /// One op per component, in component order (the order is
    /// semantically load-bearing: loop counters and decision FIFOs are
    /// read and written non-snapshot within a cycle).
    ops: Vec<Op>,
    /// Per-op hot-state byte (`HOT_*` bits), parallel to `ops`.
    hot: Vec<u8>,
    /// Op boundaries of the groups: group `g` is
    /// `ops[bounds[g]..bounds[g + 1]]`. Datapath instance `i` is group
    /// `i`; the line-buffer observers form the last group.
    bounds: Vec<usize>,
}

impl TickProgram {
    /// Lowers a resolved component vector into a tick program, preserving
    /// component order, and initializes the hot bytes from it.
    /// `inst_ends[i]` is one past the last component of instance `i`.
    pub(crate) fn lower(comps: &[Comp], inst_ends: &[usize]) -> TickProgram {
        let ops = comps
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let ch = |id: crate::channel::ChanId| id.0 as u32;
                let (code, a, b, c) = match c {
                    Comp::Pipe(p) => (OpCode::Unit, ch(p.in_chan), 0, 0),
                    Comp::Branch(x) => (OpCode::Branch, ch(x.inp), 0, 0),
                    Comp::Select(x) => {
                        (OpCode::Select, ch(x.from_taken), ch(x.from_not_taken), 0)
                    }
                    Comp::Enter(x) => {
                        (OpCode::Enter, ch(x.out), ch(x.backedge), ch(x.outside))
                    }
                    Comp::Exit(x) => (OpCode::Exit, ch(x.inp), ch(x.out), 0),
                    Comp::Barrier(x) => (OpCode::Barrier, ch(x.inp), ch(x.out), 0),
                    Comp::LineBuf(_) => (OpCode::LineBuf, 0, 0, 0),
                };
                Op { code, comp: i as u32, a, b, c }
            })
            .collect();
        let bounds = std::iter::once(0)
            .chain(inst_ends.iter().copied())
            .chain(std::iter::once(comps.len()))
            .collect();
        let mut prog = TickProgram { ops, hot: vec![0; comps.len()], bounds };
        prog.resync(comps);
        prog
    }

    /// Rebuilds the hot bytes from the component vector. Called after a
    /// snapshot restore, which replaces the components wholesale.
    pub(crate) fn resync(&mut self, comps: &[Comp]) {
        debug_assert_eq!(self.ops.len(), comps.len(), "program lowered from these components");
        for (hot, c) in self.hot.iter_mut().zip(comps) {
            *hot = match c {
                Comp::Pipe(p) => pipe_hot(p),
                Comp::Barrier(x) => barrier_hot(x),
                _ => 0,
            };
        }
    }
}

fn pipe_hot(p: &crate::units::PipelineSim) -> u8 {
    if p.is_empty() {
        0
    } else {
        HOT_NONEMPTY
    }
}

fn barrier_hot(x: &BarrierUnit) -> u8 {
    if x.releasing > 0 {
        HOT_RELEASING
    } else if x.buf.len() as u64 >= x.wg_size {
        HOT_FULL_GROUP
    } else {
        0
    }
}

/// Executes every component's tick for one cycle, in component order,
/// skipping components (and, inside pipelines, units) that cannot act
/// when `skip` is set. With `skip` set, `busy(g)` must hold for every
/// group that contains a token; the others are skipped whole. Returns
/// whether any pipeline moved a token (glue moves tokens only through
/// channels, which the caller observes via [`Channels::touched`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_cycle(
    prog: &mut TickProgram,
    now: u64,
    chans: &mut Channels<Token>,
    comps: &mut [Comp],
    fifos: &mut [DecisionFifo],
    counters: &mut [u64],
    mem: &mut MemorySystem,
    launch: &LaunchCtx,
    skip: bool,
    busy: impl Fn(usize) -> bool,
) -> bool {
    let mut moved = false;
    for (g, bounds) in prog.bounds.windows(2).enumerate() {
        // A group without tokens has every test below false.
        if skip && !busy(g) {
            continue;
        }
        let span = bounds[0]..bounds[1];
        for (op, hot) in prog.ops[span.clone()].iter().zip(prog.hot[span].iter_mut()) {
            let (a, b, c) = (op.a as usize, op.b as usize, op.c as usize);
            // The component is dereferenced only once its test says it acts.
            let comp = op.comp as usize;
            match op.code {
                OpCode::Unit => {
                    // Empty and nothing offered on the input channel.
                    if skip && *hot & HOT_NONEMPTY == 0 && !chans[a].can_pop() {
                        continue;
                    }
                    let Comp::Pipe(p) = &mut comps[comp] else { unreachable!("Unit op") };
                    moved |= p.tick(now, chans, mem, launch, !skip);
                    *hot = pipe_hot(p);
                }
                OpCode::Branch => {
                    if skip && chans[a].front().is_none() {
                        continue;
                    }
                    let Comp::Branch(x) = &mut comps[comp] else { unreachable!("Branch op") };
                    x.tick(chans, fifos);
                }
                OpCode::Select => {
                    if skip && chans[a].front().is_none() && chans[b].front().is_none() {
                        continue;
                    }
                    let Comp::Select(x) = &mut comps[comp] else { unreachable!("Select op") };
                    x.tick(chans, fifos);
                }
                OpCode::Enter => {
                    if skip
                        && (!chans[a].can_push()
                            || (!chans[b].can_pop() && chans[c].front().is_none()))
                    {
                        continue;
                    }
                    let Comp::Enter(x) = &mut comps[comp] else { unreachable!("Enter op") };
                    x.tick(chans, counters);
                }
                OpCode::Exit => {
                    if skip && (!chans[a].can_pop() || !chans[b].can_push()) {
                        continue;
                    }
                    let Comp::Exit(x) = &mut comps[comp] else { unreachable!("Exit op") };
                    x.tick(chans, counters);
                }
                OpCode::Barrier => {
                    // Input available, or a full group waiting to start its
                    // release, or a release in progress with room downstream.
                    let can_act = chans[a].can_pop()
                        || *hot & HOT_FULL_GROUP != 0
                        || (*hot & HOT_RELEASING != 0 && chans[b].can_push());
                    if skip && !can_act {
                        continue;
                    }
                    let Comp::Barrier(x) = &mut comps[comp] else { unreachable!("Barrier op") };
                    x.tick(chans);
                    *hot = barrier_hot(x);
                }
                OpCode::LineBuf => {
                    if skip {
                        continue;
                    }
                    let Comp::LineBuf(u) = &mut comps[comp] else { unreachable!("LineBuf op") };
                    u.tick(mem);
                }
            }
        }
    }
    moved
}
