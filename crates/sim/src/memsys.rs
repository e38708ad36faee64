//! The assembled memory subsystem of one kernel execution (§V, Fig. 9):
//! caches (per buffer × datapath when possible), sliding-window line
//! buffers (per window × datapath), local-memory blocks (per variable ×
//! datapath), private memory, and the shared DRAM. Line buffers, like
//! caches, are memory components only: they tick inside
//! [`MemorySystem::tick`], and the profiler attributes their cycles
//! from their state here.

use crate::launch::LaunchCtx;
use soff_datapath::Datapath;
use soff_ir::ir::Kernel;
use soff_ir::mem::GlobalMemory;
use soff_ir::pointer::{self, PointerAnalysis};
use soff_mem::{
    Cache, CacheConfig, CacheStats, Dram, DramConfig, LineBufStats, LineBuffer, LocalBlock,
    MemRequest, MemResponse, PortId, PrivateMemory,
};
use std::collections::VecDeque;

/// Which memory a functional unit's interface is wired to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemTarget {
    /// Cache index within [`MemorySystem::caches`].
    Cache(usize),
    /// Line-buffer index within [`MemorySystem::line_bufs`].
    LineBuf(usize),
    /// Local block index within [`MemorySystem::locals`].
    Local(usize),
    /// The private memory.
    Private,
}

/// The full memory subsystem.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    /// All caches (shared across datapath instances when the kernel uses
    /// atomics, per instance otherwise, §V-A).
    pub caches: Vec<Cache>,
    /// Shift-register line buffers, one per (sliding window × built
    /// instance), window-major (see DESIGN.md §13). The cache of a
    /// window-served group is still built but receives no ports —
    /// synthesis would elide it; keeping it inert preserves cache indices
    /// for fault plans and per-cache statistics.
    pub line_bufs: Vec<LineBuffer>,
    /// All local blocks (always per instance).
    pub locals: Vec<LocalBlock>,
    /// Private memory (keyed by work-item serial).
    pub private: PrivateMemory,
    /// Shared external memory.
    pub dram: Dram,
    /// Private-memory responses per port, each with its ready cycle.
    responses_private: Vec<VecDeque<(u64, MemResponse)>>,
    /// Private-access latency (the issuing unit applies its own `L_F`).
    private_latency: u32,
    /// Requests ever accepted by the caches and line buffers (the memory
    /// share of the machine's progress watchdog), kept current by `tick`.
    accesses: u64,
}

/// Describes how caches are laid out for a kernel: the group each memory
/// instruction belongs to and whether caches are shared across instances.
#[derive(Debug, Clone)]
pub struct CachePlan {
    /// Cache group per memory instruction (`None` for non-global).
    pub group_of_value: Vec<Option<usize>>,
    /// Number of distinct groups.
    pub num_groups: usize,
    /// Whether groups are shared across datapath instances (atomics or
    /// unattributable pointers present).
    pub shared: bool,
}

impl CachePlan {
    /// Computes the plan from the pointer analysis (§V-A).
    pub fn plan(kernel: &Kernel, pa: &PointerAnalysis) -> CachePlan {
        let (groups, unknown) = pointer::global_cache_groups(kernel, pa);
        let num_groups = groups.iter().flatten().copied().max().map(|m| m + 1).unwrap_or(0);
        CachePlan {
            group_of_value: groups,
            num_groups: num_groups.max(if unknown { 1 } else { 0 }),
            shared: kernel.uses_atomics || unknown,
        }
    }

    /// Index of the cache for `(group, instance)` given `num_instances`.
    pub fn cache_index(&self, group: usize, instance: usize) -> usize {
        if self.shared {
            group
        } else {
            instance * self.num_groups + group
        }
    }

    /// Total number of cache instances for `num_instances` datapaths.
    pub fn total_caches(&self, num_instances: usize) -> usize {
        if self.shared {
            self.num_groups
        } else {
            self.num_groups * num_instances
        }
    }
}

impl MemorySystem {
    /// Builds the memory subsystem for `num_instances` datapath copies.
    pub fn build(
        kernel: &Kernel,
        dp: &Datapath,
        plan: &CachePlan,
        num_instances: usize,
        cache_cfg: CacheConfig,
        dram_cfg: DramConfig,
        launch: &LaunchCtx,
    ) -> MemorySystem {
        let caches = (0..plan.total_caches(num_instances))
            .map(|_| Cache::new(cache_cfg))
            .collect();
        // Local blocks: per (instance, var), each sized with wg slots.
        let mut locals = Vec::new();
        for _inst in 0..num_instances {
            for (vi, var) in kernel.local_vars.iter().enumerate() {
                let size = launch.local_sizes.get(vi).copied().unwrap_or(var.size);
                // Connected units: count accesses to this var (approx. by
                // counting local-memory instructions; fine for banking).
                let n_units = kernel
                    .values
                    .iter()
                    .filter(|i| {
                        i.mem_space() == Some(soff_frontend::types::AddressSpace::Local)
                    })
                    .count()
                    .max(1);
                locals.push(LocalBlock::new(
                    size,
                    dp.wg_slots,
                    n_units,
                    dp.latencies.local_mem,
                ));
            }
        }
        MemorySystem {
            caches,
            line_bufs: Vec::new(), // pushed by the machine once windows are gated
            locals,
            private: PrivateMemory::new(kernel.private_bytes),
            dram: Dram::new(dram_cfg),
            responses_private: Vec::new(),
            private_latency: dp.latencies.private_mem,
            accesses: 0,
        }
    }

    /// Registers a private-memory port.
    pub fn add_private_port(&mut self) -> PortId {
        self.responses_private.push(VecDeque::new());
        PortId(self.responses_private.len() - 1)
    }

    /// Whether a request can be issued to `target` on `port` this cycle.
    pub fn can_request(&self, target: MemTarget, port: PortId) -> bool {
        match target {
            MemTarget::Cache(c) => self.caches[c].can_request(port),
            MemTarget::LineBuf(b) => self.line_bufs[b].can_request(port),
            MemTarget::Local(l) => self.locals[l].can_request(port),
            MemTarget::Private => true,
        }
    }

    /// Issues a request.
    pub fn request(&mut self, target: MemTarget, port: PortId, req: MemRequest, now: u64) {
        match target {
            MemTarget::Cache(c) => self.caches[c].request(port, req),
            MemTarget::LineBuf(b) => self.line_bufs[b].request(port, req),
            MemTarget::Local(l) => self.locals[l].request(port, req),
            MemTarget::Private => {
                let resp = self.private.access(&req);
                self.responses_private[port.0]
                    .push_back((now + self.private_latency as u64, resp));
            }
        }
    }

    /// Pops a ready response.
    pub fn pop_response(&mut self, target: MemTarget, port: PortId, now: u64) -> Option<MemResponse> {
        match target {
            MemTarget::Cache(c) => self.caches[c].pop_response(port),
            MemTarget::LineBuf(b) => self.line_bufs[b].pop_response(port, now),
            MemTarget::Local(l) => self.locals[l].pop_response(port, now),
            MemTarget::Private => {
                let q = &mut self.responses_private[port.0];
                if q.front().map(|(r, _)| *r <= now).unwrap_or(false) {
                    q.pop_front().map(|(_, r)| r)
                } else {
                    None
                }
            }
        }
    }

    /// Whether any memory component still has a timed event scheduled in
    /// the future (in-flight cache fills, undelivered local/private
    /// responses): the progress watchdog's only memory query. While true,
    /// lack of datapath progress means "memory is slow", not "the machine
    /// is wedged", so the watchdog holds fire.
    pub fn has_pending_events(&self, now: u64) -> bool {
        self.caches.iter().any(|c| c.has_pending_events(now))
            || self.line_bufs.iter().any(|b| b.has_pending_events())
            || self.locals.iter().any(|l| l.has_pending_events(now))
            || self
                .responses_private
                .iter()
                .any(|q| q.iter().any(|(ready, _)| *ready > now))
    }

    /// Advances caches, line buffers and local blocks one cycle.
    /// Completely idle caches and line buffers are skipped: their tick is
    /// a provable no-op (no state, no stall counters), so skipping is
    /// exact in both scheduler modes.
    pub fn tick(&mut self, now: u64, gm: &mut GlobalMemory) {
        for c in &mut self.caches {
            if c.is_idle() {
                continue;
            }
            let before = c.stats.accesses;
            c.tick(now, &mut self.dram, gm);
            self.accesses += c.stats.accesses - before;
        }
        for b in &mut self.line_bufs {
            if b.is_idle() {
                continue;
            }
            let before = b.stats.accesses;
            b.tick(now, &mut self.dram, gm);
            self.accesses += b.stats.accesses - before;
        }
        for l in &mut self.locals {
            l.tick(now);
        }
    }

    /// Flushes all caches; returns the completion cycle (§III-B: the
    /// work-item counter triggers this when the NDRange finishes).
    pub fn flush_all(&mut self, now: u64) -> u64 {
        let mut done = now;
        for c in &mut self.caches {
            done = done.max(c.flush(now, &mut self.dram));
        }
        done
    }

    /// Requests ever accepted by the caches and line buffers: the sum of
    /// their `stats.accesses`, maintained as they tick.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Aggregated cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for c in &self.caches {
            let s = c.stats;
            agg.accesses += s.accesses;
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.writebacks += s.writebacks;
            agg.arbitration_stalls += s.arbitration_stalls;
            agg.mshr_stalls += s.mshr_stalls;
            agg.lock_delay += s.lock_delay;
            agg.prefetch_hits += s.prefetch_hits;
        }
        agg
    }

    /// Per-cache statistics, indexed like `caches` (see
    /// [`CachePlan::cache_index`] for the layout).
    pub fn per_cache_stats(&self) -> Vec<CacheStats> {
        self.caches.iter().map(|c| c.stats).collect()
    }

    /// Aggregated line-buffer statistics.
    pub fn lb_stats(&self) -> LineBufStats {
        let mut agg = LineBufStats::default();
        for b in &self.line_bufs {
            let s = b.stats;
            agg.accesses += s.accesses;
            agg.window_hits += s.window_hits;
            agg.underruns += s.underruns;
            agg.stream_refills += s.stream_refills;
            agg.bytes_from_dram += s.bytes_from_dram;
            agg.bytes_served += s.bytes_served;
        }
        agg
    }

    /// Per-line-buffer statistics, indexed like `line_bufs`
    /// (window-major: `window * built instances + instance`).
    pub fn per_lb_stats(&self) -> Vec<LineBufStats> {
        self.line_bufs.iter().map(|b| b.stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_index_layout() {
        let plan = CachePlan {
            group_of_value: vec![],
            num_groups: 3,
            shared: false,
        };
        // Instance-major layout, unique per (group, instance).
        let mut seen = std::collections::HashSet::new();
        for inst in 0..4 {
            for g in 0..3 {
                assert!(seen.insert(plan.cache_index(g, inst)));
            }
        }
        assert_eq!(plan.total_caches(4), 12);
        let shared = CachePlan { group_of_value: vec![], num_groups: 3, shared: true };
        assert_eq!(shared.cache_index(2, 7), 2);
        assert_eq!(shared.total_caches(4), 3);
    }
}
