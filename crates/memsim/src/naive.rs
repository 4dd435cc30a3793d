//! The naive (un-memoized) reference hierarchy.
//!
//! [`NaiveHierarchy`] models exactly the same machine as
//! [`Hierarchy`](crate::Hierarchy) but takes none of its fast paths: no
//! hierarchy-level MRU filter, no cache-way memo, no TLB-slot memo, and
//! only the default per-row [`MemModel::access_rect`] and the default
//! per-span expansion of [`MemModel::access_candidates`]. Every access
//! runs the full set scan and the full linear TLB scan, re-proving
//! residency the slow way.
//!
//! It exists as the differential baseline for the fast paths: the
//! `fastpath_equiv` suite drives both models with identical reference
//! streams (random, adversarial, and full encodes) and requires every
//! [`Counters`] field, the DRAM traffic, and the per-region tallies to
//! be bit-identical. Keep its semantics in lockstep with `Hierarchy`
//! whenever the charging model changes.

use crate::cache::Cache;
use crate::counters::Counters;
use crate::dram::DramModel;
use crate::hierarchy::RegionMisses;
use crate::machine::MachineSpec;
use crate::model::{AccessKind, MemModel, ParallelModel};
use crate::space::Region;
use crate::tlb::Tlb;

/// Reference memory-hierarchy simulator without any charging fast path.
///
/// # Examples
///
/// ```
/// use m4ps_memsim::{AccessKind, Hierarchy, MachineSpec, MemModel, NaiveHierarchy};
///
/// let mut fast = Hierarchy::new(MachineSpec::o2());
/// let mut naive = NaiveHierarchy::new(MachineSpec::o2());
/// for m in [&mut fast as &mut dyn MemModel, &mut naive] {
///     m.access_range(0x1_0000, 16, AccessKind::Load, 16);
///     m.access_range(0x1_0000, 16, AccessKind::Load, 16);
/// }
/// assert_eq!(fast.counters(), naive.counters());
/// ```
#[derive(Debug, Clone)]
pub struct NaiveHierarchy {
    machine: MachineSpec,
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
    dram: DramModel,
    counters: Counters,
    prefetch_enabled: bool,
    region_spans: Vec<(u64, u64, usize)>,
    region_tags: Vec<String>,
    region_l1: Vec<u64>,
    region_l2: Vec<u64>,
}

impl NaiveHierarchy {
    /// Builds an empty naive hierarchy with prefetch modelling enabled.
    pub fn new(machine: MachineSpec) -> Self {
        NaiveHierarchy {
            l1: Cache::new(machine.l1),
            l2: Cache::new(machine.l2),
            tlb: Tlb::new(machine.tlb),
            dram: DramModel::new(machine.dram),
            counters: Counters::new(),
            prefetch_enabled: true,
            region_spans: Vec::new(),
            region_tags: Vec::new(),
            region_l1: Vec::new(),
            region_l2: Vec::new(),
            machine,
        }
    }

    /// Builds a naive hierarchy with software prefetch disabled.
    pub fn without_prefetch(machine: MachineSpec) -> Self {
        let mut h = Self::new(machine);
        h.prefetch_enabled = false;
        h
    }

    /// Attaches the region map for miss attribution (same semantics as
    /// [`crate::Hierarchy::attach_regions`]).
    pub fn attach_regions(&mut self, regions: &[Region]) {
        self.region_spans.clear();
        self.region_tags.clear();
        for r in regions {
            let idx = match self.region_tags.iter().position(|t| t == &r.tag) {
                Some(i) => i,
                None => {
                    self.region_tags.push(r.tag.clone());
                    self.region_tags.len() - 1
                }
            };
            self.region_spans
                .push((r.base, r.base + r.bytes.max(1), idx));
        }
        self.region_spans.sort_unstable();
        self.region_l1 = vec![0; self.region_tags.len()];
        self.region_l2 = vec![0; self.region_tags.len()];
    }

    /// Miss tallies per region tag, most L1 misses first.
    pub fn region_misses(&self) -> Vec<RegionMisses> {
        let mut out: Vec<RegionMisses> = self
            .region_tags
            .iter()
            .enumerate()
            .map(|(i, tag)| RegionMisses {
                tag: tag.clone(),
                l1_misses: self.region_l1[i],
                l2_misses: self.region_l2[i],
            })
            .collect();
        out.sort_by_key(|r| std::cmp::Reverse(r.l1_misses));
        out
    }

    /// DRAM traffic accounting.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// The L1 data cache (its [`crate::CacheStats`] count every probe,
    /// including hits the charging fast paths resolve without one).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The data TLB.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// The machine this hierarchy models.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    fn region_of(&self, addr: u64) -> Option<usize> {
        if self.region_spans.is_empty() {
            return None;
        }
        let i = self
            .region_spans
            .partition_point(|&(base, _, _)| base <= addr);
        if i == 0 {
            return None;
        }
        let (_, end, idx) = self.region_spans[i - 1];
        (addr < end).then_some(idx)
    }

    /// Un-memoized line probe through L1 → L2 → DRAM; counter semantics
    /// identical to the fast hierarchy's `probe_line`.
    fn probe_line(&mut self, addr: u64, write: bool, demand: bool) {
        let r1 = self.l1.probe_naive(addr, write);
        if r1.hit {
            return;
        }
        if demand {
            self.counters.l1_misses += 1;
            if let Some(idx) = self.region_of(addr) {
                self.region_l1[idx] += 1;
            }
        }
        if let Some(victim) = r1.writeback_of {
            self.counters.l1_writebacks += 1;
            let wb = self.l2.probe_naive(victim, true);
            if !wb.hit {
                self.counters.l2_misses += 1;
                self.dram.record_read(self.machine.l2.line_bytes);
                if wb.writeback_of.is_some() {
                    self.counters.l2_writebacks += 1;
                    self.dram.record_write(self.machine.l2.line_bytes);
                }
            }
        }
        let r2 = self.l2.probe_naive(addr, false);
        if !r2.hit {
            if demand {
                self.counters.l2_misses += 1;
                if let Some(idx) = self.region_of(addr) {
                    self.region_l2[idx] += 1;
                }
            }
            self.dram.record_read(self.machine.l2.line_bytes);
            if r2.writeback_of.is_some() {
                self.counters.l2_writebacks += 1;
                self.dram.record_write(self.machine.l2.line_bytes);
            }
        }
    }
}

impl MemModel for NaiveHierarchy {
    fn access_range(&mut self, addr: u64, len: u64, kind: AccessKind, arch_ops: u64) {
        match kind {
            AccessKind::Load => self.counters.loads += arch_ops,
            AccessKind::Store => self.counters.stores += arch_ops,
        }
        self.counters.bytes_accessed += len.max(1);
        let last = addr.saturating_add(len.max(1) - 1);
        let page = self.machine.tlb.page_bytes;
        let mut a = addr & !(page - 1);
        let last_page = last & !(page - 1);
        loop {
            if !self.tlb.lookup_naive(a) {
                self.counters.tlb_misses += 1;
            }
            if a == last_page {
                break;
            }
            a += page;
        }
        let line = self.machine.l1.line_bytes;
        let write = matches!(kind, AccessKind::Store);
        let mut a = addr & !(line - 1);
        let last_line = last & !(line - 1);
        loop {
            self.probe_line(a, write, true);
            if a == last_line {
                break;
            }
            a += line;
        }
    }

    // access_rect: deliberately the default per-row implementation — it
    // *is* the reference semantics the optimized override must match.

    fn prefetch(&mut self, addr: u64) {
        if !self.prefetch_enabled {
            return;
        }
        self.counters.prefetches += 1;
        if self.l1.contains(addr) {
            self.counters.prefetch_l1_hits += 1;
            return;
        }
        self.probe_line(addr, false, false);
    }

    fn add_ops(&mut self, ops: u64) {
        self.counters.compute_ops += ops;
    }

    fn counters(&self) -> &Counters {
        &self.counters
    }
}

impl ParallelModel for NaiveHierarchy {
    fn fork(&self) -> Self {
        let mut child = if self.prefetch_enabled {
            NaiveHierarchy::new(self.machine.clone())
        } else {
            NaiveHierarchy::without_prefetch(self.machine.clone())
        };
        child.region_spans = self.region_spans.clone();
        child.region_tags = self.region_tags.clone();
        child.region_l1 = vec![0; self.region_tags.len()];
        child.region_l2 = vec![0; self.region_tags.len()];
        child
    }

    fn absorb(&mut self, child: Self) {
        self.counters.merge(&child.counters);
        self.dram.record_read(child.dram.bytes_read());
        self.dram.record_write(child.dram.bytes_written());
        for (i, tag) in child.region_tags.iter().enumerate() {
            if let Some(j) = self.region_tags.iter().position(|t| t == tag) {
                self.region_l1[j] += child.region_l1[i];
                self.region_l2[j] += child.region_l2[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_fork_starts_cold_and_absorb_merges() {
        let mut parent = NaiveHierarchy::new(MachineSpec::o2());
        parent.access_range(0, 4096, AccessKind::Store, 512);
        let mut child = parent.fork();
        assert_eq!(*child.counters(), Counters::default());
        child.access_range(65536, 4096, AccessKind::Load, 512);
        let before = parent.counters().merged_with(child.counters());
        parent.absorb(child);
        assert_eq!(*parent.counters(), before);
    }

    #[test]
    fn naive_prefetch_counters_match_fast_model() {
        use crate::hierarchy::Hierarchy;
        let mut fast = Hierarchy::new(MachineSpec::o2());
        let mut naive = NaiveHierarchy::new(MachineSpec::o2());
        for m in [&mut fast as &mut dyn MemModel, &mut naive] {
            m.prefetch(0x2000); // useful
            m.access_range(0x2000, 8, AccessKind::Load, 1);
            m.prefetch(0x2004); // wasted (hits L1)
            m.prefetch_pair(0x4000);
        }
        assert_eq!(fast.counters(), naive.counters());
        assert_eq!(fast.dram().bytes_total(), naive.dram().bytes_total());
    }
}
