//! The memory-model abstraction the codec is generic over.

use crate::counters::Counters;

/// Kind of an architectural data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load (graduated load instruction).
    Load,
    /// A data store (graduated store instruction).
    Store,
}

/// One motion-search candidate's load stream: `rows` rows of the
/// current block compared against the displaced reference block, as the
/// SAD kernel visited them before its cutoff.
///
/// Row `r` loads `cur_width` bytes of the current block at
/// `cur + r·stride`, then the reference row it reads, `ref_width` bytes.
/// Without `lead_row` that is reference row `r` at
/// `reference + r·stride`. With it (a vertical half-pel candidate,
/// which averages two reference rows per output row) row 0 first reads
/// the leading reference row 0, and row `r` then reads reference row
/// `r + 1`. Both planes share the one `stride`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCandidate {
    /// Address of the current block's first row.
    pub cur: u64,
    /// Address of the first reference row read.
    pub reference: u64,
    /// Bytes from one row to the next, in both planes.
    pub stride: u64,
    /// Bytes loaded per current row (16 or 8).
    pub cur_width: u32,
    /// Bytes loaded per reference row (the block width, plus 1 with a
    /// horizontal half-pel fraction).
    pub ref_width: u32,
    /// Rows the SAD kernel visited.
    pub rows: u32,
    /// Whether the candidate reads one leading reference row.
    pub lead_row: bool,
}

impl SearchCandidate {
    /// Reference rows the candidate loads: one per visited row, plus the
    /// leading row when it has one.
    pub fn ref_rows(&self) -> u32 {
        if self.rows == 0 {
            0
        } else {
            self.rows + u32::from(self.lead_row)
        }
    }

    /// Address of row `r` of the plane whose row 0 is at `origin`,
    /// saturating at the top of the address space as
    /// [`MemModel::access_rect`] does.
    #[inline]
    pub fn row_addr(&self, origin: u64, r: u32) -> u64 {
        origin.saturating_add(u64::from(r).saturating_mul(self.stride))
    }

    /// Calls `f(addr, len)` for each load span of the candidate, in
    /// charge order: current row, then the reference row(s), row by row.
    pub fn for_each_span(&self, mut f: impl FnMut(u64, u64)) {
        let (cw, rw) = (u64::from(self.cur_width), u64::from(self.ref_width));
        let lead = u32::from(self.lead_row);
        for r in 0..self.rows {
            f(self.row_addr(self.cur, r), cw);
            if r == 0 && self.lead_row {
                f(self.reference, rw);
            }
            f(self.row_addr(self.reference, r + lead), rw);
        }
    }
}

/// A sink for the codec's memory-reference stream.
///
/// Every logical data access the codec performs is reported here. The
/// full simulator ([`crate::Hierarchy`]) runs the reference through the
/// cache hierarchy; [`NullModel`] ignores everything so functional tests
/// pay no simulation cost.
pub trait MemModel {
    /// Reports `arch_ops` architectural accesses of `kind` covering
    /// `len` bytes starting at `addr`. The span is probed through the
    /// cache hierarchy at line granularity.
    fn access_range(&mut self, addr: u64, len: u64, kind: AccessKind, arch_ops: u64);

    /// Reports a single architectural access to `len` bytes at `addr`.
    fn access(&mut self, addr: u64, kind: AccessKind) {
        self.access_range(addr, 1, kind, 1);
    }

    /// Reports a rectangular access pattern: `rows` rows of `row_bytes`
    /// bytes, the first at `addr`, each subsequent one `stride` bytes
    /// further. Each row charges `ops_per_row` architectural accesses.
    ///
    /// The charge stream is defined to be identical to issuing
    /// [`MemModel::access_range`] once per row in ascending order —
    /// implementations may only restructure it in ways that preserve
    /// every counter bit-for-bit. Block kernels (SAD candidates,
    /// motion-compensation windows, DCT block I/O) use this to collapse
    /// per-row charging calls into one.
    fn access_rect(
        &mut self,
        addr: u64,
        stride: u64,
        rows: u64,
        row_bytes: u64,
        kind: AccessKind,
        ops_per_row: u64,
    ) {
        let mut a = addr;
        for r in 0..rows {
            self.access_range(a, row_bytes, kind, ops_per_row);
            if r + 1 < rows {
                a = a.saturating_add(stride);
            }
        }
    }

    /// Reports a batch of motion-search candidates, in search order.
    ///
    /// The charge stream is defined to be identical to issuing
    /// `access_range(addr, len, AccessKind::Load, len)` once per span of
    /// each candidate's [`SearchCandidate::for_each_span`], candidate by
    /// candidate, which is what this default does; implementations may
    /// only restructure it in ways that preserve every counter
    /// bit-for-bit. Motion search charges a search's whole reference
    /// stream this way so the simulator can work per distinct line
    /// instead of per row.
    fn access_candidates(&mut self, batch: &[SearchCandidate]) {
        for cand in batch {
            cand.for_each_span(|addr, len| self.access_range(addr, len, AccessKind::Load, len));
        }
    }

    /// Whether callers should build charge batches (such as the
    /// candidates for [`MemModel::access_candidates`]). `false` means the
    /// model discards charges, so callers may skip recording them:
    /// [`NullModel`] returns `false`, and the batch bookkeeping compiles
    /// away. A model that counts anything must return `true`.
    fn wants_batches(&self) -> bool {
        true
    }

    /// Issues a software prefetch for the line containing `addr`.
    fn prefetch(&mut self, addr: u64);

    /// Issues the unrolled-loop prefetch idiom the MIPSpro compiler
    /// produces: two prefetches whose targets usually collapse into the
    /// same cache line, so roughly half are redundant. This is the
    /// mechanism behind the paper's observation that over half of the
    /// compiler's prefetches hit L1 and waste issue bandwidth.
    fn prefetch_pair(&mut self, addr: u64) {
        self.prefetch(addr);
        self.prefetch(addr + 8);
    }

    /// Charges `ops` non-memory compute instructions to the timing model.
    fn add_ops(&mut self, ops: u64);

    /// Current event counts.
    fn counters(&self) -> &Counters;
}

/// A memory model that can spawn independent per-worker instances and
/// fold their observations back in — the simulation side of
/// slice-parallel encoding.
///
/// `fork` produces a model with the *same configuration* (machine,
/// prefetch setting, region map) but *empty state* (cold caches, zero
/// counters): each worker models a core with private caches, as in the
/// MPSoC designs the paper's follow-up literature points to. Because a
/// fork starts from a fixed state rather than a snapshot of the parent,
/// a slice's simulated traffic depends only on the slice's own access
/// stream — never on worker scheduling — which is what keeps merged
/// counters identical across thread counts.
///
/// `absorb` folds a finished fork's totals (event counters, DRAM
/// traffic, per-region miss tallies) back into the parent via
/// commutative addition; the fork's transient cache/TLB state is
/// discarded.
pub trait ParallelModel: MemModel + Send + Sized {
    /// Same-configuration, empty-state child model for one worker.
    fn fork(&self) -> Self;

    /// Accumulates a finished fork's observations into `self`.
    fn absorb(&mut self, child: Self);
}

/// A no-op model: counts nothing, simulates nothing.
///
/// Use it to run the codec at full speed when only functional behaviour
/// matters.
///
/// # Examples
///
/// ```
/// use m4ps_memsim::{AccessKind, MemModel, NullModel};
///
/// let mut m = NullModel::new();
/// m.access(0x1000, AccessKind::Load);
/// assert_eq!(m.counters().loads, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NullModel {
    counters: Counters,
}

impl NullModel {
    /// Creates a new no-op model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MemModel for NullModel {
    fn access_range(&mut self, _addr: u64, _len: u64, _kind: AccessKind, _arch_ops: u64) {}

    fn access_rect(
        &mut self,
        _addr: u64,
        _stride: u64,
        _rows: u64,
        _row_bytes: u64,
        _kind: AccessKind,
        _ops_per_row: u64,
    ) {
    }

    fn access_candidates(&mut self, _batch: &[SearchCandidate]) {}

    #[inline]
    fn wants_batches(&self) -> bool {
        false
    }

    fn prefetch(&mut self, _addr: u64) {}

    fn add_ops(&mut self, _ops: u64) {}

    fn counters(&self) -> &Counters {
        &self.counters
    }
}

impl ParallelModel for NullModel {
    fn fork(&self) -> Self {
        NullModel::new()
    }

    fn absorb(&mut self, _child: Self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_model_counts_nothing() {
        let mut m = NullModel::new();
        m.access_range(0, 1024, AccessKind::Store, 128);
        m.access_rect(0, 64, 16, 16, AccessKind::Load, 16);
        m.access_candidates(&[SearchCandidate {
            cur: 0,
            reference: 720,
            stride: 720,
            cur_width: 16,
            ref_width: 16,
            rows: 16,
            lead_row: false,
        }]);
        m.prefetch(64);
        m.add_ops(1_000_000);
        assert_eq!(*m.counters(), Counters::default());
        assert!(!m.wants_batches());
    }

    /// The default `access_rect` must be indistinguishable from the
    /// per-row `access_range` loop it is defined as.
    #[test]
    fn default_access_rect_matches_row_loop() {
        use crate::hierarchy::Hierarchy;
        use crate::machine::MachineSpec;

        // NaiveHierarchy inherits the default; drive it both ways.
        let mut by_rows = crate::NaiveHierarchy::new(MachineSpec::o2());
        let mut by_rect = crate::NaiveHierarchy::new(MachineSpec::o2());
        let (addr, stride, rows, row_bytes) = (0x1000u64, 720u64, 16u64, 16u64);
        for r in 0..rows {
            by_rows.access_range(addr + r * stride, row_bytes, AccessKind::Load, row_bytes);
        }
        by_rect.access_rect(addr, stride, rows, row_bytes, AccessKind::Load, row_bytes);
        assert_eq!(by_rows.counters(), by_rect.counters());

        // And the optimized Hierarchy override agrees with the default.
        let mut fast = Hierarchy::new(MachineSpec::o2());
        fast.access_rect(addr, stride, rows, row_bytes, AccessKind::Load, row_bytes);
        assert_eq!(fast.counters(), by_rect.counters());
    }
}
