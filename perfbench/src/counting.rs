//! A memory-model wrapper that counts the codec's charging calls.
//!
//! The wrapper forwards every call unchanged, so the wrapped model's
//! [`Counters`] are bit-identical to driving the bare model, and adds two
//! plain integer counts per call — never a clock read (timing each of the
//! tens of millions of calls an encode makes would triple its wall time).
//! Forks start at zero and `absorb` folds their counts back, mirroring
//! how the wrapped model merges its own counters.

use m4ps_memsim::{AccessKind, Counters, MemModel, ParallelModel};

/// Counts charging calls and the bytes they cover, then forwards.
#[derive(Debug, Clone, Default)]
pub struct Counting<M> {
    inner: M,
    calls: u64,
    bytes: u64,
}

impl<M> Counting<M> {
    /// Wraps `inner` with zeroed counts.
    pub fn new(inner: M) -> Self {
        Counting {
            inner,
            calls: 0,
            bytes: 0,
        }
    }

    /// Charging calls made so far (forks included once absorbed).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Bytes covered by access calls so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The wrapped model, mutably (region attachment and the like).
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }
}

impl<M: MemModel> MemModel for Counting<M> {
    fn access_range(&mut self, addr: u64, len: u64, kind: AccessKind, arch_ops: u64) {
        self.calls += 1;
        self.bytes += len;
        self.inner.access_range(addr, len, kind, arch_ops);
    }

    fn access(&mut self, addr: u64, kind: AccessKind) {
        self.calls += 1;
        self.bytes += 1;
        self.inner.access(addr, kind);
    }

    fn access_rect(
        &mut self,
        addr: u64,
        stride: u64,
        rows: u64,
        row_bytes: u64,
        kind: AccessKind,
        ops_per_row: u64,
    ) {
        self.calls += 1;
        self.bytes += rows * row_bytes;
        self.inner
            .access_rect(addr, stride, rows, row_bytes, kind, ops_per_row);
    }

    fn prefetch(&mut self, addr: u64) {
        self.calls += 1;
        self.inner.prefetch(addr);
    }

    fn prefetch_pair(&mut self, addr: u64) {
        self.calls += 1;
        self.inner.prefetch_pair(addr);
    }

    fn add_ops(&mut self, ops: u64) {
        self.calls += 1;
        self.inner.add_ops(ops);
    }

    fn counters(&self) -> &Counters {
        self.inner.counters()
    }
}

impl<M: ParallelModel> ParallelModel for Counting<M> {
    fn fork(&self) -> Self {
        Counting::new(self.inner.fork())
    }

    fn absorb(&mut self, child: Self) {
        self.calls += child.calls;
        self.bytes += child.bytes;
        self.inner.absorb(child.inner);
    }
}
