//! Traced buffers: real data + simulated addresses.
//!
//! A [`SimBuf`] owns a `Vec<T>` and a base address in the simulated
//! address space. Every logical access goes through a [`MemModel`] before
//! touching the real data, so the cache simulator sees the same reference
//! stream the MoMuSys codec would generate, while the computation runs on
//! native memory at native speed.

use crate::model::{AccessKind, MemModel};
use crate::space::AddressSpace;

/// A traced, fixed-length buffer of plain-old-data elements.
///
/// # Examples
///
/// ```
/// use m4ps_memsim::{AddressSpace, NullModel, SimBuf};
///
/// let mut space = AddressSpace::new();
/// let mut mem = NullModel::new();
/// let mut buf = SimBuf::<u8>::zeroed(&mut space, 64);
/// buf.store(&mut mem, 3, 42);
/// assert_eq!(buf.load(&mut mem, 3), 42);
/// ```
#[derive(Debug, Clone)]
pub struct SimBuf<T> {
    base: u64,
    data: Vec<T>,
}

impl<T: Copy + Default> SimBuf<T> {
    /// Allocates a zero-initialized buffer of `len` elements in `space`.
    pub fn zeroed(space: &mut AddressSpace, len: usize) -> Self {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        SimBuf {
            base: space.alloc(bytes),
            data: vec![T::default(); len],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Simulated base address of element 0.
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    /// Simulated address of element `idx`.
    pub fn addr_of(&self, idx: usize) -> u64 {
        self.base + (idx * std::mem::size_of::<T>()) as u64
    }

    /// Traced single-element load.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn load<M: MemModel>(&self, mem: &mut M, idx: usize) -> T {
        mem.access_range(
            self.addr_of(idx),
            std::mem::size_of::<T>() as u64,
            AccessKind::Load,
            1,
        );
        self.data[idx]
    }

    /// Traced single-element store.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn store<M: MemModel>(&mut self, mem: &mut M, idx: usize, value: T) {
        mem.access_range(
            self.addr_of(idx),
            std::mem::size_of::<T>() as u64,
            AccessKind::Store,
            1,
        );
        self.data[idx] = value;
    }

    /// Traced load of `len` consecutive elements starting at `start`;
    /// counts `len` architectural loads and probes each spanned line once.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn load_run<M: MemModel>(&self, mem: &mut M, start: usize, len: usize) -> &[T] {
        assert!(start + len <= self.data.len());
        if len > 0 {
            mem.access_range(
                self.addr_of(start),
                (len * std::mem::size_of::<T>()) as u64,
                AccessKind::Load,
                len as u64,
            );
        }
        &self.data[start..start + len]
    }

    /// Traced store of `src` into consecutive elements starting at
    /// `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn store_run<M: MemModel>(&mut self, mem: &mut M, start: usize, src: &[T]) {
        assert!(start + src.len() <= self.data.len());
        if !src.is_empty() {
            mem.access_range(
                self.addr_of(start),
                std::mem::size_of_val(src) as u64,
                AccessKind::Store,
                src.len() as u64,
            );
        }
        self.data[start..start + src.len()].copy_from_slice(src);
    }

    /// Charges a traced *read touch* of a range without returning data
    /// (for kernels that read via [`SimBuf::raw`] after accounting).
    pub fn touch_read<M: MemModel>(&self, mem: &mut M, start: usize, len: usize) {
        assert!(start + len <= self.data.len());
        if len > 0 {
            mem.access_range(
                self.addr_of(start),
                (len * std::mem::size_of::<T>()) as u64,
                AccessKind::Load,
                len as u64,
            );
        }
    }

    /// Charges a traced *write touch* of a range without writing data.
    pub fn touch_write<M: MemModel>(&self, mem: &mut M, start: usize, len: usize) {
        assert!(start + len <= self.data.len());
        if len > 0 {
            mem.access_range(
                self.addr_of(start),
                (len * std::mem::size_of::<T>()) as u64,
                AccessKind::Store,
                len as u64,
            );
        }
    }

    /// Untraced view of the underlying data. Use only for I/O at the
    /// simulation boundary (e.g. comparing decoded frames in tests).
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Untraced mutable view of the underlying data. Use only for
    /// initialization at the simulation boundary.
    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Hierarchy;
    use crate::machine::MachineSpec;
    use crate::model::NullModel;

    #[test]
    fn data_roundtrip_through_traced_ops() {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let mut b = SimBuf::<i16>::zeroed(&mut space, 16);
        b.store(&mut mem, 5, -123);
        assert_eq!(b.load(&mut mem, 5), -123);
        b.store_run(&mut mem, 8, &[1, 2, 3]);
        assert_eq!(b.load_run(&mut mem, 8, 3), &[1, 2, 3]);
    }

    #[test]
    fn run_access_counts_arch_ops_and_lines() {
        let mut space = AddressSpace::new();
        let mut mem = Hierarchy::new(MachineSpec::o2());
        let b = SimBuf::<u8>::zeroed(&mut space, 4096);
        b.load_run(&mut mem, 0, 64);
        let c = mem.counters();
        assert_eq!(c.loads, 64);
        assert_eq!(c.l1_misses, 2); // 64 B spans two 32 B lines (aligned base)
    }

    #[test]
    fn element_size_scales_addresses() {
        let mut space = AddressSpace::new();
        let b = SimBuf::<i16>::zeroed(&mut space, 8);
        assert_eq!(b.addr_of(4) - b.base_addr(), 8);
    }

    #[test]
    fn distinct_buffers_never_alias() {
        let mut space = AddressSpace::new();
        let a = SimBuf::<u8>::zeroed(&mut space, 1000);
        let b = SimBuf::<u8>::zeroed(&mut space, 1000);
        let a_end = a.addr_of(999);
        assert!(b.base_addr() > a_end);
    }

    #[test]
    fn touch_matches_load_run_counting() {
        let mut space = AddressSpace::new();
        let b = SimBuf::<u8>::zeroed(&mut space, 256);
        let mut m1 = Hierarchy::new(MachineSpec::o2());
        let mut m2 = Hierarchy::new(MachineSpec::o2());
        b.load_run(&mut m1, 10, 100);
        b.touch_read(&mut m2, 10, 100);
        assert_eq!(m1.counters(), m2.counters());
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_run_panics() {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let b = SimBuf::<u8>::zeroed(&mut space, 10);
        b.load_run(&mut mem, 5, 6);
    }

    #[test]
    fn zero_length_run_is_free() {
        let mut space = AddressSpace::new();
        let mut mem = Hierarchy::new(MachineSpec::o2());
        let b = SimBuf::<u8>::zeroed(&mut space, 10);
        b.load_run(&mut mem, 10, 0);
        assert_eq!(mem.counters().loads, 0);
    }
}
