//! Memory-hierarchy simulation standing in for the SGI hardware
//! performance counters used in the paper.
//!
//! The paper measures the MoMuSys MPEG-4 codec with SpeedShop/Perfex
//! counters on MIPS R10000/R12000 machines. We reproduce the measurement
//! substrate in software: a set-associative L1 data cache, a unified L2,
//! a data TLB, a DRAM/bus model, Perfex-style event [`Counters`], an
//! analytic out-of-order [`TimingModel`], and derived [`MemoryMetrics`]
//! matching the paper's metric definitions (miss rates, line reuse,
//! DRAM stall time, per-level bandwidth, prefetch hit waste).
//!
//! The codec issues every logical data access through a [`MemModel`];
//! [`Hierarchy`] is the full simulator, [`NullModel`] a zero-cost stand-in
//! for functional testing.
//!
//! # Examples
//!
//! ```
//! use m4ps_memsim::{AccessKind, Hierarchy, MachineSpec, MemModel};
//!
//! let mut mem = Hierarchy::new(MachineSpec::onyx2());
//! for addr in (0..4096u64).step_by(8) {
//!     mem.access(addr, AccessKind::Load);
//! }
//! // Second sweep hits in L1: 4 KB fits easily.
//! for addr in (0..4096u64).step_by(8) {
//!     mem.access(addr, AccessKind::Load);
//! }
//! let c = mem.counters();
//! assert_eq!(c.loads, 1024);
//! assert!(c.l1_misses < 200);
//! ```

mod buf;
mod cache;
mod counters;
mod dram;
mod hierarchy;
mod machine;
mod metrics;
mod model;
mod naive;
mod space;
mod timing;
mod tlb;

pub use buf::SimBuf;
pub use cache::{Cache, CacheConfig, CacheStats};
pub use counters::Counters;
pub use dram::{DramConfig, DramModel};
pub use hierarchy::{Hierarchy, RegionMisses};
pub use machine::{CpuKind, MachineSpec};
pub use metrics::MemoryMetrics;
pub use model::{AccessKind, MemModel, NullModel, ParallelModel, SearchCandidate};
pub use naive::NaiveHierarchy;
pub use space::{AddressSpace, Region};
pub use timing::TimingModel;
pub use tlb::{Tlb, TlbConfig};
