//! The MPEG-4 memory-performance characterization study — a full
//! reproduction of *"An MPEG-4 Performance Study for non-SIMD, General
//! Purpose Architectures"* (McKee, Fang, Valero — ISPASS 2003).
//!
//! The paper runs the MoMuSys reference MPEG-4 codec on three SGI
//! machines and reads the hardware counters; this crate runs our
//! from-scratch codec ([`m4ps_codec`]) over the simulated memory
//! hierarchies of the same three machines ([`m4ps_memsim`]) and derives
//! the same metrics. Every table and figure of the paper's evaluation
//! has a generator here:
//!
//! - [`study`] — instrumented encode/decode runs (Tables 2–7, Figures
//!   2–4) and [`Cells`], the memo that simulates each one once per
//!   `repro` invocation,
//! - [`burst`] — function-level `VopCode` / `DecodeVop…` windows
//!   (Table 8),
//! - [`fallacy`] — the five "fallacy" verdicts of §3.2,
//! - [`baseline`] — a *true* streaming kernel through the same
//!   hierarchy, for contrast ("streaming MPEG-4 does not stream"),
//! - [`memwall`] — the paper's future-work processor/memory-ratio sweep
//!   ("at what ratio does MPEG-4 finally become memory limited"),
//! - [`simd`] — the paper's future-work SIMD projection (fetch-rate vs
//!   L1-bandwidth limits),
//! - [`report`] — paper-style table formatting.
//!
//! # Examples
//!
//! ```
//! use m4ps_core::study::{encode_study, Workload};
//! use m4ps_core::StudyConfig;
//! use m4ps_memsim::MachineSpec;
//! use m4ps_vidgen::Resolution;
//!
//! let workload = Workload {
//!     resolution: Resolution::QCIF,
//!     frames: 2,
//!     objects: 0,
//!     layers: 1,
//!     seed: 1,
//! };
//! let run = encode_study(&MachineSpec::o2(), &workload, &StudyConfig::fast()).unwrap();
//! assert!(run.metrics.l1_miss_rate < 0.05);
//! ```

pub mod baseline;
pub mod burst;
pub mod fallacy;
pub mod memwall;
pub mod report;
pub mod simd;
pub mod study;

pub use study::{
    decode_study, decode_study_with, encode_study, prepare_streams, Cells, RunResult, StudyConfig,
    Workload,
};

// Re-exports so downstream binaries need only this crate.
pub use m4ps_codec as codec;
pub use m4ps_dsp as dsp;
pub use m4ps_memsim as memsim;
pub use m4ps_vidgen as vidgen;
