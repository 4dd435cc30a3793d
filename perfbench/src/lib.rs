//! The repository benchmark: three workloads that stress different
//! layers of the MPEG-4 stack, measured from outside the program through
//! the public APIs of `m4ps-core`, `m4ps-codec`, `m4ps-serve` and
//! `m4ps-pool`.
//!
//! - `study_o2` — `encode_study` / `decode_study` on the simulated SGI
//!   O2 (memsim dominates).
//! - `codec_null` — real per-frame encode/decode latency with the memory
//!   model bypassed (dsp kernels, codec phases, pool dispatch).
//! - `serve_mix` — open-loop encode and decode-replay sessions into one
//!   service (WFQ, driver hand-off, many small pool scopes).
//!
//! An untraced run reports the end-to-end metrics, normalized by a
//! host-speed probe (`host`); a traced run reports a per-layer ledger.
//! See `README.md` next to this crate.

pub mod codec;
pub mod counting;
pub mod host;
pub mod layers;
pub mod report;
pub mod scene;
pub mod serve;
pub mod stats;
pub mod study;
