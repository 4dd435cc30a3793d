//! SpeedShop-style in-process profiler.
//!
//! The paper's methodology is *attribution*: SpeedShop and Perfex break
//! machine-wide event counts down per function, which is how McKee et
//! al. show that motion estimation and DCT blocking — not streaming —
//! dominate MPEG-4 memory behaviour. This crate reproduces that layer
//! for the simulated hierarchy: phase-attributed [`Counters`] profiles,
//! a small metrics registry, and a flight recorder whose dumps export
//! as Chrome trace events, all with zero registry dependencies.
//!
//! # Span model
//!
//! A span is an `enter`/`exit` pair around a region of code, tagged
//! with a [`Phase`] and carrying a snapshot of the memory model's
//! [`Counters`] at each end (the [`span!`] macro wraps this). Spans
//! nest on a per-thread stack; attribution is *exclusive*: each span's
//! inclusive counter delta is added to its own phase and subtracted
//! from its parent's, so the per-phase totals partition the run and
//! sum exactly — bit-for-bit, every field — to the aggregate counters.
//! Subtraction uses wrapping arithmetic: a parent's accumulator can be
//! transiently "negative" (wrapped) between a child's exit and its own,
//! but every final sum telescopes back to an exact non-negative value.
//!
//! Wall-clock time (`Instant`) is only sampled for the coarse phases
//! ([`Phase::is_coarse`]) — a few hundred spans per run — so the
//! per-macroblock fine phases cost two counter snapshots and ~40
//! word-sized arithmetic ops per span, and nothing at all when no
//! [`Profiler`] is installed (see [`enabled`]).
//!
//! # Attribution under `fork`/`absorb`
//!
//! Slice-parallel encoding forks the memory model per slice
//! (`ParallelModel::fork`) and folds child counters back with
//! `absorb`. Two primitives keep per-phase totals exact across that
//! boundary:
//!
//! * **Domain spans** ([`enter_domain`]/[`exit_domain`]) wrap code
//!   that charges a *forked* counter stream. They attribute like
//!   regular spans but never subtract from the lexical parent — the
//!   parent frame belongs to a different counter stream.
//! * **[`absorbed`]** is called right after `absorb` folds a child's
//!   total `ctot` into the parent stream; it subtracts `ctot` from the
//!   parent's innermost open phase. The child's profile contributed
//!   `ctot` distributed across phases, so the grand total telescopes
//!   to exactly the merged aggregate — identically for inline
//!   (1-worker) and multi-threaded execution.
//!
//! # Threads
//!
//! Each thread that participates calls [`Profiler::attach`] and keeps
//! the guard alive; dropping it merges the thread's [`PhaseProfile`]
//! into the session. Attach is reentrant on the same
//! session (a 1-worker pool runs slice jobs inline on an
//! already-attached caller) and a no-op for a different session.

//! # Flight recorder
//!
//! Orthogonal to counter attribution, [`Recorder`] keeps an always-on
//! per-thread ring of compact service events (frame lifecycle, WFQ
//! picks, admission decisions, pool steal/park/wake, coarse phases)
//! that [`Recorder::snapshot`] turns into a [`Dump`] — JSONL plus a
//! Chrome trace with one lane per session and per worker. It is the
//! only timeline: a profiler session with a recorder installed
//! ([`Profiler::set_recorder`]) records its coarse phases there, and
//! [`Dump::to_chrome_trace`] is the one Chrome-trace export. The
//! `m4ps-obs` binary analyzes dumps offline; see `recorder.rs` and
//! DESIGN.md §15.

mod metrics;
mod phase;
mod profile;
mod profiler;
mod recorder;
mod trace;

pub use metrics::{HistogramSnapshot, MetricId, MetricKind};
pub use phase::Phase;
pub use profile::{PhaseProfile, PhaseStats};
pub use profiler::{
    absorbed, counter_add, current, enabled, enter, enter_domain, exit, exit_domain, gauge_set,
    histogram_record, AttachGuard, Profiler,
};
pub use recorder::{
    outcome, Dump, DumpEvent, Event, EventKind, Recorder, RingInfo, DEFAULT_RING_CAPACITY,
    NO_SESSION,
};

/// Re-export: spans snapshot this type; consumers that only depend on
/// `m4ps-obs` (the pool) can still name it.
pub use m4ps_memsim::Counters;

/// Wraps `$body` in a counter-snapshotting span over `$mem` (anything
/// with a `counters() -> &Counters` method, i.e. a `memsim::MemModel`).
///
/// The enabled check is hoisted and cached so enter/exit stay balanced
/// even if another thread's session starts or ends mid-span, and the
/// 88-byte counter snapshot is skipped entirely when no profiler is
/// installed anywhere in the process.
///
/// `$body` is an expression/block whose value the macro returns. Do
/// not `return` or `?` out of the body — exit the span first (have the
/// body evaluate to a `Result` and apply `?` to the macro's value).
#[macro_export]
macro_rules! span {
    ($mem:expr, $phase:expr, $body:expr) => {{
        let __obs_on = $crate::enabled();
        if __obs_on {
            $crate::enter($phase, *$mem.counters());
        }
        let __obs_out = $body;
        if __obs_on {
            $crate::exit($phase, *$mem.counters());
        }
        __obs_out
    }};
}
