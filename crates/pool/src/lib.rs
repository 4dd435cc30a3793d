//! Zero-dependency persistent work-stealing pool for slice-parallel
//! coding.
//!
//! The paper's central finding is that MPEG-4 coding is compute-bound
//! (99.9% L1 hit rate, <2% of bus bandwidth), so the route to "as fast
//! as the hardware allows" is thread-level parallelism, not wider
//! memory. This crate provides the scheduling substrate,
//! [`WorkerPool`], built only on `std` threads, mutexes and condition
//! variables, preserving the workspace's registry-free invariant
//! (`tests/hermetic.rs`).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism is the caller's job, scheduling is ours.** The pool
//!    never influences *what* is computed — callers build the same task
//!    graph for every worker count (including 1), so output is
//!    identical for any worker count.
//! 2. **Scoped borrows.** Tasks may borrow from the caller's stack
//!    (reference frames, config) because [`WorkerPool::scope`] waits
//!    for every task before returning.
//! 3. **Panic propagation.** A panicking task panics the scope owner
//!    once the scope is quiescent; work is never silently lost.

pub mod steal;

pub use steal::{Scope, WorkerPool};

/// Environment variable overriding the worker-thread count used by
/// [`WorkerPool::from_env`]. Invalid or zero values fall back to the
/// machine's available parallelism.
pub const THREADS_ENV: &str = "M4PS_THREADS";

/// Resolves a worker count from an optional `M4PS_THREADS` value:
/// a positive integer wins; anything else falls back to the machine's
/// available parallelism (1 if unknown).
///
/// Split out from [`WorkerPool::from_env`] so tests can cover the
/// parsing rules without mutating process-global environment state.
pub fn resolve_threads(env_value: Option<&str>) -> usize {
    if let Some(v) = env_value {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_parses_and_falls_back() {
        assert_eq!(resolve_threads(Some("3")), 3);
        assert_eq!(resolve_threads(Some(" 12 ")), 12);
        let fallback = resolve_threads(None);
        assert!(fallback >= 1);
        assert_eq!(resolve_threads(Some("0")), fallback);
        assert_eq!(resolve_threads(Some("zebra")), fallback);
        assert_eq!(resolve_threads(Some("")), fallback);
    }
}
