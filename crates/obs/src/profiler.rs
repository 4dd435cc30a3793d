//! The profiler session, thread attachment, and the span primitives.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::{HistogramSnapshot, MetricId, Registry};
use crate::phase::Phase;
use crate::profile::{add_wrapping, sub_wrapping, PhaseProfile};
use crate::recorder::{EventKind, Recorder};
use m4ps_memsim::Counters;

/// Number of threads (process-wide) currently attached to any session.
/// The [`enabled`] fast path; span sites skip counter snapshots when
/// this is zero.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

struct Shared {
    epoch: Instant,
    profile: Mutex<PhaseProfile>,
    metrics: Registry,
    /// Flight recorder, when a service/study installed one: coarse
    /// phase enter/exit events land in the calling thread's ring. It is
    /// the session's only timeline.
    recorder: OnceLock<Recorder>,
}

/// One open span on a thread's stack.
struct Frame {
    phase: Phase,
    snap: Counters,
    start_ns: u64,
    /// Domain frames wrap a forked counter stream: on exit their delta
    /// is not subtracted from the lexical parent (different stream).
    domain: bool,
}

struct ThreadState {
    shared: Arc<Shared>,
    /// Reentrant-attach depth for this session on this thread.
    depth: usize,
    stack: Vec<Frame>,
    profile: PhaseProfile,
}

thread_local! {
    static STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

/// A profiling session. Cheap to clone (an `Arc`); threads opt in with
/// [`Profiler::attach`] and their profiles merge on detach.
#[derive(Clone)]
pub struct Profiler {
    shared: Arc<Shared>,
}

impl Profiler {
    /// Creates a session.
    ///
    /// The argument is ignored: a session's only timeline is the flight
    /// recorder installed with [`Profiler::set_recorder`]. The parameter
    /// stays because the benchmark package (`perfbench/`) still passes
    /// it; it goes with that package's next change.
    pub fn new(_tracing: bool) -> Self {
        Profiler {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                profile: Mutex::new(PhaseProfile::new()),
                metrics: Registry::new(),
                recorder: OnceLock::new(),
            }),
        }
    }

    /// Installs the flight recorder this session's coarse phase
    /// enter/exit events go to. First caller wins; later calls are
    /// no-ops (a session belongs to one recorder for its lifetime).
    pub fn set_recorder(&self, rec: &Recorder) {
        let _ = self.shared.recorder.set(rec.clone());
    }

    /// The flight recorder installed on this session, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.shared.recorder.get()
    }

    /// Attaches the calling thread to this session until the guard
    /// drops. Reentrant for the same session (inner guards are free);
    /// attaching to a *different* session while one is active returns
    /// a no-op guard — the first session keeps the thread.
    #[must_use = "dropping the guard immediately detaches the thread"]
    pub fn attach(&self) -> AttachGuard {
        STATE.with(|s| {
            let mut slot = s.borrow_mut();
            match slot.as_mut() {
                Some(st) if Arc::ptr_eq(&st.shared, &self.shared) => {
                    st.depth += 1;
                    AttachGuard { attached: true }
                }
                Some(_) => AttachGuard { attached: false },
                None => {
                    *slot = Some(ThreadState {
                        shared: Arc::clone(&self.shared),
                        depth: 1,
                        stack: Vec::with_capacity(16),
                        profile: PhaseProfile::new(),
                    });
                    ACTIVE.fetch_add(1, Ordering::Relaxed);
                    AttachGuard { attached: true }
                }
            }
        })
    }

    /// The merged profile of every thread that has detached so far.
    /// Read after all guards have dropped for the run's final tables.
    pub fn profile(&self) -> PhaseProfile {
        self.shared.profile.lock().expect("profile lock").clone()
    }

    /// One JSON object per line for every registered metric (JSONL).
    pub fn metrics_jsonl(&self) -> String {
        self.shared.metrics.to_jsonl()
    }

    /// Whether `other` is a handle to the same session.
    pub fn same_session(&self, other: &Profiler) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Adds `v` to a counter in *this* session's registry, regardless
    /// of the calling thread's attachment. This is how the pool
    /// attributes per-scope metrics to the scope's own session even
    /// when the executing thread is attached elsewhere (a scope owner
    /// helping a concurrent scope's tasks).
    pub fn metric_counter_add(&self, id: MetricId, v: u64) {
        self.shared.metrics.counter_add(id, v);
    }

    /// Reads a counter from this session's registry.
    pub fn metric_counter_value(&self, id: MetricId) -> u64 {
        self.shared.metrics.counter_value(id)
    }

    /// Sets a gauge in this session's registry directly.
    pub fn metric_gauge_set(&self, id: MetricId, v: u64) {
        self.shared.metrics.gauge_set(id, v);
    }

    /// Records one histogram observation in this session's registry
    /// directly (see [`Profiler::metric_counter_add`]).
    pub fn metric_histogram_record(&self, id: MetricId, v: u64) {
        self.shared.metrics.histogram_record(id, v);
    }

    /// A point-in-time copy of a histogram in this session's registry.
    /// Admission control diffs two of these (`HistogramSnapshot::
    /// delta_since`) to watch a recent window.
    pub fn histogram_snapshot(&self, id: MetricId) -> HistogramSnapshot {
        self.shared.metrics.histogram_snapshot(id)
    }
}

/// Detaches the thread (and flushes its profile) on drop. See
/// [`Profiler::attach`].
#[must_use]
pub struct AttachGuard {
    attached: bool,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if !self.attached {
            return;
        }
        STATE.with(|s| {
            let mut slot = s.borrow_mut();
            let Some(st) = slot.as_mut() else { return };
            st.depth -= 1;
            if st.depth > 0 {
                return;
            }
            let st = slot.take().expect("state present");
            // Flush even if spans are still open (error paths unwind
            // through `?` without closing spans; the partial profile is
            // still the best available answer).
            st.shared
                .profile
                .lock()
                .expect("profile lock")
                .merge(&st.profile);
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
        });
    }
}

/// Whether any thread in the process is attached to a session. Span
/// sites use this to skip counter snapshots entirely in unprofiled
/// runs; [`enter`]/[`exit`] additionally check the calling thread's
/// own attachment, so a `true` from a *different* thread's session
/// costs this thread two snapshots and nothing else.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// The session the calling thread is attached to, if any. This is how
/// deep call sites (the encoder handing its pool a session) reach the
/// profiler without plumbing it through every signature.
pub fn current() -> Option<Profiler> {
    STATE.with(|s| {
        s.borrow().as_ref().map(|st| Profiler {
            shared: Arc::clone(&st.shared),
        })
    })
}

fn elapsed_ns(shared: &Shared) -> u64 {
    u64::try_from(shared.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn push_frame(phase: Phase, snap: Counters, domain: bool) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            let start_ns = if phase.is_coarse() {
                if let Some(rec) = st.shared.recorder.get() {
                    rec.record(EventKind::PhaseEnter, None, phase as u64, 0);
                }
                elapsed_ns(&st.shared)
            } else {
                0
            };
            st.stack.push(Frame {
                phase,
                snap,
                start_ns,
                domain,
            });
        }
    });
}

fn pop_frame(phase: Phase, now: Counters) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            let Some(frame) = st.stack.pop() else {
                debug_assert!(false, "exit({phase:?}) with empty span stack");
                return;
            };
            debug_assert_eq!(frame.phase, phase, "unbalanced span nesting");
            let mut delta = now;
            sub_wrapping(&mut delta, &frame.snap);
            let stats = st.profile.get_mut(frame.phase);
            add_wrapping(&mut stats.counters, &delta);
            stats.entries += 1;
            if frame.phase.is_coarse() {
                stats.wall_ns += elapsed_ns(&st.shared).saturating_sub(frame.start_ns);
                if let Some(rec) = st.shared.recorder.get() {
                    rec.record(EventKind::PhaseExit, None, frame.phase as u64, 0);
                }
            }
            // Exclusive attribution: remove this span's inclusive delta
            // from the enclosing phase. Domain frames skip this — their
            // delta comes from a forked stream the parent never sees
            // directly (it arrives later via absorb + `absorbed`).
            if !frame.domain {
                if let Some(parent) = st.stack.last() {
                    sub_wrapping(&mut st.profile.get_mut(parent.phase).counters, &delta);
                }
            }
        }
    });
}

/// Opens a span. `snap` is the memory model's counters at entry.
/// No-op on unattached threads. Prefer the [`span!`](crate::span)
/// macro, which pairs this with [`exit`] and caches the enabled check.
pub fn enter(phase: Phase, snap: Counters) {
    push_frame(phase, snap, false);
}

/// Closes the innermost span, which must be `phase` (debug-asserted).
/// `now` is the same counter stream sampled at exit.
pub fn exit(phase: Phase, now: Counters) {
    pop_frame(phase, now);
}

/// Opens a *domain* span around code charging a forked counter stream
/// (a slice job's `fork()`ed model). `snap` is the forked stream's
/// counters at entry.
pub fn enter_domain(phase: Phase, snap: Counters) {
    push_frame(phase, snap, true);
}

/// Closes the innermost (domain) span against the forked stream's
/// counters. Unlike [`exit`], nothing is subtracted from the lexical
/// parent.
pub fn exit_domain(phase: Phase, now: Counters) {
    pop_frame(phase, now);
}

/// Records that `child_total` counters were folded into the calling
/// thread's stream by `ParallelModel::absorb`. Subtracts the total from
/// the innermost open phase so the jump is not double-attributed (the
/// child's own profile already carries it, phase by phase).
pub fn absorbed(child_total: &Counters) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            if let Some(top) = st.stack.last() {
                let phase = top.phase;
                sub_wrapping(&mut st.profile.get_mut(phase).counters, child_total);
            }
        }
    });
}

fn with_metrics(f: impl FnOnce(&Registry)) {
    if !enabled() {
        return;
    }
    STATE.with(|s| {
        if let Some(st) = s.borrow().as_ref() {
            f(&st.shared.metrics);
        }
    });
}

/// Adds `v` to a counter metric. No-op on unattached threads.
pub fn counter_add(id: MetricId, v: u64) {
    with_metrics(|m| m.counter_add(id, v));
}

/// Sets a gauge metric to `v`. No-op on unattached threads.
pub fn gauge_set(id: MetricId, v: u64) {
    with_metrics(|m| m.gauge_set(id, v));
}

/// Records one observation `v` into a histogram metric. No-op on
/// unattached threads.
pub fn histogram_record(id: MetricId, v: u64) {
    with_metrics(|m| m.histogram_record(id, v));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(loads: u64, stores: u64) -> Counters {
        Counters {
            loads,
            stores,
            ..Counters::default()
        }
    }

    #[test]
    fn nested_spans_attribute_exclusively() {
        let p = Profiler::new(false);
        let g = p.attach();
        enter(Phase::Run, c(0, 0));
        enter(Phase::MeSearch, c(10, 5));
        enter(Phase::MeHalfPel, c(30, 8));
        exit(Phase::MeHalfPel, c(50, 9));
        exit(Phase::MeSearch, c(70, 12));
        exit(Phase::Run, c(100, 20));
        drop(g);

        let prof = p.profile();
        assert_eq!(prof.get(Phase::MeHalfPel).counters, c(20, 1));
        assert_eq!(prof.get(Phase::MeSearch).counters, c(40, 6));
        assert_eq!(prof.get(Phase::Run).counters, c(40, 13));
        assert_eq!(prof.total(), c(100, 20));
        assert_eq!(prof.get(Phase::MeSearch).entries, 1);
    }

    #[test]
    fn domain_spans_and_absorbed_telescope() {
        let p = Profiler::new(false);
        let g = p.attach();
        enter(Phase::Run, c(0, 0));
        // Inline slice job on a forked stream (fresh counters).
        enter_domain(Phase::Slice, c(0, 0));
        enter(Phase::DctQuant, c(3, 1));
        exit(Phase::DctQuant, c(7, 2));
        exit_domain(Phase::Slice, c(9, 4));
        // Parent absorbs the child's 9 loads / 4 stores.
        absorbed(&c(9, 4));
        exit(Phase::Run, c(20, 10));
        drop(g);

        let prof = p.profile();
        assert_eq!(prof.get(Phase::DctQuant).counters, c(4, 1));
        assert_eq!(prof.get(Phase::Slice).counters, c(5, 3));
        // Run saw 20/10 inclusive, minus the absorbed 9/4.
        assert_eq!(prof.get(Phase::Run).counters, c(11, 6));
        // Grand total equals the parent stream's final aggregate.
        assert_eq!(prof.total(), c(20, 10));
    }

    #[test]
    fn reentrant_attach_is_balanced() {
        let p = Profiler::new(false);
        let outer = p.attach();
        {
            let inner = p.attach();
            assert!(current().is_some());
            drop(inner);
        }
        // Still attached: the outer guard holds the thread.
        assert!(current().is_some());
        enter(Phase::Run, c(0, 0));
        exit(Phase::Run, c(5, 5));
        drop(outer);
        assert!(current().is_none());
        assert_eq!(p.profile().total(), c(5, 5));
    }

    #[test]
    fn second_session_gets_noop_guard() {
        let p1 = Profiler::new(false);
        let p2 = Profiler::new(false);
        let g1 = p1.attach();
        let g2 = p2.attach();
        enter(Phase::Run, c(0, 0));
        exit(Phase::Run, c(3, 0));
        drop(g2);
        // p2's guard was a no-op: thread still attached to p1.
        assert!(current().is_some());
        drop(g1);
        assert_eq!(p1.profile().total(), c(3, 0));
        assert_eq!(p2.profile().total(), Counters::default());
    }

    #[test]
    fn worker_profiles_merge_across_threads() {
        let p = Profiler::new(false);
        let g = p.attach();
        enter(Phase::Run, c(0, 0));
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let p = p.clone();
                s.spawn(move || {
                    let g = p.attach();
                    enter_domain(Phase::Slice, c(0, 0));
                    exit_domain(Phase::Slice, c(i + 1, i));
                    drop(g);
                });
            }
        });
        // 4 slices absorbed: totals 1+2+3+4 loads, 0+1+2+3 stores.
        for i in 0..4u64 {
            absorbed(&c(i + 1, i));
        }
        exit(Phase::Run, c(100, 50));
        drop(g);
        let prof = p.profile();
        assert_eq!(prof.get(Phase::Slice).counters, c(10, 6));
        assert_eq!(prof.get(Phase::Slice).entries, 4);
        assert_eq!(prof.get(Phase::Run).counters, c(90, 44));
        // The parent stream's final aggregate (100, 50) already folded
        // in the absorbed slice totals; the profile sums back to it.
        assert_eq!(prof.total(), c(100, 50));
    }

    #[test]
    fn unattached_calls_are_noops() {
        enter(Phase::Run, c(0, 0));
        exit(Phase::Run, c(1, 1));
        absorbed(&c(5, 5));
        counter_add(MetricId::ResyncMarkerBytes, 3);
        assert!(current().is_none());
    }
}
