//! Persistent work-stealing scheduler for wavefront (MB-row) tasks.
//!
//! Spawning workers per batch would be wrong for wavefront scheduling:
//! one VOP decomposes into dozens of macroblock-row tasks whose
//! continuations are spawned *while the batch runs*, and a study
//! encodes hundreds of VOPs. [`WorkerPool`] therefore keeps its workers
//! parked between scopes:
//!
//! - **Workers are spawned once** (per study, see `m4ps-core`) and pull
//!   tasks from per-worker deques: a worker pops its own deque LIFO
//!   (newest first, keeping a row chain's working set hot in its own
//!   cache) and steals FIFO from the front of a sibling's deque (oldest
//!   first, the task furthest from the victim's cache).
//! - **Tasks may spawn tasks.** A row task enqueues the next row of its
//!   slice as soon as its own dependencies (MV-predictor state, bit
//!   position, forked counter stream) resolve — this is how job
//!   construction overlaps execution.
//! - **The scope owner helps.** [`WorkerPool::scope`] does not return
//!   until every transitively spawned task has finished; while waiting,
//!   the calling thread executes tasks itself. With `threads = 1` there
//!   are no background workers at all and every task runs inline on the
//!   caller, which keeps the serial path deterministic and lock-cheap.
//! - **Panics propagate, work is never silently lost.** A panicking
//!   task's payload is captured; remaining queued tasks still run (a
//!   panicked chain simply stops spawning continuations), and the first
//!   payload is re-raised on the scope owner after quiescence.
//!
//! Scheduling never influences *what* is computed — callers own
//! determinism by constructing identical task graphs for every worker
//! count.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use m4ps_obs::{EventKind, Profiler, Recorder};

use crate::{resolve_threads, THREADS_ENV};

/// Upper bound on workers; far above any slice count a VOP is split
/// into, this only guards against absurd `M4PS_THREADS` values.
const MAX_THREADS: usize = 256;

thread_local! {
    /// Index of the pool worker running on this thread, if any. Spawns
    /// from a worker go to its own deque; spawns from any other thread
    /// (the scope owner) go to the shared injector.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A task body, lifetime-erased for storage in the deques. The real
/// type is `Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>`; see the
/// safety argument on [`Scope::spawn`].
type Thunk = Box<dyn FnOnce(&Scope<'static>) + Send + 'static>;

struct Task {
    scope: Arc<ScopeCore>,
    run: Thunk,
    /// Set when the scope is profiled; measured into the
    /// `slice_queue_wait_ns` histogram at dequeue.
    queued_at: Option<Instant>,
}

/// Book-keeping shared by every task of one [`WorkerPool::scope`] call.
struct ScopeCore {
    /// Tasks spawned but not yet finished (running counts as pending).
    pending: Mutex<usize>,
    /// Signalled on task completion *and* on spawn so the scope owner
    /// re-examines the queues instead of sleeping through new work.
    progress: Condvar,
    /// First panic payload captured from a task.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Profiler session tasks attach to while running, if any.
    session: Option<Profiler>,
    /// Tasks of *this scope* taken from a queue other than the taker's
    /// own deque. Per-scope so concurrent scopes on one pool report
    /// their own steal counts without cross-contamination.
    steals: AtomicU64,
}

impl ScopeCore {
    fn store_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

struct SleepState {
    shutdown: bool,
    sleepers: usize,
}

/// State shared between the pool handle, its workers and live scopes.
struct PoolCore {
    /// One deque per background worker.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks submitted from outside the pool (the scope owner).
    injector: Mutex<VecDeque<Task>>,
    sleep: Mutex<SleepState>,
    wake: Condvar,
    /// Tasks taken from a queue other than the taker's own deque
    /// (excluding injector pulls, which are submissions, not steals).
    steals: AtomicU64,
    /// Flight recorder queue/steal/park/wake events go to, when the
    /// pool's owner installed one (see [`WorkerPool::set_recorder`]).
    recorder: OnceLock<Recorder>,
}

impl PoolCore {
    fn has_work(&self) -> bool {
        if !self.injector.lock().unwrap().is_empty() {
            return true;
        }
        self.deques.iter().any(|d| !d.lock().unwrap().is_empty())
    }

    /// Enqueues a task: onto the current worker's own deque when called
    /// from inside the pool, onto the injector otherwise; then wakes a
    /// parked worker if any.
    fn push(&self, task: Task) {
        let dest = match WORKER_INDEX.get() {
            Some(i) if i < self.deques.len() => {
                self.deques[i].lock().unwrap().push_back(task);
                i as u64
            }
            _ => {
                self.injector.lock().unwrap().push_back(task);
                u64::MAX
            }
        };
        if let Some(rec) = self.recorder.get() {
            rec.record(EventKind::PoolQueue, None, dest, 0);
        }
        let s = self.sleep.lock().unwrap();
        if s.sleepers > 0 {
            self.wake.notify_all();
        }
    }

    /// Next task for background worker `i`: own deque newest-first,
    /// then the injector, then steal oldest-first from siblings.
    fn find_task_worker(&self, i: usize) -> Option<Task> {
        if let Some(t) = self.deques[i].lock().unwrap().pop_back() {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().unwrap().pop_front() {
            return Some(t);
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (i + off) % n;
            if let Some(t) = self.deques[victim].lock().unwrap().pop_front() {
                self.note_steal(&t, victim);
                return Some(t);
            }
        }
        None
    }

    /// Bumps the steal counters and records the flight-recorder event
    /// (thief = the calling thread's ring, `a` = victim deque index).
    fn note_steal(&self, task: &Task, victim: usize) {
        self.steals.fetch_add(1, Ordering::Relaxed);
        task.scope.steals.fetch_add(1, Ordering::Relaxed);
        if let Some(rec) = self.recorder.get() {
            rec.record(EventKind::PoolSteal, None, victim as u64, 0);
        }
    }

    /// Whether the scope owner helping from `own_scope` may execute
    /// `task`. Its own scope's tasks always qualify (quiescence must
    /// make progress even with zero background workers). Foreign tasks
    /// qualify only when running them here cannot corrupt profiles:
    /// the helping thread is unattached, or the task belongs to the
    /// same session. A thread attached to session A cannot attach to
    /// session B (no-op guard), so running B's task here would land
    /// its spans and queue metrics in A — those tasks are left for
    /// the background workers or B's own owner.
    fn owner_may_run(
        task: &Task,
        own_scope: &Arc<ScopeCore>,
        own_session: Option<&Profiler>,
    ) -> bool {
        if Arc::ptr_eq(&task.scope, own_scope) {
            return true;
        }
        match own_session {
            None => true,
            Some(s) => task
                .scope
                .session
                .as_ref()
                .is_some_and(|t| t.same_session(s)),
        }
    }

    /// Removes the oldest compatible task from `deque`.
    fn take_compatible(
        deque: &Mutex<VecDeque<Task>>,
        own_scope: &Arc<ScopeCore>,
        own_session: Option<&Profiler>,
    ) -> Option<Task> {
        let mut q = deque.lock().unwrap();
        let idx = q
            .iter()
            .position(|t| Self::owner_may_run(t, own_scope, own_session))?;
        q.remove(idx)
    }

    /// Next task for the scope owner: the injector first (its own
    /// submissions), then steal from worker deques. Only tasks the
    /// owner may run without mis-attributing metrics are taken (see
    /// [`PoolCore::owner_may_run`]).
    fn find_task_external(
        &self,
        own_scope: &Arc<ScopeCore>,
        own_session: Option<&Profiler>,
    ) -> Option<Task> {
        if let Some(t) = Self::take_compatible(&self.injector, own_scope, own_session) {
            return Some(t);
        }
        for (victim, d) in self.deques.iter().enumerate() {
            if let Some(t) = Self::take_compatible(d, own_scope, own_session) {
                self.note_steal(&t, victim);
                return Some(t);
            }
        }
        None
    }

    /// Runs one dequeued task: attaches the scope's profiler session,
    /// records queue wait, captures panics, then marks completion.
    fn run_task(self: &Arc<Self>, task: Task) {
        let Task {
            scope,
            run,
            queued_at,
        } = task;
        {
            let _g = scope.session.as_ref().map(|s| s.attach());
            if let Some(at) = queued_at {
                let wait = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                // Recorded directly into the task's own session (not
                // via the thread-local attachment): a scope owner
                // helping another scope of the same session is already
                // attached, and the wait must land with the scope that
                // queued the task either way.
                if let Some(sess) = &scope.session {
                    sess.metric_histogram_record(m4ps_obs::MetricId::SliceQueueWaitNs, wait);
                }
            }
            // The erased `Scope<'static>` is only ever *exposed* to the
            // closure at its true lifetime; constructing it from owned
            // Arcs keeps this cast-free.
            let reentry = Scope {
                pool: self.clone(),
                core: scope.clone(),
                _marker: PhantomData,
            };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (run)(&reentry))) {
                scope.store_panic(payload);
            }
        }
        let mut pending = scope.pending.lock().unwrap();
        *pending -= 1;
        drop(pending);
        scope.progress.notify_all();
    }

    /// Parks the calling worker until work arrives or shutdown; returns
    /// `false` on shutdown.
    fn park(&self) -> bool {
        let mut s = self.sleep.lock().unwrap();
        loop {
            if s.shutdown {
                return false;
            }
            if self.has_work() {
                return true;
            }
            s.sleepers += 1;
            if let Some(rec) = self.recorder.get() {
                rec.record(EventKind::PoolPark, None, 0, 0);
            }
            s = self.wake.wait(s).unwrap();
            s.sleepers -= 1;
            if let Some(rec) = self.recorder.get() {
                rec.record(EventKind::PoolWake, None, 0, 0);
            }
        }
    }
}

fn worker_loop(core: Arc<PoolCore>, index: usize) {
    WORKER_INDEX.set(Some(index));
    loop {
        if let Some(task) = core.find_task_worker(index) {
            core.run_task(task);
            continue;
        }
        if !core.park() {
            return;
        }
    }
}

/// A persistent pool of `threads - 1` parked worker threads plus the
/// participating scope owner. See the module docs for the scheduling
/// policy; see [`WorkerPool::scope`] for the task API.
pub struct WorkerPool {
    core: Arc<PoolCore>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("steals", &self.steals())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` logical workers (clamped to
    /// `1..=256`): `threads - 1` parked OS threads named
    /// `m4ps-worker-N`, plus the scope owner. `threads = 1` spawns no
    /// threads at all.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let background = threads - 1;
        let core = Arc::new(PoolCore {
            deques: (0..background)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            injector: Mutex::new(VecDeque::new()),
            sleep: Mutex::new(SleepState {
                shutdown: false,
                sleepers: 0,
            }),
            wake: Condvar::new(),
            steals: AtomicU64::new(0),
            recorder: OnceLock::new(),
        });
        let handles = (0..background)
            .map(|i| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name(format!("m4ps-worker-{i}"))
                    .spawn(move || worker_loop(core, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            core,
            handles,
            threads,
        }
    }

    /// Pool sized from `M4PS_THREADS` (see
    /// [`resolve_threads`](crate::resolve_threads)).
    pub fn from_env() -> Self {
        Self::new(resolve_threads(std::env::var(THREADS_ENV).ok().as_deref()))
    }

    /// Logical worker count, including the participating scope owner.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total tasks stolen across the pool's lifetime.
    pub fn steals(&self) -> u64 {
        self.core.steals.load(Ordering::Relaxed)
    }

    /// Installs the flight recorder queue/steal/park/wake events go to.
    /// First caller wins; later calls are no-ops (a pool records into
    /// one recorder for its lifetime — the service that owns it).
    pub fn set_recorder(&self, rec: &Recorder) {
        let _ = self.core.recorder.set(rec.clone());
    }

    /// Runs `f` with a [`Scope`] for spawning tasks and returns once
    /// every transitively spawned task has finished. The calling thread
    /// executes tasks while it waits.
    ///
    /// When `session` is a profiler, each task attaches to it for its
    /// execution (spans land in per-worker trace lanes), queue waits
    /// are recorded into `slice_queue_wait_ns`, steals into
    /// `pool_steals`, and the `pool_workers` gauge is set.
    ///
    /// Nested scopes (calling `scope` from inside a task) are not
    /// supported.
    ///
    /// # Panics
    ///
    /// If any task panicked, the first captured payload is re-raised
    /// here after all tasks have finished.
    pub fn scope<'env, R>(
        &'env self,
        session: Option<&Profiler>,
        f: impl FnOnce(&Scope<'env>) -> R,
    ) -> R {
        if let Some(sess) = session {
            sess.metric_gauge_set(m4ps_obs::MetricId::PoolWorkers, self.threads as u64);
        }
        let core = Arc::new(ScopeCore {
            pending: Mutex::new(0),
            progress: Condvar::new(),
            panic: Mutex::new(None),
            session: session.cloned(),
            steals: AtomicU64::new(0),
        });
        let scope = Scope {
            pool: self.core.clone(),
            core: core.clone(),
            _marker: PhantomData,
        };
        // Even if the scope body panics, spawned tasks still borrow the
        // caller's stack — quiesce before unwinding past it.
        let body = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.help_until_quiescent(&core);
        if let Some(sess) = session {
            // The per-scope counter, not a pool-lifetime delta:
            // concurrent scopes each report exactly their own steals.
            let stolen = core.steals.load(Ordering::Relaxed);
            if stolen > 0 {
                sess.metric_counter_add(m4ps_obs::MetricId::PoolSteals, stolen);
            }
        }
        let result = match body {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        };
        if let Some(payload) = core.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        result
    }

    /// Executes tasks on the calling thread until the scope is
    /// quiescent (no pending tasks anywhere).
    fn help_until_quiescent(&self, scope: &Arc<ScopeCore>) {
        let _g = scope.session.as_ref().map(|s| s.attach());
        // The session this thread is actually attached to right now
        // (the attach above may have been a no-op if the thread came
        // in attached to a different session). It bounds which foreign
        // tasks may run here — see `owner_may_run`.
        let own_session = m4ps_obs::current();
        loop {
            if let Some(task) = self.core.find_task_external(scope, own_session.as_ref()) {
                self.core.run_task(task);
                continue;
            }
            let pending = scope.pending.lock().unwrap();
            if *pending == 0 {
                return;
            }
            // All pending tasks are running on workers. Their
            // completions (and any spawns) signal `progress`; the
            // timeout guards the scan-vs-spawn race.
            let (guard, _) = scope
                .progress
                .wait_timeout(pending, Duration::from_micros(500))
                .unwrap();
            drop(guard);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut s = self.core.sleep.lock().unwrap();
            s.shutdown = true;
        }
        self.core.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Capability to spawn tasks into a [`WorkerPool::scope`]. Handed to
/// the scope body and to every task, so tasks can enqueue their
/// continuations (the wavefront's "row N+1 ready" edge).
pub struct Scope<'scope> {
    pool: Arc<PoolCore>,
    core: Arc<ScopeCore>,
    /// Invariant over `'scope` so the borrow checker cannot shrink the
    /// region tasks may borrow from.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns a task. May be called from the scope body or from inside
    /// another task of the same scope; the enclosing
    /// [`WorkerPool::scope`] call does not return until the task (and
    /// everything it spawns) has finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        let boxed: Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope> = Box::new(f);
        // SAFETY: lifetime erasure only. `scope` blocks until `pending`
        // reaches zero, and `pending` is incremented below before the
        // task becomes visible, so every borrow in `f` outlives the
        // task's execution. The `Scope<'static>` the thunk receives is
        // constructed from owned `Arc`s and is handed back to `f` at
        // the erased lifetime, which is sound because `Scope` is
        // invariant and grants no lifetime-dependent access.
        let run: Thunk = unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>,
                Box<dyn FnOnce(&Scope<'static>) + Send + 'static>,
            >(boxed)
        };
        {
            let mut pending = self.core.pending.lock().unwrap();
            *pending += 1;
        }
        self.pool.push(Task {
            scope: self.core.clone(),
            run,
            queued_at: self.core.session.as_ref().map(|_| Instant::now()),
        });
        // Wake the scope owner too: it may be parked in
        // `help_until_quiescent` after finding the queues empty.
        self.core.progress.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn inline_serial_execution_with_one_thread() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let order = Mutex::new(Vec::new());
        pool.scope(None, |s| {
            for i in 0..4 {
                let order = &order;
                s.spawn(move |s| {
                    order.lock().unwrap().push(i);
                    if i == 0 {
                        s.spawn(move |_| order.lock().unwrap().push(100));
                    }
                });
            }
        });
        let got = order.into_inner().unwrap();
        assert_eq!(got.len(), 5);
        // FIFO injector: the batch runs in spawn order, continuations
        // after.
        assert_eq!(got, vec![0, 1, 2, 3, 100]);
        assert_eq!(pool.steals(), 0);
    }

    #[test]
    fn continuation_chains_complete_across_threads() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let sum = AtomicUsize::new(0);
            pool.scope(None, |s| {
                for chain in 0..7usize {
                    let sum = &sum;
                    fn step<'s>(s: &Scope<'s>, sum: &'s AtomicUsize, chain: usize, depth: usize) {
                        sum.fetch_add(chain + depth, Ordering::Relaxed);
                        if depth < 9 {
                            s.spawn(move |s| step(s, sum, chain, depth + 1));
                        }
                    }
                    s.spawn(move |s| step(s, sum, chain, 0));
                }
            });
            let expect: usize = (0..7).map(|c| (0..10).map(|d| c + d).sum::<usize>()).sum();
            assert_eq!(sum.load(Ordering::Relaxed), expect, "threads={threads}");
        }
    }

    #[test]
    fn scope_body_result_is_returned() {
        let pool = WorkerPool::new(3);
        let n = pool.scope(None, |s| {
            s.spawn(|_| {});
            42
        });
        assert_eq!(n, 42);
    }

    #[test]
    fn task_panic_propagates_after_quiescence() {
        let pool = WorkerPool::new(4);
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(None, |s| {
                for i in 0..16 {
                    let ran = &ran;
                    s.spawn(move |_| {
                        if i == 3 {
                            panic!("task failed");
                        }
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(caught.is_err(), "task panic must reach the scope owner");
        // Every non-panicking task still ran: no lost work.
        assert_eq!(ran.load(Ordering::Relaxed), 15);
        // The pool survives for the next scope.
        let ok = pool.scope(None, |s| {
            s.spawn(|_| {});
            7
        });
        assert_eq!(ok, 7);
    }

    #[test]
    fn pool_reuse_across_many_scopes() {
        let pool = WorkerPool::new(4);
        for round in 0..50usize {
            let count = AtomicUsize::new(0);
            pool.scope(None, |s| {
                for _ in 0..round % 5 {
                    let count = &count;
                    s.spawn(move |_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), round % 5);
        }
    }

    #[test]
    fn profiled_scope_records_pool_metrics() {
        let pool = WorkerPool::new(2);
        let session = Profiler::new(false);
        pool.scope(Some(&session), |s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    std::thread::sleep(Duration::from_micros(50));
                });
            }
        });
        let jsonl = session.metrics_jsonl();
        let workers = jsonl
            .lines()
            .map(|l| m4ps_testkit::json::Json::parse(l).expect("valid JSONL"))
            .find(|d| d.get("metric").and_then(|m| m.as_str()) == Some("pool_workers"))
            .expect("pool_workers gauge present");
        assert_eq!(workers.get("value").unwrap().as_f64(), Some(2.0));
        let waits = jsonl
            .lines()
            .map(|l| m4ps_testkit::json::Json::parse(l).expect("valid JSONL"))
            .find(|d| d.get("metric").and_then(|m| m.as_str()) == Some("slice_queue_wait_ns"))
            .expect("queue-wait histogram present");
        assert_eq!(waits.get("count").unwrap().as_f64(), Some(8.0));
    }

    #[test]
    fn recorder_sees_queue_and_steal_events() {
        let pool = WorkerPool::new(4);
        let rec = Recorder::new(256);
        pool.set_recorder(&rec);
        pool.scope(None, |s| {
            for _ in 0..32 {
                s.spawn(|_| {
                    std::thread::sleep(Duration::from_micros(20));
                });
            }
        });
        let dump = rec.snapshot();
        let queued = dump
            .events
            .iter()
            .filter(|e| e.ev.kind == EventKind::PoolQueue)
            .count();
        assert_eq!(queued, 32, "every spawn records one queue event");
        // Owner submissions from outside the pool land in the injector.
        assert!(dump
            .events
            .iter()
            .filter(|e| e.ev.kind == EventKind::PoolQueue)
            .all(|e| e.ev.a == u64::MAX));
        let stolen = dump
            .events
            .iter()
            .filter(|e| e.ev.kind == EventKind::PoolSteal)
            .count() as u64;
        assert_eq!(stolen, pool.steals(), "steal events match the counter");
    }

    #[test]
    fn concurrent_scopes_keep_metrics_isolated() {
        use m4ps_obs::MetricId;
        // Three driver threads share one pool, each running profiled
        // scopes under its own session. Every session must see exactly
        // its own queue waits and steals, at any interleaving.
        let pool = WorkerPool::new(4);
        let sessions: Vec<Profiler> = (0..3).map(|_| Profiler::new(false)).collect();
        let per_session_tasks: Vec<usize> = (0..3).map(|k| (k + 1) * 4).collect();
        std::thread::scope(|ts| {
            for (k, sess) in sessions.iter().enumerate() {
                let pool = &pool;
                let tasks = per_session_tasks[k];
                ts.spawn(move || {
                    let _g = sess.attach();
                    for _round in 0..5 {
                        pool.scope(Some(sess), |s| {
                            for _ in 0..tasks {
                                s.spawn(|_| {
                                    std::thread::sleep(Duration::from_micros(20));
                                });
                            }
                        });
                    }
                });
            }
        });
        for (k, sess) in sessions.iter().enumerate() {
            let expect = (5 * per_session_tasks[k]) as u64;
            let waits = sess.histogram_snapshot(MetricId::SliceQueueWaitNs);
            assert_eq!(waits.count, expect, "session {k} queue-wait count");
            // A task is stolen at most once, so a correctly attributed
            // per-session steal count can never exceed the session's
            // own task count (the old pool-lifetime delta could).
            let steals = sess.metric_counter_value(MetricId::PoolSteals);
            assert!(
                steals <= expect,
                "session {k}: steals {steals} > tasks {expect}"
            );
        }
    }
}
