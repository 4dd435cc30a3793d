//! Macroblock-row slices: the deterministic partition, and the one
//! executor that runs a VOP's slices for the encoder and the decoder.
//!
//! [`partition_rows`] defines how a VOP's macroblock rows split into
//! slices. The partition depends only on the row count and the requested
//! slice count — never on the thread count executing it — which is the
//! root of the pipeline's bit-exactness guarantee: workers only
//! *schedule* slices, they cannot change them.
//!
//! [`run_row_chains`] runs the slices of a multi-slice VOP as row chains
//! on a [`WorkerPool`]. Each side describes one slice with a
//! [`SliceBody`] — a per-row step and a finish — and the executor owns
//! everything else: the per-slice model forks, the rows-per-task grain
//! (the one place [`Scheduling`] is read), the domain span, the result
//! slot, the panic boundary and the in-order drain. A single-slice VOP drives the same step with
//! [`step_rows`] on the caller's model, with no fork and no pool.

use crate::error::CodecError;
use m4ps_memsim::ParallelModel;
use m4ps_obs::Phase;
use m4ps_pool::{Scope, WorkerPool};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

/// Splits the macroblock-row range `rows` into at most `slices`
/// contiguous, non-empty, in-order sub-ranges.
///
/// The first `rows.len() % n` slices get one extra row, so slice sizes
/// differ by at most one. Requests for more slices than rows (or zero
/// slices) are clamped; an empty input yields a single empty slice so
/// callers need no special case.
pub(crate) fn partition_rows(rows: Range<usize>, slices: usize) -> Vec<Range<usize>> {
    let n = rows.len();
    let count = slices.clamp(1, n.max(1));
    let base = n / count;
    let extra = n % count;
    let mut out = Vec::with_capacity(count);
    let mut start = rows.start;
    for s in 0..count {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, rows.end);
    out
}

/// Environment variable selecting the default [`Scheduling`] mode.
/// `slice` (or `slice-parallel`) picks [`Scheduling::SliceParallel`];
/// anything else — including unset — picks [`Scheduling::Wavefront`].
pub const SCHED_ENV: &str = "M4PS_SCHED";

/// How a VOP's macroblock work is decomposed onto the worker pool.
///
/// Purely a scheduling knob: both modes build the *same* per-slice
/// forked counter streams, charge windows and bitstream segments, so
/// bitstream bytes and merged [`Counters`](m4ps_memsim::Counters) are
/// bit-identical across modes and thread counts (pinned by
/// `tests/parallel.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// One task per slice: the coarse decomposition. An expensive
    /// slice serializes everything scheduled behind it on one worker.
    SliceParallel,
    /// One task per macroblock row, chained per slice: each row task
    /// enqueues its slice's next row as soon as the row's dependencies
    /// (MV-predictor state, bit position, forked counter stream)
    /// resolve, so scheduling balances skewed row costs via stealing.
    #[default]
    Wavefront,
}

impl Scheduling {
    /// Mode from the `M4PS_SCHED` environment variable.
    pub fn from_env() -> Self {
        match std::env::var(SCHED_ENV).ok().as_deref().map(str::trim) {
            Some("slice") | Some("slice-parallel") => Scheduling::SliceParallel,
            _ => Scheduling::Wavefront,
        }
    }

    /// Macroblock rows coded per task.
    fn grain(self) -> usize {
        match self {
            Scheduling::SliceParallel => usize::MAX,
            Scheduling::Wavefront => 1,
        }
    }
}

/// One slice of a VOP, as the row-chain executor drives it.
///
/// A body owns the slice's coding state (writer or reader, charge
/// window, reconstruction band, scratch, statistics); the executor owns
/// the model it runs on, so the same body runs inline on the caller's
/// model for a single-slice VOP and on a fork for a slice chain.
pub(crate) trait SliceBody<M> {
    /// Phase that labels each chain task's domain span.
    const PHASE: Phase;
    /// What a finished slice hands back to the coordinator.
    type Out;

    /// Codes macroblock row `mby` on `mem`. `first` marks the slice's
    /// first row, where prediction state starts from reset.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] ends the slice, and fails the VOP.
    fn step(&mut self, mem: &mut M, mby: usize, first: bool) -> Result<(), CodecError>;

    /// Ends the slice after its last row and returns its output.
    fn finish(&mut self, mem: &mut M) -> Self::Out;
}

/// Steps `body` through `rows`, the part of a slice whose first row is
/// `first_row`. A single-slice VOP calls this once over all its rows.
///
/// # Errors
///
/// The first error a step returns.
pub(crate) fn step_rows<M, S: SliceBody<M>>(
    body: &mut S,
    mem: &mut M,
    rows: Range<usize>,
    first_row: usize,
) -> Result<(), CodecError> {
    for mby in rows {
        body.step(mem, mby, mby == first_row)?;
    }
    Ok(())
}

/// Everything a slice's row chain carries from one task to the next:
/// the forked counter stream, the slice body, and the row cursor.
/// Moving the whole state along the chain is what pins determinism —
/// each fork sees exactly the access sequence one task per slice would
/// produce, just cut into one task per `grain` rows.
struct Chain<M, S> {
    mem: M,
    body: S,
    rows: Range<usize>,
    next: usize,
}

/// One slice's result slot: filled exactly once by its chain's last
/// task, drained by the coordinator in slice order.
type Slot<M, T> = Mutex<Option<Result<(T, M), CodecError>>>;

/// Runs a multi-slice VOP: each `(rows, body)` slice becomes a row chain
/// on `pool`, and each finished slice's output goes to `take`, in slice
/// order.
///
/// The executor forks one model per slice, in slice order, on the
/// calling (coordinator) thread, so every slice starts from the same
/// model state whatever the scheduling. Each task steps up to
/// `sched`'s grain of rows inside a domain span of [`SliceBody::PHASE`], then either spawns
/// the chain's continuation (the wavefront "row N+1 ready" edge) or
/// finishes the slice into its result slot. After the scope, every
/// slice's fork is absorbed into `mem` in slice order and its output
/// handed to `take`; output and merged counters are therefore identical
/// at every thread count and grain.
///
/// # Errors
///
/// The first failed slice's error, in slice order. A panic inside a
/// slice is caught at its task boundary and becomes
/// [`CodecError::SliceTaskPanicked`]: the pool is never poisoned, and
/// the other slices still run to their end. Slices after the failed one
/// are neither absorbed nor handed to `take`.
pub(crate) fn run_row_chains<M, S>(
    mem: &mut M,
    pool: &WorkerPool,
    sched: Scheduling,
    slices: impl IntoIterator<Item = (Range<usize>, S)>,
    mut take: impl FnMut(S::Out),
) -> Result<(), CodecError>
where
    M: ParallelModel,
    S: SliceBody<M> + Send,
    S::Out: Send,
{
    let chains: Vec<Chain<M, S>> = slices
        .into_iter()
        .map(|(rows, body)| Chain {
            mem: mem.fork(),
            body,
            next: rows.start,
            rows,
        })
        .collect();
    let slots: Vec<Slot<M, S::Out>> = chains.iter().map(|_| Mutex::new(None)).collect();
    let grain = sched.grain();
    let session = m4ps_obs::current();
    pool.scope(session.as_ref(), |scope| {
        for (chain, slot) in chains.into_iter().zip(&slots) {
            scope.spawn(move |s| chain_task(chain, grain, slot, s));
        }
    });
    for slot in slots {
        let (out, smem) = slot
            .into_inner()
            .expect("slice slot lock")
            .expect("scope waits for every slice chain")?;
        let child_total = *smem.counters();
        mem.absorb(smem);
        // Keep the caller's open phase from double-counting the jump
        // `absorb` just folded in (the slices' own domain spans carry
        // those counters, phase by phase).
        m4ps_obs::absorbed(&child_total);
        take(out);
    }
    Ok(())
}

/// One task of a slice's row chain: steps up to `grain` rows, then
/// spawns the continuation or fills the slice's result slot.
fn chain_task<'s, M, S>(
    mut chain: Chain<M, S>,
    grain: usize,
    slot: &'s Slot<M, S::Out>,
    scope: &Scope<'s>,
) where
    M: ParallelModel + 's,
    S: SliceBody<M> + Send + 's,
    S::Out: Send,
{
    // A *domain* span: this task charges the fork `chain.mem`, not the
    // caller's model, so its delta must not be subtracted from the
    // lexical parent phase (the coordinator accounts for it via
    // `absorbed` instead). Spans are per task, so each worker's span
    // stack stays balanced; the per-task deltas sum to the fork total.
    let obs_on = m4ps_obs::enabled();
    if obs_on {
        m4ps_obs::enter_domain(S::PHASE, *chain.mem.counters());
    }
    let stop = chain.next.saturating_add(grain).min(chain.rows.end);
    let done = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let Chain {
            mem,
            body,
            rows,
            next,
        } = &mut chain;
        step_rows(body, mem, *next..stop, rows.start)?;
        *next = stop;
        Ok((stop == rows.end).then(|| body.finish(mem)))
    }))
    .unwrap_or(Err(CodecError::SliceTaskPanicked));
    if obs_on {
        m4ps_obs::exit_domain(S::PHASE, *chain.mem.counters());
    }
    match done {
        Ok(None) => scope.spawn(move |s| chain_task(chain, grain, slot, s)),
        Ok(Some(out)) => *slot.lock().expect("slice slot lock") = Some(Ok((out, chain.mem))),
        Err(e) => *slot.lock().expect("slice slot lock") = Some(Err(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m4ps_memsim::{AccessKind, Counters, MemModel};
    use std::sync::Arc;
    use std::thread::ThreadId;

    /// Counts `add_ops`, and logs every fork with the thread that made
    /// it; each fork carries its position in that log.
    struct CountingModel {
        counters: Counters,
        id: usize,
        forks: Arc<Mutex<Vec<ThreadId>>>,
    }

    impl CountingModel {
        fn new() -> Self {
            CountingModel {
                counters: Counters::new(),
                id: usize::MAX,
                forks: Arc::default(),
            }
        }
    }

    impl MemModel for CountingModel {
        fn access_range(&mut self, _: u64, _: u64, _: AccessKind, ops: u64) {
            self.counters.compute_ops += ops;
        }
        fn prefetch(&mut self, _: u64) {}
        fn add_ops(&mut self, ops: u64) {
            self.counters.compute_ops += ops;
        }
        fn counters(&self) -> &Counters {
            &self.counters
        }
    }

    impl ParallelModel for CountingModel {
        fn fork(&self) -> Self {
            let mut forks = self.forks.lock().unwrap();
            forks.push(std::thread::current().id());
            CountingModel {
                counters: Counters::new(),
                id: forks.len() - 1,
                forks: Arc::clone(&self.forks),
            }
        }
        fn absorb(&mut self, child: Self) {
            self.counters = self.counters.merged_with(&child.counters);
        }
    }

    /// A toy slice: records the rows it steps and the fork it ran on,
    /// and panics on row `panic_at`.
    struct ToySlice<'a> {
        slice: usize,
        rows: Vec<usize>,
        fork: Option<usize>,
        panic_at: Option<usize>,
        finished: &'a Mutex<Vec<usize>>,
    }

    impl SliceBody<CountingModel> for ToySlice<'_> {
        const PHASE: Phase = Phase::Slice;
        type Out = (usize, usize, Vec<usize>);

        fn step(
            &mut self,
            mem: &mut CountingModel,
            mby: usize,
            first: bool,
        ) -> Result<(), CodecError> {
            assert_eq!(first, self.rows.is_empty(), "first flag on row {mby}");
            if self.panic_at == Some(mby) {
                panic!("toy slice {} panics on row {mby}", self.slice);
            }
            // Every task of a chain runs on the chain's one fork.
            assert_eq!(*self.fork.get_or_insert(mem.id), mem.id);
            self.rows.push(mby);
            mem.add_ops(1);
            Ok(())
        }

        fn finish(&mut self, mem: &mut CountingModel) -> Self::Out {
            self.finished.lock().unwrap().push(self.slice);
            (self.slice, mem.id, std::mem::take(&mut self.rows))
        }
    }

    /// The result of a toy run, the outputs handed back, the slices that
    /// finished, and the coordinator's model.
    type ToyRun = (
        Result<(), CodecError>,
        Vec<(usize, usize, Vec<usize>)>,
        Vec<usize>,
        CountingModel,
    );

    /// Runs nine rows as four toy slices.
    fn run_toy(pool: &WorkerPool, sched: Scheduling, panic_at: Option<usize>) -> ToyRun {
        let finished = Mutex::new(Vec::new());
        let mut mem = CountingModel::new();
        let mut outs = Vec::new();
        let slices = partition_rows(0..9, 4)
            .into_iter()
            .enumerate()
            .map(|(s, rows)| {
                let body = ToySlice {
                    slice: s,
                    rows: Vec::new(),
                    fork: None,
                    panic_at,
                    finished: &finished,
                };
                (rows, body)
            });
        let res = run_row_chains(&mut mem, pool, sched, slices, |out| outs.push(out));
        (res, outs, finished.into_inner().unwrap(), mem)
    }

    #[test]
    fn executor_returns_slices_in_order_with_ordered_forks_and_rows() {
        let coordinator = std::thread::current().id();
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            for sched in [Scheduling::Wavefront, Scheduling::SliceParallel] {
                let (res, outs, _, mem) = run_toy(&pool, sched, None);
                assert_eq!(res, Ok(()));
                let parts = partition_rows(0..9, 4);
                assert_eq!(outs.len(), parts.len());
                for (s, ((slice, fork, rows), part)) in outs.into_iter().zip(parts).enumerate() {
                    assert_eq!(slice, s, "outputs come back in slice order");
                    assert_eq!(fork, s, "slice {s} runs on the {s}-th fork");
                    assert_eq!(rows, part.collect::<Vec<_>>(), "rows in order");
                }
                let forks = mem.forks.lock().unwrap();
                assert_eq!(forks.len(), 4);
                assert!(
                    forks.iter().all(|&t| t == coordinator),
                    "forks on the coordinator"
                );
                assert_eq!(mem.counters.compute_ops, 9, "every fork absorbed once");
            }
        }
    }

    #[test]
    fn a_panicking_slice_fails_alone_and_leaves_the_pool_clean() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            for sched in [Scheduling::Wavefront, Scheduling::SliceParallel] {
                // Row 4 lies in slice 1 (rows 3..5).
                let (res, outs, mut finished, mem) = run_toy(&pool, sched, Some(4));
                assert_eq!(res, Err(CodecError::SliceTaskPanicked));
                // Only the slice before the failed one is handed back...
                assert_eq!(outs.iter().map(|o| o.0).collect::<Vec<_>>(), vec![0]);
                assert_eq!(mem.counters.compute_ops, 3);
                // ...but every other slice still ran to its end.
                finished.sort_unstable();
                assert_eq!(finished, vec![0, 2, 3]);
                // The same pool then runs a clean scope.
                let (res, outs, _, _) = run_toy(&pool, sched, None);
                assert_eq!(res, Ok(()));
                assert_eq!(outs.len(), 4);
            }
        }
    }

    #[test]
    fn covers_range_in_order_without_gaps() {
        for total in 1..40usize {
            for slices in 1..10usize {
                let parts = partition_rows(3..3 + total, slices);
                assert_eq!(parts.len(), slices.min(total));
                assert_eq!(parts[0].start, 3);
                assert_eq!(parts.last().unwrap().end, 3 + total);
                for w in parts.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<usize> = parts.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "uneven split {sizes:?}");
                assert!(*min >= 1);
            }
        }
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        assert_eq!(partition_rows(0..9, 0), vec![0..9]);
        assert_eq!(partition_rows(0..2, 5), vec![0..1, 1..2]);
        assert_eq!(partition_rows(4..4, 3), vec![4..4]);
    }

    #[test]
    fn nine_rows_four_slices_front_loads_remainder() {
        assert_eq!(partition_rows(0..9, 4), vec![0..3, 3..5, 5..7, 7..9]);
    }
}
