//! Host-speed probe and the normalization of timings by it.
//!
//! On a shared host the same code runs at different speeds from one
//! minute to the next. On the reference machine the whole VM ran 1.5 to
//! 2.1 times slower than its fastest for minutes at a time, and CPU time
//! does not see it (there is no steal time). Within a run the speed also
//! jitters from one call to the next, but that jitter is not shared
//! between the program and anything timed beside it, so it is left to
//! the medians; what the probe removes is the state the host was in over
//! the run.
//!
//! The probe is a fixed piece of work written here in the benchmark,
//! independent of every crate of the program: a two-level, two-way LRU
//! cache simulation over the address stream of a ±8 block search, that
//! is scalar, branchy, cache-resident work like the memory model's. A
//! change to the program cannot change the probe, so its time measures
//! the host alone. Each stage reads it between its own calls, on as many
//! threads as the stage runs, and every timing of the run is divided by
//! the median reading over [`REFERENCE_MS`] (every rate multiplied): the
//! figures then read as on the reference machine at its fastest. The
//! measured values stay in the report as `raw` lines.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::median;

/// Probe reading of the reference machine (2-core Xeon VM, release
/// build) at its fastest, ms.
pub const REFERENCE_MS: f64 = 0.285;

/// Expected result of every probe run (simulated L1 misses plus L2
/// misses << 20): a run that returns anything else did other work.
pub const CHECKSUM: u64 = 188_744_400;

const WIDTH: u64 = 720;
const RANGE: u64 = 8;
const L1_SETS: usize = 512;
const L2_SETS: usize = 4096;

/// Timed runs per probe reading; the reading is their median.
const RUNS: usize = 3;

/// One run of the cache simulation over one macroblock row of a PAL
/// frame; returns the simulated misses.
pub fn simulate() -> u64 {
    let mut l1 = vec![[u64::MAX; 2]; L1_SETS];
    let mut l2 = vec![[u64::MAX; 2]; L2_SETS];
    let mut misses = 0u64;
    let mut access = |addr: u64| {
        let line = addr >> 5;
        let set = &mut l1[line as usize & (L1_SETS - 1)];
        if set[0] == line {
            return;
        }
        if set[1] == line {
            set.swap(0, 1);
            return;
        }
        *set = [line, set[0]];
        misses += 1;
        let line = addr >> 7;
        let set = &mut l2[line as usize & (L2_SETS - 1)];
        if set[0] == line {
            return;
        }
        if set[1] == line {
            set.swap(0, 1);
            return;
        }
        *set = [line, set[0]];
        misses += 1 << 20;
    };
    let y0 = black_box(16u64);
    for mbx in 1..WIDTH / 16 - 1 {
        for dy in 0..=2 * RANGE {
            for dx in 0..=2 * RANGE {
                let base = (y0 + dy - RANGE) * WIDTH + mbx * 16 + dx - RANGE;
                for row in 0..16 {
                    access(base + row * WIDTH);
                    access(base + row * WIDTH + 15);
                }
            }
        }
    }
    misses
}

/// Probe runs so far, and those that did not return [`CHECKSUM`].
static RUNS_DONE: AtomicUsize = AtomicUsize::new(0);
static RUNS_WRONG: AtomicUsize = AtomicUsize::new(0);

/// One probe reading: the median of [`RUNS`] timed runs, in ms.
pub fn probe() -> f64 {
    let times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            let misses = black_box(simulate());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            RUNS_DONE.fetch_add(1, Ordering::Relaxed);
            if misses != CHECKSUM {
                RUNS_WRONG.fetch_add(1, Ordering::Relaxed);
            }
            ms
        })
        .collect();
    median(&times)
}

/// Probe runs so far and how many of them returned a wrong checksum.
pub fn runs() -> (usize, usize) {
    (
        RUNS_DONE.load(Ordering::Relaxed),
        RUNS_WRONG.load(Ordering::Relaxed),
    )
}

/// One reading on `threads` threads at once, their mean: for a stage
/// that runs on a pool, since one core can be slow while the other is
/// not.
pub fn probe_wide(threads: usize) -> f64 {
    if threads <= 1 {
        return probe();
    }
    let readings: Vec<f64> = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(probe)).collect();
        let mine = probe();
        std::iter::once(mine)
            .chain(others.into_iter().filter_map(|h| h.join().ok()))
            .collect()
    });
    readings.iter().sum::<f64>() / readings.len() as f64
}

/// Every reading taken so far in this process, ms.
static READINGS: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Takes a reading on `threads` threads and keeps it for [`slowdown`].
pub fn sample(threads: usize) {
    let ms = probe_wide(threads);
    if let Ok(mut r) = READINGS.lock() {
        r.push(ms);
    }
}

/// The run's host slowdown: the median of every reading [`sample`] kept,
/// over [`REFERENCE_MS`], and the number of readings. The stages run in
/// interleaved rounds, so one figure describes the state the host was
/// in over all of them, and a few readings that caught a core in another
/// state than the rest of the run do not set it. `NaN` without readings
/// (the run then fails its finiteness check).
pub fn slowdown() -> (f64, usize) {
    let r = READINGS.lock().map(|r| r.clone()).unwrap_or_default();
    if r.is_empty() {
        return (f64::NAN, 0);
    }
    (median(&r) / REFERENCE_MS, r.len())
}
