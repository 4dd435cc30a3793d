//! Exact order statistics over the benchmark's own samples.
//!
//! Every percentile the benchmark reports is a nearest-rank value taken
//! from the samples themselves, so it is always one of the observed
//! values and never exceeds the maximum. (`m4ps_obs::HistogramSnapshot`
//! quantiles interpolate inside log₂ buckets and are not clamped to
//! `max`; the benchmark never reports them.)

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q` in
/// `(0, 1]`: the smallest sample with at least a `q` share of the samples
/// at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a quantile outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps q·n that is integral in exact arithmetic (0.9 ×
    // 100) from rounding up to the next rank.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest of `quantiles` with at least [`MIN_BEYOND`] of `n`
/// samples beyond it, or `None` when even the lowest lacks them.
pub fn highest_supported(n: usize, quantiles: &[f64]) -> Option<f64> {
    quantiles
        .iter()
        .copied()
        .filter(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, q| {
            Some(best.map_or(q, |b| b.max(q)))
        })
}

/// A sample set reduced to what the report needs.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaN-free) for order statistics.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile; `None` when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it (the value would rest on too few samples).
    pub fn pct(&self, q: f64) -> Option<f64> {
        (!self.sorted.is_empty() && beyond(self.sorted.len(), q) >= MIN_BEYOND)
            .then(|| percentile(&self.sorted, q))
    }

    /// Median (nearest-rank p50); `None` for an empty set.
    pub fn median(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| percentile(&self.sorted, 0.5))
    }

    /// Largest sample; `None` for an empty set.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// Repeated measurements of a fixed set of positions: the same frame
/// coded again in every pass, the same arrival of an identical schedule
/// in every burst. On a shared host a single measurement can be stalled
/// several-fold; the median of a position's repetitions cannot, unless
/// most of them were. Percentiles are then taken over the positions'
/// medians.
#[derive(Debug, Clone, Default)]
pub struct Positions {
    by_pos: Vec<Vec<f64>>,
}

impl Positions {
    /// Records one measurement of position `pos`.
    pub fn push(&mut self, pos: usize, value: f64) {
        if self.by_pos.len() <= pos {
            self.by_pos.resize(pos + 1, Vec::new());
        }
        self.by_pos[pos].push(value);
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.by_pos.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.by_pos.is_empty()
    }

    /// Fewest repetitions of any position.
    pub fn repetitions(&self) -> usize {
        self.by_pos.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Total measurements.
    pub fn samples(&self) -> usize {
        self.by_pos.iter().map(Vec::len).sum()
    }

    /// Nearest-rank percentile over the positions' medians; `None` when
    /// the positions beyond it hold fewer than [`MIN_BEYOND`]
    /// measurements.
    pub fn pct(&self, q: f64) -> Option<f64> {
        let medians = Samples::new(self.by_pos.iter().map(|v| median(v)).collect());
        let n = medians.len();
        (n > 0 && beyond(n, q) * self.repetitions() >= MIN_BEYOND)
            .then(|| percentile(&medians.sorted, q))
    }
}

/// Median of `values` (nearest-rank), `0.0` for none.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(0.0)
}
