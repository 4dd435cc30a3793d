//! A small fixed registry of counters, gauges and log₂-bucket
//! histograms, exported as JSONL via `testkit::json`.
//!
//! The id space is a closed enum rather than string interning: every
//! metric this workload emits is known at compile time, lookups are
//! array indexing, and recording is a single atomic RMW — cheap enough
//! to leave in per-macroblock paths behind the [`enabled`]
//! (crate::enabled) gate.

use m4ps_testkit::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets in a histogram: bucket `i` counts values whose bit length
/// is `i` (i.e. `v` in `[2^(i-1), 2^i)`; bucket 0 holds zero).
const HIST_BUCKETS: usize = 32;

/// Every metric the workload records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricId {
    /// Histogram: SAD candidates evaluated per motion search.
    MeSadPerSearch,
    /// Counter: bytes spent on resync markers + slice headers.
    ResyncMarkerBytes,
    /// Histogram: nanoseconds a slice job waited in the pool queue.
    SliceQueueWaitNs,
    /// Gauge: worker threads the pool last scheduled onto.
    PoolWorkers,
    /// Counter: tasks taken from another worker's deque (or the
    /// injector by a thief) in the work-stealing pool.
    PoolSteals,
    /// Gauge: resolved SIMD kernel tier (0 = scalar, 1 = SSE2,
    /// 2 = AVX2) the dsp dispatch table is serving.
    KernelTier,
    /// Histogram: nanoseconds from a frame job becoming ready in the
    /// serve scheduler to its encode completing (queueing + encode).
    ServeFrameLatencyNs,
    /// Gauge: sessions currently admitted and not yet finished in the
    /// multi-session service.
    ServeSessionsActive,
    /// Counter: sessions admitted by the service.
    ServeSessionsAccepted,
    /// Counter: sessions rejected at submit by admission control.
    ServeSessionsRejected,
    /// Counter: admitted sessions shed (cancelled early) under
    /// sustained overload.
    ServeSessionsShed,
}

/// The shape of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic sum.
    Counter,
    /// Last-written value.
    Gauge,
    /// Log₂-bucket distribution with count and sum.
    Histogram,
}

impl MetricId {
    /// Stable snake_case name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            MetricId::MeSadPerSearch => "me_sad_per_search",
            MetricId::ResyncMarkerBytes => "resync_marker_bytes",
            MetricId::SliceQueueWaitNs => "slice_queue_wait_ns",
            MetricId::PoolWorkers => "pool_workers",
            MetricId::PoolSteals => "pool_steals",
            MetricId::KernelTier => "kernel_tier",
            MetricId::ServeFrameLatencyNs => "serve_frame_latency_ns",
            MetricId::ServeSessionsActive => "serve_sessions_active",
            MetricId::ServeSessionsAccepted => "serve_sessions_accepted",
            MetricId::ServeSessionsRejected => "serve_sessions_rejected",
            MetricId::ServeSessionsShed => "serve_sessions_shed",
        }
    }

    /// The metric's shape.
    pub fn kind(self) -> MetricKind {
        match self {
            MetricId::MeSadPerSearch
            | MetricId::SliceQueueWaitNs
            | MetricId::ServeFrameLatencyNs => MetricKind::Histogram,
            MetricId::ResyncMarkerBytes
            | MetricId::PoolSteals
            | MetricId::ServeSessionsAccepted
            | MetricId::ServeSessionsRejected
            | MetricId::ServeSessionsShed => MetricKind::Counter,
            MetricId::PoolWorkers | MetricId::KernelTier | MetricId::ServeSessionsActive => {
                MetricKind::Gauge
            }
        }
    }
}

#[derive(Debug)]
struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    fn to_json_fields(&self) -> Vec<(&'static str, Json)> {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                // Upper bound (inclusive) of values with bit length i.
                let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
                buckets.push(Json::obj(vec![
                    ("le", Json::Num(le as f64)),
                    ("count", Json::Num(n as f64)),
                ]));
            }
        }
        vec![
            ("count", Json::Num(count as f64)),
            ("sum", Json::Num(sum as f64)),
            ("max", Json::Num(max as f64)),
            ("buckets", Json::Arr(buckets)),
        ]
    }
}

/// A point-in-time copy of a log₂-bucket histogram, with quantile
/// estimation. Snapshots subtract (`delta_since`), which is what the
/// serve admission controller uses to watch a sliding window of queue
/// waits instead of the session-lifetime distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total values recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest value recorded (exact, not bucket-quantized). Shed and
    /// SLO decisions read this for the tail beyond p99: a single 2 s
    /// outlier is invisible to interpolated quantiles over a handful
    /// of samples but shows up here exactly.
    pub max: u64,
    /// Bucket `i` counts values with bit length `i` (bucket 0 = zero).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// An empty snapshot (no samples).
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear
    /// interpolation inside the log₂ bucket holding the target rank,
    /// never above the exact `max`. Returns 0 for an empty snapshot.
    /// The estimate is exact at bucket boundaries and within one
    /// bucket's width otherwise; values beyond the last bucket saturate
    /// at its upper edge (`2^31 - 1`, ~2.1 s when recording
    /// nanoseconds).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample that sits at quantile q.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = if i == 0 { 0 } else { (1u64 << i) - 1 };
                let into = (rank - seen) as f64 / n as f64;
                // A sparse top bucket interpolates toward its upper
                // edge, which can lie far above the largest value seen.
                return (lo + ((hi - lo) as f64 * into) as u64).min(self.max);
            }
            seen += n;
        }
        // Unreachable when count == sum of buckets; be defensive for
        // torn concurrent reads.
        ((1u64 << (HIST_BUCKETS - 1)) - 1).min(self.max)
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The distribution of samples recorded since `earlier` was
    /// taken. Saturating per field, so a torn read (snapshot taken
    /// mid-record on another thread) cannot underflow. `max` cannot be
    /// windowed from two running maxima, so the delta carries the
    /// lifetime max up to the later snapshot — a correct upper bound
    /// on the window's max — or 0 when the window is empty.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let count = self.count.saturating_sub(earlier.count);
        HistogramSnapshot {
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            max: if count == 0 { 0 } else { self.max },
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }
}

/// The per-session metric store. All operations are atomic, so worker
/// threads record through a shared reference.
#[derive(Debug)]
pub(crate) struct Registry {
    me_sad_per_search: Histogram,
    resync_marker_bytes: AtomicU64,
    slice_queue_wait_ns: Histogram,
    pool_workers: AtomicU64,
    pool_steals: AtomicU64,
    kernel_tier: AtomicU64,
    serve_frame_latency_ns: Histogram,
    serve_sessions_active: AtomicU64,
    serve_sessions_accepted: AtomicU64,
    serve_sessions_rejected: AtomicU64,
    serve_sessions_shed: AtomicU64,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            me_sad_per_search: Histogram::new(),
            resync_marker_bytes: AtomicU64::new(0),
            slice_queue_wait_ns: Histogram::new(),
            pool_workers: AtomicU64::new(0),
            pool_steals: AtomicU64::new(0),
            kernel_tier: AtomicU64::new(0),
            serve_frame_latency_ns: Histogram::new(),
            serve_sessions_active: AtomicU64::new(0),
            serve_sessions_accepted: AtomicU64::new(0),
            serve_sessions_rejected: AtomicU64::new(0),
            serve_sessions_shed: AtomicU64::new(0),
        }
    }

    pub(crate) fn counter_add(&self, id: MetricId, v: u64) {
        debug_assert_eq!(id.kind(), MetricKind::Counter, "{id:?} is not a counter");
        match id {
            MetricId::ResyncMarkerBytes => {
                self.resync_marker_bytes.fetch_add(v, Ordering::Relaxed);
            }
            MetricId::PoolSteals => {
                self.pool_steals.fetch_add(v, Ordering::Relaxed);
            }
            MetricId::ServeSessionsAccepted => {
                self.serve_sessions_accepted.fetch_add(v, Ordering::Relaxed);
            }
            MetricId::ServeSessionsRejected => {
                self.serve_sessions_rejected.fetch_add(v, Ordering::Relaxed);
            }
            MetricId::ServeSessionsShed => {
                self.serve_sessions_shed.fetch_add(v, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    pub(crate) fn counter_value(&self, id: MetricId) -> u64 {
        debug_assert_eq!(id.kind(), MetricKind::Counter, "{id:?} is not a counter");
        match id {
            MetricId::ResyncMarkerBytes => self.resync_marker_bytes.load(Ordering::Relaxed),
            MetricId::PoolSteals => self.pool_steals.load(Ordering::Relaxed),
            MetricId::ServeSessionsAccepted => self.serve_sessions_accepted.load(Ordering::Relaxed),
            MetricId::ServeSessionsRejected => self.serve_sessions_rejected.load(Ordering::Relaxed),
            MetricId::ServeSessionsShed => self.serve_sessions_shed.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    pub(crate) fn gauge_set(&self, id: MetricId, v: u64) {
        debug_assert_eq!(id.kind(), MetricKind::Gauge, "{id:?} is not a gauge");
        match id {
            MetricId::PoolWorkers => self.pool_workers.store(v, Ordering::Relaxed),
            MetricId::KernelTier => self.kernel_tier.store(v, Ordering::Relaxed),
            MetricId::ServeSessionsActive => self.serve_sessions_active.store(v, Ordering::Relaxed),
            _ => {}
        }
    }

    pub(crate) fn histogram_record(&self, id: MetricId, v: u64) {
        debug_assert_eq!(
            id.kind(),
            MetricKind::Histogram,
            "{id:?} is not a histogram"
        );
        match id {
            MetricId::MeSadPerSearch => self.me_sad_per_search.record(v),
            MetricId::SliceQueueWaitNs => self.slice_queue_wait_ns.record(v),
            MetricId::ServeFrameLatencyNs => self.serve_frame_latency_ns.record(v),
            _ => {}
        }
    }

    pub(crate) fn histogram_snapshot(&self, id: MetricId) -> HistogramSnapshot {
        debug_assert_eq!(
            id.kind(),
            MetricKind::Histogram,
            "{id:?} is not a histogram"
        );
        match id {
            MetricId::MeSadPerSearch => self.me_sad_per_search.snapshot(),
            MetricId::SliceQueueWaitNs => self.slice_queue_wait_ns.snapshot(),
            MetricId::ServeFrameLatencyNs => self.serve_frame_latency_ns.snapshot(),
            _ => HistogramSnapshot::empty(),
        }
    }

    /// One JSON object per line, deterministic order.
    pub(crate) fn to_jsonl(&self) -> String {
        let scalar = |id: MetricId, kind: &str, v: u64| {
            Json::obj(vec![
                ("metric", Json::str(id.name())),
                ("kind", Json::str(kind)),
                ("value", Json::Num(v as f64)),
            ])
        };
        let hist = |id: MetricId, h: &Histogram| {
            let mut fields = vec![
                ("metric", Json::str(id.name())),
                ("kind", Json::str("histogram")),
            ];
            fields.extend(h.to_json_fields());
            Json::obj(fields)
        };
        let lines = [
            hist(MetricId::MeSadPerSearch, &self.me_sad_per_search),
            scalar(
                MetricId::ResyncMarkerBytes,
                "counter",
                self.resync_marker_bytes.load(Ordering::Relaxed),
            ),
            hist(MetricId::SliceQueueWaitNs, &self.slice_queue_wait_ns),
            scalar(
                MetricId::PoolWorkers,
                "gauge",
                self.pool_workers.load(Ordering::Relaxed),
            ),
            scalar(
                MetricId::PoolSteals,
                "counter",
                self.pool_steals.load(Ordering::Relaxed),
            ),
            scalar(
                MetricId::KernelTier,
                "gauge",
                self.kernel_tier.load(Ordering::Relaxed),
            ),
            hist(MetricId::ServeFrameLatencyNs, &self.serve_frame_latency_ns),
            scalar(
                MetricId::ServeSessionsActive,
                "gauge",
                self.serve_sessions_active.load(Ordering::Relaxed),
            ),
            scalar(
                MetricId::ServeSessionsAccepted,
                "counter",
                self.serve_sessions_accepted.load(Ordering::Relaxed),
            ),
            scalar(
                MetricId::ServeSessionsRejected,
                "counter",
                self.serve_sessions_rejected.load(Ordering::Relaxed),
            ),
            scalar(
                MetricId::ServeSessionsShed,
                "counter",
                self.serve_sessions_shed.load(Ordering::Relaxed),
            ),
        ];
        let mut out = String::new();
        for line in lines {
            // pretty() is multi-line; JSONL needs one line per object.
            out.push_str(&compact(&line));
            out.push('\n');
        }
        out
    }
}

/// Serializes `v` on a single line (JSONL) by reusing the pretty
/// serializer and stripping its layout whitespace. Keys and string
/// values survive intact because the serializer escapes embedded
/// newlines as `\n`. Shared with the flight-recorder dump writer.
pub(crate) fn compact(v: &Json) -> String {
    let mut out = String::new();
    let pretty = v.pretty();
    let mut chars = pretty.chars().peekable();
    let mut in_str = false;
    let mut escaped = false;
    while let Some(c) = chars.next() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '\n' => {
                // Swallow the newline and the following indent.
                while chars.peek() == Some(&' ') {
                    chars.next();
                }
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count.load(Ordering::Relaxed), 9);
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 1); // 0
        assert_eq!(h.buckets[1].load(Ordering::Relaxed), 1); // 1
        assert_eq!(h.buckets[2].load(Ordering::Relaxed), 2); // 2,3
        assert_eq!(h.buckets[3].load(Ordering::Relaxed), 2); // 4,7
        assert_eq!(h.buckets[4].load(Ordering::Relaxed), 1); // 8
        assert_eq!(h.buckets[11].load(Ordering::Relaxed), 1); // 1024
        assert_eq!(h.buckets[HIST_BUCKETS - 1].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let r = Registry::new();
        r.counter_add(MetricId::ResyncMarkerBytes, 17);
        r.gauge_set(MetricId::PoolWorkers, 4);
        r.histogram_record(MetricId::MeSadPerSearch, 33);
        r.histogram_record(MetricId::MeSadPerSearch, 12);
        r.histogram_record(MetricId::SliceQueueWaitNs, 100_000);
        let jsonl = r.to_jsonl();
        let mut names = Vec::new();
        for line in jsonl.lines() {
            let doc = Json::parse(line).expect("each line is standalone JSON");
            names.push(doc.get("metric").unwrap().as_str().unwrap().to_string());
            if doc.get("kind").unwrap().as_str() == Some("histogram") {
                assert!(doc.get("count").unwrap().as_f64().is_some());
                assert!(doc.get("buckets").unwrap().as_arr().is_some());
            } else {
                assert!(doc.get("value").unwrap().as_f64().is_some());
            }
        }
        assert_eq!(
            names,
            vec![
                "me_sad_per_search",
                "resync_marker_bytes",
                "slice_queue_wait_ns",
                "pool_workers",
                "pool_steals",
                "kernel_tier",
                "serve_frame_latency_ns",
                "serve_sessions_active",
                "serve_sessions_accepted",
                "serve_sessions_rejected",
                "serve_sessions_shed"
            ]
        );
        // Spot-check values survive the round trip.
        let resync = Json::parse(jsonl.lines().nth(1).unwrap()).unwrap();
        assert_eq!(resync.get("value").unwrap().as_f64(), Some(17.0));
    }

    #[test]
    fn quantiles_pinned_on_known_distribution() {
        // 100 samples: 50× value 1, 40× value 100, 10× value 100_000.
        // Exact ranks: p50 = sample #50 (value 1), p90 = sample #90
        // (value 100), p99 = sample #99 (value 100_000).
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(1);
        }
        for _ in 0..40 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 50 + 40 * 100 + 10 * 100_000);
        // p50 lands at the top of bucket 1 ([1,1]) — exact.
        assert_eq!(s.p50(), 1);
        // p90 is the last sample in bucket 7 ([64,127]) — the
        // interpolated estimate must stay inside the bucket that holds
        // value 100.
        assert!((64..=127).contains(&s.p90()), "p90 = {}", s.p90());
        // p99 is rank 99, the 9th of 10 samples in bucket 17
        // ([65536,131071]), which holds value 100_000.
        assert!((65_536..=131_071).contains(&s.p99()), "p99 = {}", s.p99());
        // Interpolation is monotone in q.
        assert!(s.quantile(0.1) <= s.quantile(0.5));
        assert!(s.quantile(0.5) <= s.quantile(0.9));
        assert!(s.quantile(0.9) <= s.quantile(0.99));
        assert!(s.quantile(0.99) <= s.quantile(1.0));
        // Extremes hit the occupied bucket edges.
        assert_eq!(s.quantile(0.0), 1);
        assert!((65_536..=131_071).contains(&s.quantile(1.0)));
        assert!((s.mean() - 10040.5).abs() < 1e-9);
        // p99.9 of 100 samples is the last sample's bucket; max is the
        // exact largest value, not bucket-quantized.
        assert!(
            (65_536..=131_071).contains(&s.p999()),
            "p999 = {}",
            s.p999()
        );
        assert_eq!(s.max, 100_000);
    }

    #[test]
    fn quantile_empty_and_single() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
        let h = Histogram::new();
        h.record(42);
        let s = h.snapshot();
        // One sample in bucket 6 ([32,63]): every quantile maps into
        // that bucket.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!((32..=63).contains(&s.quantile(q)), "q={q}");
        }
    }

    /// A sparse top bucket must not report a quantile above the
    /// recorded maximum: one sample of 762 ms sits in the bucket
    /// `[2^29, 2^30)` ns, and p99 of 61 samples is that sample, whose
    /// interpolation lands on the bucket's top edge, over 1 s.
    #[test]
    fn quantiles_never_exceed_max() {
        let h = Histogram::new();
        for _ in 0..60 {
            h.record(1_000_000); // 1 ms
        }
        h.record(762_100_000); // one 762.1 ms outlier
        let s = h.snapshot();
        assert_eq!(s.p99(), 762_100_000);
        assert_eq!(s.p999(), 762_100_000);
        assert_eq!(s.quantile(1.0), s.max);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert!(s.quantile(q) <= s.max, "q={q}");
        }
        // Below the top bucket nothing changes.
        assert!((524_288..=1_048_575).contains(&s.p50()));
        // A windowed delta carries the lifetime max as its bound.
        let before = h.snapshot();
        h.record(3);
        let d = h.snapshot().delta_since(&before);
        assert!(d.p99() <= d.max);
        assert!((2..=3).contains(&d.p99()));
    }

    #[test]
    fn snapshot_delta_isolates_window() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(8);
        }
        let before = h.snapshot();
        for _ in 0..5 {
            h.record(1_000_000);
        }
        let win = h.snapshot().delta_since(&before);
        assert_eq!(win.count, 5);
        assert_eq!(win.sum, 5_000_000);
        assert_eq!(win.max, 1_000_000, "window max carries the lifetime max");
        let empty_win = h.snapshot().delta_since(&h.snapshot());
        assert_eq!(empty_win.max, 0, "empty window reports no max");
        // The window only holds the slow samples even though the
        // lifetime histogram is dominated by fast ones.
        assert!(win.p50() >= 524_288, "p50 = {}", win.p50());
        // Saturating subtraction on a torn/older snapshot.
        let torn = before.delta_since(&h.snapshot());
        assert_eq!(torn.count, 0);
    }

    #[test]
    fn compact_preserves_strings_with_escapes() {
        let v = Json::obj(vec![("k", Json::str("a\"b\n c"))]);
        let line = compact(&v);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), v);
    }
}
