//! No-harness benchmark runner.
//!
//! Replaces criterion for this repo's needs: each benchmark is timed
//! over `samples` samples of a fixed per-sample iteration budget
//! (calibrated once during warmup), and reported as the **median**
//! ns/iteration with the **median absolute deviation** (MAD) as the
//! robust spread estimate. Results are printed as a table and written
//! to a machine-readable `BENCH_<suite>.json` so the repo's perf
//! trajectory can be tracked across PRs.
//!
//! Wire-up in a `[[bench]] harness = false` target:
//!
//! ```no_run
//! use m4ps_testkit::bench::{black_box, BenchRunner};
//!
//! let mut r = BenchRunner::from_args("kernels");
//! r.bench("sum_1k", || (0..1000u64).map(black_box).sum::<u64>());
//! r.finish();
//! ```
//!
//! CLI flags (after `cargo bench --bench kernels --`):
//!
//! - `--smoke` — minimal budget (fast CI signal, same JSON schema),
//! - `--json <path>` — where to write the report (default
//!   `BENCH_<suite>.json` in the current directory),
//! - `--samples <n>` — sample count override,
//! - any other non-flag argument — substring filter on bench names
//!   (`--bench`, which cargo itself appends, is ignored).

pub use std::hint::black_box;

use crate::json::Json;
use std::time::Instant;

/// Runner configuration, normally parsed from the command line by
/// [`BenchRunner::from_args`].
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Minimal-budget mode for CI smoke runs.
    pub smoke: bool,
    /// Report path (`None` → `BENCH_<suite>.json`).
    pub json_path: Option<String>,
    /// Samples per benchmark.
    pub samples: usize,
    /// Target wall time per sample in nanoseconds (drives the
    /// per-sample iteration calibration).
    pub target_sample_ns: u64,
    /// Substring filter on benchmark names.
    pub filter: Option<String>,
}

impl BenchOptions {
    /// Full-budget defaults: 25 samples of ~5 ms each.
    #[must_use]
    pub fn full() -> Self {
        BenchOptions {
            smoke: false,
            json_path: None,
            samples: 25,
            target_sample_ns: 5_000_000,
            filter: None,
        }
    }

    /// Smoke-budget defaults: 7 samples of ~500 µs each.
    #[must_use]
    pub fn smoke() -> Self {
        BenchOptions {
            smoke: true,
            json_path: None,
            samples: 7,
            target_sample_ns: 500_000,
            filter: None,
        }
    }

    /// Parses `args` (without the program name).
    ///
    /// # Panics
    ///
    /// Panics on malformed flag values.
    #[must_use]
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let mut opts = if args.iter().any(|a| a == "--smoke") {
            BenchOptions::smoke()
        } else {
            BenchOptions::full()
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => {}
                // cargo passes --bench to harness=false bench targets.
                "--bench" => {}
                "--json" => {
                    opts.json_path = Some(it.next().expect("--json needs a path"));
                }
                "--samples" => {
                    opts.samples = it
                        .next()
                        .expect("--samples needs a value")
                        .parse()
                        .expect("--samples must be an integer");
                    assert!(opts.samples >= 1, "--samples must be >= 1");
                }
                other if !other.starts_with("--") => {
                    opts.filter = Some(other.to_string());
                }
                other => panic!("unknown bench flag {other}"),
            }
        }
        opts
    }
}

/// One benchmark's summary statistics.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/name` by convention).
    pub name: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Median absolute deviation of ns/iteration across samples.
    pub mad_ns: f64,
    /// Fastest sample's ns/iteration.
    pub min_ns: f64,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
    /// Bytes processed per iteration, if declared.
    pub bytes_per_iter: Option<u64>,
    /// Derived throughput in MB/s, if `bytes_per_iter` was declared.
    pub throughput_mb_s: Option<f64>,
    /// For the second entry of an interleaved pair: the median over
    /// sample pairs of this entry's ns/iteration divided by the first
    /// entry's, in the same pair.
    pub paired_ratio: Option<f64>,
}

/// Collects benchmarks, then prints a table and writes the JSON report.
#[derive(Debug)]
pub struct BenchRunner {
    suite: String,
    opts: BenchOptions,
    meta: Vec<(String, String)>,
    results: Vec<BenchResult>,
}

impl BenchRunner {
    /// A runner for `suite` configured from `std::env::args()`.
    #[must_use]
    pub fn from_args(suite: &str) -> Self {
        Self::with_options(suite, BenchOptions::parse(std::env::args().skip(1)))
    }

    /// A runner with explicit options (tests, embedding).
    #[must_use]
    pub fn with_options(suite: &str, opts: BenchOptions) -> Self {
        BenchRunner {
            suite: suite.to_string(),
            opts,
            meta: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Attaches a `key: value` pair to the report's `meta` object:
    /// environment facts (the resolved SIMD kernel tier, machine class)
    /// that decide whether two reports are comparable at all. Setting
    /// an existing key overwrites it.
    pub fn set_meta(&mut self, key: &str, value: &str) {
        self.meta.retain(|(k, _)| k != key);
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Times `f`, recording the result under `name`. The return value
    /// of `f` is passed through [`black_box`] so the computation is
    /// never optimized away.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        self.bench_inner(name, None, f);
    }

    /// Like [`BenchRunner::bench`] with a declared number of bytes
    /// processed per iteration, which adds MB/s throughput to the
    /// report.
    pub fn bench_bytes<R>(&mut self, name: &str, bytes_per_iter: u64, f: impl FnMut() -> R) {
        self.bench_inner(name, Some(bytes_per_iter), f);
    }

    /// Times `a` and `b` as one interleaved series, recording them under
    /// `names`: eight sample pairs per plain sample, each taking one
    /// sample of both at the same iteration count, alternating which
    /// goes first. Machine noise that drifts over seconds (a neighbour's
    /// load, frequency changes) then lands on both sides of a pair
    /// alike, so the median per-pair ratio (`b`'s
    /// [`BenchResult::paired_ratio`]) resolves a small overhead that two
    /// back-to-back benches cannot. Runs (recording both) when the
    /// filter matches either name.
    pub fn bench_interleaved<Ra, Rb>(
        &mut self,
        names: [&str; 2],
        bytes_per_iter: u64,
        mut a: impl FnMut() -> Ra,
        mut b: impl FnMut() -> Rb,
    ) {
        if !names.iter().any(|n| self.selected(n)) {
            return;
        }
        let iters = self.calibrate(&mut a).max(self.calibrate(&mut b));
        let pairs = self.pair_samples();
        let (mut sa, mut sb) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
        for i in 0..pairs {
            if i % 2 == 0 {
                sa.push(sample_ns(iters, &mut a));
                sb.push(sample_ns(iters, &mut b));
            } else {
                sb.push(sample_ns(iters, &mut b));
                sa.push(sample_ns(iters, &mut a));
            }
        }
        let mut ratios: Vec<f64> = sa.iter().zip(&sb).map(|(a, b)| b / a).collect();
        let ratio = median(&mut ratios);
        self.record(names[0], Some(bytes_per_iter), iters, sa, None);
        self.record(names[1], Some(bytes_per_iter), iters, sb, Some(ratio));
    }

    /// Sample pairs of an interleaved bench: eight per plain sample
    /// (56 in smoke mode, 200 at the full budget).
    fn pair_samples(&self) -> usize {
        8 * self.opts.samples
    }

    fn selected(&self, name: &str) -> bool {
        self.opts
            .filter
            .as_ref()
            .is_none_or(|filter| name.contains(filter.as_str()))
    }

    /// Warmup doubles as calibration: grow the iteration count until
    /// one batch costs at least a quarter of the sample target, then
    /// size the per-sample budget from the observed speed.
    fn calibrate<R>(&self, f: &mut impl FnMut() -> R) -> u64 {
        let mut iters: u64 = 1;
        let per_iter_ns = loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos() as u64;
            if elapsed >= self.opts.target_sample_ns / 4 || iters >= 1 << 30 {
                break (elapsed.max(1)) as f64 / iters as f64;
            }
            iters *= 2;
        };
        ((self.opts.target_sample_ns as f64 / per_iter_ns).ceil() as u64).max(1)
    }

    fn bench_inner<R>(
        &mut self,
        name: &str,
        bytes_per_iter: Option<u64>,
        mut f: impl FnMut() -> R,
    ) {
        if !self.selected(name) {
            return;
        }
        let iters_per_sample = self.calibrate(&mut f);
        let samples_ns: Vec<f64> = (0..self.opts.samples)
            .map(|_| sample_ns(iters_per_sample, &mut f))
            .collect();
        self.record(name, bytes_per_iter, iters_per_sample, samples_ns, None);
    }

    /// Summarises one benchmark's per-sample ns/iteration and prints
    /// its row.
    fn record(
        &mut self,
        name: &str,
        bytes_per_iter: Option<u64>,
        iters_per_sample: u64,
        samples_ns: Vec<f64>,
        paired_ratio: Option<f64>,
    ) {
        let med = median(&mut samples_ns.clone());
        let mut deviations: Vec<f64> = samples_ns.iter().map(|s| (s - med).abs()).collect();
        let mad = median(&mut deviations);
        let min = samples_ns.iter().copied().fold(f64::INFINITY, f64::min);
        let throughput_mb_s = bytes_per_iter.map(|b| b as f64 / 1.0e6 / (med * 1.0e-9));

        let result = BenchResult {
            name: name.to_string(),
            median_ns: med,
            mad_ns: mad,
            min_ns: min,
            iters_per_sample,
            samples: samples_ns.len(),
            bytes_per_iter,
            throughput_mb_s,
            paired_ratio,
        };
        print_row(&result);
        self.results.push(result);
    }

    /// The results collected so far.
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders the JSON report (also what [`BenchRunner::finish`]
    /// writes to disk).
    #[must_use]
    pub fn report_json(&self) -> String {
        Json::obj(vec![
            ("schema", Json::str("m4ps-bench-v1")),
            ("suite", Json::str(self.suite.clone())),
            (
                "mode",
                Json::str(if self.opts.smoke { "smoke" } else { "full" }),
            ),
            ("unit", Json::str("ns_per_iter")),
            (
                "meta",
                Json::obj(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.as_str(), Json::str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "results",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("name", Json::str(r.name.clone())),
                                ("median_ns", Json::Num(r.median_ns)),
                                ("mad_ns", Json::Num(r.mad_ns)),
                                ("min_ns", Json::Num(r.min_ns)),
                                ("iters_per_sample", Json::Num(r.iters_per_sample as f64)),
                                ("samples", Json::Num(r.samples as f64)),
                                (
                                    "bytes_per_iter",
                                    r.bytes_per_iter.map_or(Json::Null, |b| Json::Num(b as f64)),
                                ),
                                (
                                    "throughput_mb_s",
                                    r.throughput_mb_s.map_or(Json::Null, Json::Num),
                                ),
                                ("paired_ratio", r.paired_ratio.map_or(Json::Null, Json::Num)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .pretty()
    }

    /// Writes the JSON report and returns its path.
    ///
    /// # Panics
    ///
    /// Panics if the report cannot be written.
    pub fn finish(self) -> String {
        let path = self
            .opts
            .json_path
            .clone()
            .unwrap_or_else(|| format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, self.report_json())
            .unwrap_or_else(|e| panic!("cannot write bench report {path}: {e}"));
        println!(
            "{} benchmark(s) -> {path} ({} mode)",
            self.results.len(),
            if self.opts.smoke { "smoke" } else { "full" }
        );
        path
    }
}

/// One sample of `iters` calls of `f`, in ns per call.
fn sample_ns<R>(iters: u64, f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn print_row(r: &BenchResult) {
    let throughput = r
        .throughput_mb_s
        .map_or(String::new(), |t| format!("  {t:10.1} MB/s"));
    let paired = r
        .paired_ratio
        .map_or(String::new(), |p| format!("  {p:.4}x paired"));
    println!(
        "{:38} {:>12.1} ns/iter (±{:.1} MAD, {} iters x {} samples){}{}",
        r.name, r.median_ns, r.mad_ns, r.iters_per_sample, r.samples, throughput, paired
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_opts() -> BenchOptions {
        BenchOptions {
            smoke: true,
            json_path: None,
            samples: 3,
            target_sample_ns: 20_000,
            filter: None,
        }
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn runner_measures_and_reports() {
        let mut r = BenchRunner::with_options("selftest", quiet_opts());
        r.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert_eq!(r.results().len(), 1);
        let res = &r.results()[0];
        assert!(res.median_ns > 0.0);
        assert!(res.mad_ns >= 0.0);
        assert!(res.min_ns <= res.median_ns);
        assert!(res.iters_per_sample >= 1);
    }

    #[test]
    fn interleaved_pair_records_both_entries() {
        let mut r = BenchRunner::with_options("selftest", quiet_opts());
        let (mut calls_a, mut calls_b) = (0u64, 0u64);
        r.bench_interleaved(
            ["pair/a", "pair/b"],
            64,
            || {
                calls_a += 1;
                (0..100u64).map(black_box).sum::<u64>()
            },
            || {
                calls_b += 1;
                (0..200u64).map(black_box).sum::<u64>()
            },
        );
        let names: Vec<&str> = r.results().iter().map(|res| res.name.as_str()).collect();
        assert_eq!(names, ["pair/a", "pair/b"]);
        let (a, b) = (&r.results()[0], &r.results()[1]);
        assert_eq!(a.samples, r.pair_samples());
        assert_eq!(b.samples, r.pair_samples());
        assert_eq!(a.iters_per_sample, b.iters_per_sample);
        assert!(a.throughput_mb_s.is_some());
        assert_eq!(a.paired_ratio, None);
        assert!(b.paired_ratio.is_some_and(|x| x > 0.0));
        assert!(calls_a > 0 && calls_b > 0);
        let doc = Json::parse(&r.report_json()).unwrap();
        let rows = doc.get("results").and_then(Json::as_arr).unwrap();
        assert!(rows[1].get("paired_ratio").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn interleaved_pair_runs_when_either_name_is_selected() {
        for (filter, runs) in [("pair/b", 2), ("other", 0)] {
            let mut opts = quiet_opts();
            opts.filter = Some(filter.into());
            let mut r = BenchRunner::with_options("selftest", opts);
            r.bench_interleaved(["pair/a", "pair/b"], 1, || 1u32, || 2u32);
            assert_eq!(r.results().len(), runs, "filter {filter}");
        }
    }

    #[test]
    fn throughput_derives_from_bytes() {
        let mut r = BenchRunner::with_options("selftest", quiet_opts());
        let data = vec![1u8; 4096];
        r.bench_bytes("sum_4k", 4096, || {
            data.iter().map(|&b| b as u64).sum::<u64>()
        });
        let res = &r.results()[0];
        let t = res.throughput_mb_s.expect("throughput");
        let expected = 4096.0 / 1.0e6 / (res.median_ns * 1.0e-9);
        assert!((t - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn filter_skips_nonmatching_benches() {
        let mut opts = quiet_opts();
        opts.filter = Some("dct".into());
        let mut r = BenchRunner::with_options("selftest", opts);
        r.bench("sad/16x16", || 1u32);
        r.bench("dct/forward", || 2u32);
        assert_eq!(r.results().len(), 1);
        assert_eq!(r.results()[0].name, "dct/forward");
    }

    #[test]
    fn json_report_has_schema_and_rows() {
        let mut r = BenchRunner::with_options("selftest", quiet_opts());
        r.bench("one", || 1u32);
        let json = r.report_json();
        assert!(json.contains("\"schema\": \"m4ps-bench-v1\""));
        assert!(json.contains("\"suite\": \"selftest\""));
        assert!(json.contains("\"mode\": \"smoke\""));
        assert!(json.contains("\"median_ns\""));
        assert!(json.contains("\"one\""));
    }

    #[test]
    fn meta_pairs_round_trip_and_overwrite() {
        let mut r = BenchRunner::with_options("selftest", quiet_opts());
        r.set_meta("kernel_tier", "scalar");
        r.set_meta("kernel_tier", "avx2");
        r.set_meta("machine", "o2");
        let doc = Json::parse(&r.report_json()).unwrap();
        let meta = doc.get("meta").expect("meta object");
        assert_eq!(meta.get("kernel_tier").and_then(Json::as_str), Some("avx2"));
        assert_eq!(meta.get("machine").and_then(Json::as_str), Some("o2"));
    }

    #[test]
    fn args_parse_all_flags() {
        let opts = BenchOptions::parse(
            [
                "--bench",
                "--smoke",
                "--json",
                "out.json",
                "--samples",
                "9",
                "dct",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert!(opts.smoke);
        assert_eq!(opts.json_path.as_deref(), Some("out.json"));
        assert_eq!(opts.samples, 9);
        assert_eq!(opts.filter.as_deref(), Some("dct"));
    }
}
