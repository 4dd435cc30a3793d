//! Benchmarks exercising every table/figure generator at bench scale
//! (reduced frame count and a fast search so wall time stays
//! reasonable). Run `cargo run --release --bin repro -- all` for the
//! paper-scale reproduction; these benches track the *cost* of each
//! experiment generator and keep them exercised by `cargo bench`.
//!
//! Runs on the in-tree [`m4ps_testkit::bench`] runner (`harness =
//! false`); results are written to `BENCH_experiments.json`.

use m4ps_bench::{run_experiment, Options, ALL_EXPERIMENTS};
use m4ps_codec::SearchStrategy;
use m4ps_core::study::Cells;
use m4ps_testkit::bench::{BenchOptions, BenchRunner};

fn bench_opts() -> Options {
    Options {
        frames: 1,
        search_range: 4,
        search: SearchStrategy::Diamond,
        seed: 7,
    }
}

fn main() {
    // Experiment generators run for hundreds of milliseconds each, so
    // cap the sample budget well below the kernel defaults.
    let mut opts = BenchOptions::parse(std::env::args().skip(1));
    opts.samples = opts.samples.min(10);
    opts.target_sample_ns = opts.target_sample_ns.min(2_000_000);
    let mut r = BenchRunner::with_options("experiments", opts);
    let run_opts = bench_opts();
    for e in ALL_EXPERIMENTS {
        // A fresh cell store per iteration, so each sample times the
        // experiment cold.
        r.bench(&format!("experiments/{}", e.name), || {
            let out =
                run_experiment(e.name, &run_opts, &mut Cells::default()).expect("known experiment");
            assert!(!out.is_empty());
            out.len()
        });
    }
    r.finish();
}
