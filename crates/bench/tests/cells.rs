//! Sharing one study cell store across experiments changes no output:
//! `repro all` reads every cell from one [`Cells`], a single-experiment
//! `repro <name>` from its own, and both print what the direct
//! `encode_study` / `decode_study` calls printed (`REPRO_smoke.txt`
//! is the output of `repro --frames 1 --search diamond --search-range 4
//! all` from before the store existed).

use m4ps_bench::{run_experiment, Options, ALL_EXPERIMENTS};
use m4ps_codec::SearchStrategy;
use m4ps_core::study::Cells;

fn options(frames: usize) -> Options {
    Options {
        frames,
        search: SearchStrategy::Diamond,
        search_range: 4,
        ..Options::default()
    }
}

/// What `repro all` prints, with one store for every experiment
/// (`shared`) or a fresh store per experiment.
fn repro_all(opts: &Options, shared: bool) -> String {
    let mut cells = Cells::default();
    let mut out = String::new();
    for e in ALL_EXPERIMENTS {
        if !shared {
            cells = Cells::default();
        }
        let report = run_experiment(e.name, opts, &mut cells).expect("known experiment");
        out.push_str(&format!("{report}\n{}\n", "=".repeat(78)));
    }
    out
}

#[test]
fn shared_cells_print_what_a_store_per_experiment_prints() {
    // Two frames, so the P-VOP's motion search makes every encoder
    // ablation's columns differ.
    let opts = options(2);
    assert!(
        repro_all(&opts, true) == repro_all(&opts, false),
        "one shared store printed differently from a store per experiment"
    );
}

#[test]
fn repro_smoke_output_is_unchanged() {
    assert!(
        repro_all(&options(1), true) == include_str!("../../../REPRO_smoke.txt"),
        "repro output moved from REPRO_smoke.txt"
    );
}
