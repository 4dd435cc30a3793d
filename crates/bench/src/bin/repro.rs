//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--frames N] [--search full|diamond|three-step]
//!       [--search-range N] [--seed N] <experiment>... | all | list
//! ```

use m4ps_bench::{run_experiment, Options, ALL_EXPERIMENTS};
use m4ps_core::study::Cells;

fn main() {
    let (opts, targets) = match Options::parse(std::env::args().skip(1)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if targets.is_empty() || targets.iter().any(|t| t == "list") {
        eprintln!("usage: repro [flags] <experiment>... | all");
        eprintln!("experiments:");
        for e in ALL_EXPERIMENTS {
            eprintln!("  {:18} {}", e.name, e.description);
        }
        std::process::exit(if targets.is_empty() { 2 } else { 0 });
    }
    let names: Vec<&str> = if targets.iter().any(|t| t == "all") {
        ALL_EXPERIMENTS.iter().map(|e| e.name).collect()
    } else {
        targets.iter().map(|s| s.as_str()).collect()
    };
    // One cell store for the whole invocation: a cell several
    // experiments print is simulated once.
    let mut cells = Cells::default();
    for name in names {
        match run_experiment(name, &opts, &mut cells) {
            Some(report) => {
                println!("{report}");
                println!("{}", "=".repeat(78));
            }
            None => {
                eprintln!("error: unknown experiment `{name}` (try `repro list`)");
                std::process::exit(2);
            }
        }
    }
}
