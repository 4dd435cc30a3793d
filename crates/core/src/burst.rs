//! Burstiness analysis (Table 8 of the paper).
//!
//! The paper wraps `VopCode()` (encoder) and
//! `DecodeVopCombMotionShapeTexture()` (decoder) in performance-counter
//! reads to test whether the key coding phases are burstier than the
//! rest of the program. We accumulate the same windows in the coders and
//! compare their derived metrics against the whole-program numbers.

use crate::study::RunResult;
use m4ps_memsim::MemoryMetrics;

/// Window-vs-whole-program comparison for one run.
#[derive(Debug, Clone)]
pub struct BurstReport {
    /// Name of the instrumented function (paper naming).
    pub function: &'static str,
    /// Metrics of the instrumented window.
    pub window: MemoryMetrics,
    /// Metrics of the whole program.
    pub whole: MemoryMetrics,
    /// Fraction of the program's memory references inside the window.
    pub window_ref_share: f64,
}

impl BurstReport {
    /// Compares `run`'s VOP windows against the whole run on the
    /// machine it simulated. The paper reads `VopEncode` from an encode
    /// run and `VopDecode` from a decode run on the R12K/8MB Onyx2.
    pub fn new(function: &'static str, run: &RunResult) -> BurstReport {
        let window = MemoryMetrics::derive(&run.vop_window, &run.machine);
        let whole = run.metrics.clone();
        let share = if whole.counters.memory_refs() > 0 {
            run.vop_window.memory_refs() as f64 / whole.counters.memory_refs() as f64
        } else {
            0.0
        };
        BurstReport {
            function,
            window,
            whole,
            window_ref_share: share,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{Cells, StudyConfig, Workload};
    use m4ps_memsim::MachineSpec;
    use m4ps_vidgen::Resolution;

    /// The paper's Table 8 pair: `VopEncode` and `VopDecode` on the
    /// Onyx2.
    fn burstiness(w: &Workload) -> (BurstReport, BurstReport) {
        let (machine, cfg) = (MachineSpec::onyx2(), StudyConfig::fast());
        let mut cells = Cells::default();
        (
            BurstReport::new("VopEncode", &cells.encode(&machine, w, &cfg).unwrap()),
            BurstReport::new("VopDecode", &cells.decode(&machine, w, &cfg).unwrap()),
        )
    }

    #[test]
    fn windows_dominate_but_do_not_exhaust_the_program() {
        let w = Workload {
            resolution: Resolution::QCIF,
            frames: 3,
            objects: 0,
            layers: 1,
            seed: 1,
        };
        let (enc, dec) = burstiness(&w);
        for rep in [&enc, &dec] {
            assert!(
                rep.window_ref_share > 0.5 && rep.window_ref_share < 1.0,
                "{}: share {}",
                rep.function,
                rep.window_ref_share
            );
            // Window metrics must be finite and self-consistent.
            assert!(rep.window.l1_miss_rate >= 0.0);
            assert!(rep.window.counters.loads <= rep.whole.counters.loads);
        }
        assert_eq!(enc.function, "VopEncode");
        assert_eq!(dec.function, "VopDecode");
    }

    #[test]
    fn window_memory_behaviour_is_consistent_with_whole_program() {
        // The paper's finding: the instrumented functions are NOT
        // burstier than the rest — L1 behaviour stays cache-friendly.
        let w = Workload {
            resolution: Resolution::QCIF,
            frames: 4,
            objects: 0,
            layers: 1,
            seed: 2,
        };
        let (enc, dec) = burstiness(&w);
        for rep in [&enc, &dec] {
            assert!(
                rep.window.l1_miss_rate < 0.05,
                "{} window L1 miss rate {}",
                rep.function,
                rep.window.l1_miss_rate
            );
        }
    }
}
