//! Simulated-layout drift guard.
//!
//! Every simulated address comes from one `AddressSpace` per study, so
//! a buffer added to (or dropped from) one coder shifts the addresses of
//! everything allocated after it: resident memory and cache behaviour
//! move while no bitstream does. This suite pins, for small 3-VO
//! paper-config workloads on each study machine, the resident bytes and
//! an FNV-1a digest of every counter and region-miss figure of
//! `encode_study` and `decode_study`, so such a shift names itself. Both
//! layer counts are pinned because they allocate differently: one-layer
//! coders run the IBBP GOP and own B-VOP buffers, while two-layer
//! sessions code every VOP as an anchor. When a change moves the layout
//! on purpose, re-pin from the failure message and say why in the change
//! log.

use m4ps_core::{decode_study, encode_study, prepare_streams, RunResult, StudyConfig, Workload};
use m4ps_memsim::{Counters, MachineSpec};
use m4ps_vidgen::Resolution;

/// FNV-1a over `words`' little-endian bytes, continued from `h`.
fn fnv1a(h: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Every field of `c`, by exhaustive destructuring, so a new counter
/// cannot be left out of the digest silently.
fn counter_words(c: &Counters) -> [u64; 11] {
    let Counters {
        loads,
        stores,
        prefetches,
        prefetch_l1_hits,
        l1_misses,
        l1_writebacks,
        l2_misses,
        l2_writebacks,
        tlb_misses,
        compute_ops,
        bytes_accessed,
    } = *c;
    [
        loads,
        stores,
        prefetches,
        prefetch_l1_hits,
        l1_misses,
        l1_writebacks,
        l2_misses,
        l2_writebacks,
        tlb_misses,
        compute_ops,
        bytes_accessed,
    ]
}

/// `(resident_bytes, digest)` of one run: its total counters, its
/// per-VOP window and every region's tag and L1/L2 misses.
fn layout_of(run: &RunResult) -> (u64, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = fnv1a(h, &counter_words(&run.metrics.counters));
    h = fnv1a(h, &counter_words(&run.vop_window));
    for r in &run.region_misses {
        let tag: Vec<u64> = r.tag.bytes().map(u64::from).collect();
        h = fnv1a(h, &tag);
        h = fnv1a(h, &[r.l1_misses, r.l2_misses]);
    }
    (run.resident_bytes, h)
}

/// `(encode, decode)` layouts of a 3-frame PAL 3-VO workload with
/// `layers` VOLs per object, per study machine (O2, Onyx VTX, Onyx2).
fn study_layouts(layers: usize) -> Vec<((u64, u64), (u64, u64))> {
    let workload = Workload::multi_object(Resolution::PAL, 3, layers);
    let config = StudyConfig::paper();
    let streams = prepare_streams(&workload, &config).unwrap();
    MachineSpec::study_machines()
        .iter()
        .map(|machine| {
            let enc = encode_study(machine, &workload, &config).unwrap();
            let dec = decode_study(machine, &workload, &streams).unwrap();
            (layout_of(&enc), layout_of(&dec))
        })
        .collect()
}

fn assert_layouts(layers: usize, expected: [((u64, u64), (u64, u64)); 3]) {
    let got = study_layouts(layers);
    assert_eq!(
        got, expected,
        "{layers}-layer simulated layout moved; (encode, decode) \
         (resident_bytes, digest) per study machine: {got:#x?}"
    );
}

#[test]
fn one_layer_study_layout_matches_pinned_digests() {
    assert_layouts(
        1,
        [
            (
                (0x401_9700, 0x3e39_1e6b_1c4a_a459),
                (0x382_4b00, 0x086d_7521_c1e1_084a),
            ),
            (
                (0x401_9700, 0x03cc_98dd_4e4d_7b18),
                (0x382_4b00, 0x3a60_3aa7_9c09_a85e),
            ),
            (
                (0x401_9700, 0x9aac_ae2a_910d_9d20),
                (0x382_4b00, 0x9a55_1def_de92_a28b),
            ),
        ],
    );
}

#[test]
fn two_layer_study_layout_matches_pinned_digests() {
    assert_layouts(
        2,
        [
            (
                (0x72d_ce00, 0x0a9f_83b5_a094_871a),
                (0x6f8_c800, 0x554e_31ec_1d16_350a),
            ),
            (
                (0x72d_ce00, 0x9fd6_f62e_7204_64ae),
                (0x6f8_c800, 0x1554_153c_edf5_2d97),
            ),
            (
                (0x72d_ce00, 0xaac0_b79c_5e9a_041e),
                (0x6f8_c800, 0x0fb4_e84d_cc47_39ff),
            ),
        ],
    );
}
