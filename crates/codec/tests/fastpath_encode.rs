//! End-to-end differential for the memsim charging fast path: full
//! encode and decode runs under the memoized [`Hierarchy`] must produce
//! the same bitstream, the same [`Counters`] (every field), the same
//! DRAM traffic, and the same region attribution as the un-memoized
//! [`NaiveHierarchy`] reference — at every slice and thread count.
//!
//! This is the pinned-scenario half of the differential suite; the
//! random-stream half lives in `crates/memsim/tests/fastpath_equiv.rs`.

use m4ps_codec::{
    EncoderConfig, FrameView, GopStructure, SearchStrategy, VideoObjectCoder, VideoObjectDecoder,
};
use m4ps_memsim::{
    AccessKind, AddressSpace, Counters, Hierarchy, MachineSpec, MemModel, NaiveHierarchy,
    ParallelModel,
};
use m4ps_obs::{PhaseProfile, Profiler};
use m4ps_vidgen::{Resolution, Scene, SceneSpec};

const FRAMES: usize = 4;

fn test_config(slices: usize) -> EncoderConfig {
    // B-frames on so the fast path is exercised on I, P and B slices.
    EncoderConfig {
        gop: GopStructure {
            intra_period: 3,
            b_frames: 1,
        },
        ..EncoderConfig::fast_test()
    }
    .with_slices(slices)
}

fn encode<M: ParallelModel>(mem: &mut M, slices: usize, threads: usize) -> Vec<u8> {
    encode_with(mem, test_config(slices), threads)
}

fn encode_with<M: ParallelModel>(mem: &mut M, config: EncoderConfig, threads: usize) -> Vec<u8> {
    encode_at(mem, config, threads, Resolution::QCIF)
}

/// Encodes `FRAMES` frames of a single-object scene at `resolution`.
fn encode_at<M: ParallelModel>(
    mem: &mut M,
    config: EncoderConfig,
    threads: usize,
    resolution: Resolution,
) -> Vec<u8> {
    let scene = Scene::new(SceneSpec {
        resolution,
        objects: 0,
        seed: 7,
    });
    let (width, height) = (resolution.width, resolution.height);
    let mut space = AddressSpace::new();
    let mut coder = VideoObjectCoder::new(&mut space, width, height, config).unwrap();
    coder.set_threads(threads);
    let mut stream = coder.header_bytes();
    for t in 0..FRAMES {
        let f = scene.frame(t);
        let view = FrameView {
            width,
            height,
            y: &f.y,
            u: &f.u,
            v: &f.v,
        };
        for vop in coder.encode_frame(mem, &view, None).unwrap() {
            stream.extend_from_slice(&vop.bytes);
        }
    }
    for vop in coder.flush(mem).unwrap() {
        stream.extend_from_slice(&vop.bytes);
    }
    stream
}

fn decode<M: ParallelModel>(mem: &mut M, stream: &[u8]) -> usize {
    let mut space = AddressSpace::new();
    let mut r = m4ps_bitstream::BitReader::new(stream);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, mem, &mut r).unwrap();
    let mut n = 0;
    while dec.decode_next(mem, &mut r).unwrap().is_some() {
        n += 1;
    }
    n
}

#[track_caller]
fn assert_models_equal(fast: &Hierarchy, naive: &NaiveHierarchy, what: &str) {
    assert_eq!(
        fast.counters(),
        naive.counters(),
        "{what}: Counters diverged"
    );
    assert_eq!(
        fast.dram().bytes_read(),
        naive.dram().bytes_read(),
        "{what}: DRAM reads diverged"
    );
    assert_eq!(
        fast.dram().bytes_written(),
        naive.dram().bytes_written(),
        "{what}: DRAM writes diverged"
    );
    assert_eq!(
        fast.region_misses(),
        naive.region_misses(),
        "{what}: region attribution diverged"
    );
}

/// Full encodes under both models across slice/thread schedules: the
/// bitstream must be byte-identical and every counter bit-identical.
#[test]
fn encode_is_bit_identical_under_fast_and_naive_models() {
    let mut reference_stream: Option<Vec<u8>> = None;
    for (slices, threads) in [(1, 1), (4, 1), (4, 4), (9, 3)] {
        let mut fast = Hierarchy::new(MachineSpec::o2());
        let mut naive = NaiveHierarchy::new(MachineSpec::o2());
        let fast_stream = encode(&mut fast, slices, threads);
        let naive_stream = encode(&mut naive, slices, threads);
        assert_eq!(
            fast_stream, naive_stream,
            "bitstream diverged at {slices} slices / {threads} threads"
        );
        assert_models_equal(
            &fast,
            &naive,
            &format!("encode {slices} slices / {threads} threads"),
        );
        assert!(fast.counters().loads > 0);
        // The model must also never influence WHAT is coded: all
        // schedules and both models emit one canonical stream per
        // slice count, and slices=4 runs share theirs.
        if slices == 4 {
            match &reference_stream {
                Some(r) => assert_eq!(&fast_stream, r),
                None => reference_stream = Some(fast_stream),
            }
        }
    }
}

/// Decode differential: replaying the same stream through both models
/// charges identical counters.
#[test]
fn decode_is_counter_identical_under_fast_and_naive_models() {
    let stream = encode(&mut m4ps_memsim::NullModel::new(), 4, 1);
    let mut fast = Hierarchy::new(MachineSpec::o2());
    let mut naive = NaiveHierarchy::new(MachineSpec::o2());
    let n_fast = decode(&mut fast, &stream);
    let n_naive = decode(&mut naive, &stream);
    assert_eq!(n_fast, n_naive);
    assert!(n_fast >= FRAMES);
    assert_models_equal(&fast, &naive, "decode");
    assert!(fast.counters().loads > 0);
}

/// The 8 MB-L2 Onyx2 machine takes different hit/miss paths than the
/// 1 MB O2; the equivalence must hold there too (this is the pair the
/// paper's DRAM-time comparison rests on).
#[test]
fn encode_is_counter_identical_on_onyx2() {
    let mut fast = Hierarchy::new(MachineSpec::onyx2());
    let mut naive = NaiveHierarchy::new(MachineSpec::onyx2());
    let fast_stream = encode(&mut fast, 4, 2);
    let naive_stream = encode(&mut naive, 4, 2);
    assert_eq!(fast_stream, naive_stream);
    assert_models_equal(&fast, &naive, "encode onyx2");
}

/// Motion search charges each search as load batches: every strategy,
/// half-pel refinement on and off, and advanced prediction's 8×8
/// refinement (`refine_block8`) must code the same stream and charge the
/// same counters under the fast and the naive model.
#[test]
fn every_search_shape_is_bit_identical_under_fast_and_naive_models() {
    for search in [
        SearchStrategy::FullSearch,
        SearchStrategy::ThreeStep,
        SearchStrategy::Diamond,
    ] {
        for half_pel in [false, true] {
            for four_mv in [false, true] {
                let config = EncoderConfig {
                    search,
                    search_range: 8,
                    half_pel,
                    four_mv,
                    ..test_config(1)
                };
                let what = format!("{search:?} half_pel={half_pel} four_mv={four_mv}");
                let mut fast = Hierarchy::new(MachineSpec::o2());
                let mut naive = NaiveHierarchy::new(MachineSpec::o2());
                let fast_stream = encode_with(&mut fast, config, 1);
                let naive_stream = encode_with(&mut naive, config, 1);
                assert_eq!(fast_stream, naive_stream, "{what}: bitstream diverged");
                assert_models_equal(&fast, &naive, &what);
                assert!(
                    fast.load_batch_stats().0 > 0,
                    "{what}: no search was charged as a batch"
                );
            }
        }
    }
}

/// The paper's configuration (full search ±8 with half-pel refinement,
/// IBBP, rate control) charges every motion search through the
/// first-touch reduction: no batch falls back to the per-span replay, on
/// the O2 and the Onyx2. A fallback charges the same counters, so every
/// identity suite would still pass; only its cost would show. Whether a
/// batch fits depends on how its rows fall into L1 sets, so on the row
/// stride: both QCIF and PAL (the paper's geometry) are encoded. Four
/// frames code an I-, a P- and two B-VOPs.
#[test]
fn paper_config_encode_never_falls_back() {
    let config = EncoderConfig::paper();
    assert_eq!(config.search, SearchStrategy::FullSearch);
    assert!(config.half_pel && config.gop.b_frames > 0);
    for resolution in [Resolution::QCIF, Resolution::PAL] {
        for machine in [MachineSpec::o2(), MachineSpec::onyx2()] {
            let what = format!(
                "{} {}x{}",
                machine.name, resolution.width, resolution.height
            );
            let mut mem = Hierarchy::new(machine);
            encode_at(&mut mem, config, 1, resolution);
            let (batches, fallbacks) = mem.load_batch_stats();
            assert!(batches > 0, "{what}: no batch charged");
            assert_eq!(
                fallbacks, 0,
                "{what}: {fallbacks} of {batches} batches fell back"
            );
        }
    }
}

/// A [`Hierarchy`] that does not forward `access_candidates`, so every
/// motion-search batch takes the trait default: one `access_range` per
/// SAD row span, in search order. The reference for batched charging.
struct RowByRow(Hierarchy);

impl MemModel for RowByRow {
    fn access_range(&mut self, addr: u64, len: u64, kind: AccessKind, arch_ops: u64) {
        self.0.access_range(addr, len, kind, arch_ops);
    }

    fn access_rect(
        &mut self,
        addr: u64,
        stride: u64,
        rows: u64,
        row_bytes: u64,
        kind: AccessKind,
        ops_per_row: u64,
    ) {
        self.0
            .access_rect(addr, stride, rows, row_bytes, kind, ops_per_row);
    }

    fn prefetch(&mut self, addr: u64) {
        self.0.prefetch(addr);
    }

    fn add_ops(&mut self, ops: u64) {
        self.0.add_ops(ops);
    }

    fn counters(&self) -> &Counters {
        self.0.counters()
    }
}

impl ParallelModel for RowByRow {
    fn fork(&self) -> Self {
        RowByRow(self.0.fork())
    }

    fn absorb(&mut self, child: Self) {
        self.0.absorb(child.0);
    }
}

/// Encodes with the profiler attached, returning the stream and each
/// phase's counters and span count (wall times left out).
fn profiled_encode<M: ParallelModel>(
    mem: &mut M,
    config: EncoderConfig,
) -> (Vec<u8>, Vec<(&'static str, Counters, u64)>) {
    let profiler = Profiler::new(false);
    let guard = profiler.attach();
    let stream = encode_with(mem, config, 2);
    drop(guard);
    let profile: PhaseProfile = profiler.profile();
    let phases = profile
        .iter()
        .map(|(p, s)| (p.name(), s.counters, s.entries))
        .collect();
    (stream, phases)
}

/// Batching moves no charge across a profiler span boundary: with full
/// search, half-pel refinement and advanced prediction, every phase of
/// the profile (`me.search`, `me.halfpel`, and the rest) is charged
/// exactly what row-by-row charging charges it, sliced or not.
#[test]
fn batched_search_charges_each_phase_what_rows_charge_it() {
    for slices in [1, 3] {
        let config = EncoderConfig {
            search: SearchStrategy::FullSearch,
            search_range: 8,
            half_pel: true,
            four_mv: true,
            ..test_config(slices)
        };
        let mut batched = Hierarchy::new(MachineSpec::o2());
        let mut rows = RowByRow(Hierarchy::new(MachineSpec::o2()));
        let (batched_stream, batched_profile) = profiled_encode(&mut batched, config);
        let (rows_stream, rows_profile) = profiled_encode(&mut rows, config);
        assert_eq!(batched_stream, rows_stream, "slices={slices}");
        assert_eq!(batched.counters(), rows.counters(), "slices={slices}");
        assert_eq!(batched_profile, rows_profile, "slices={slices}");
        let halfpel = batched_profile
            .iter()
            .find(|(name, _, _)| *name == "me.halfpel")
            .map(|(_, c, _)| c.loads);
        assert!(
            halfpel > Some(0),
            "slices={slices}: no half-pel loads attributed"
        );
    }
}
