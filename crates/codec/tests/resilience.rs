//! Error-resilience tests: resynchronization markers, concealment,
//! and a PRNG-driven robustness corpus (truncations and bit flips)
//! that pins the decoder's contract on damaged input — an error or a
//! degraded picture, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use m4ps_bitstream::BitReader;
use m4ps_codec::{
    get_ue, EncoderConfig, FrameView, Scheduling, VideoObjectCoder, VideoObjectDecoder,
    MAX_DIMENSION,
};
use m4ps_memsim::{AddressSpace, Counters, Hierarchy, MachineSpec, MemModel, NullModel};
use m4ps_testkit::Rng;
use m4ps_vidgen::{Resolution, Scene, SceneSpec, YuvFrame};

fn view(f: &YuvFrame) -> FrameView<'_> {
    FrameView {
        width: f.resolution.width,
        height: f.resolution.height,
        y: &f.y,
        u: &f.u,
        v: &f.v,
    }
}

fn encode_clip(
    config: EncoderConfig,
    frames: usize,
) -> (Vec<u8>, Vec<m4ps_codec::EncodedVop>, Scene) {
    let res = Resolution::QCIF;
    let scene = Scene::new(SceneSpec {
        resolution: res,
        objects: 1,
        seed: 77,
    });
    let mut space = AddressSpace::new();
    let mut mem = NullModel::new();
    let mut coder = VideoObjectCoder::new(&mut space, res.width, res.height, config).unwrap();
    coder.set_keep_recon(true);
    let mut stream = coder.header_bytes();
    let mut vops = Vec::new();
    for t in 0..frames {
        let f = scene.frame(t);
        for vop in coder.encode_frame(&mut mem, &view(&f), None).unwrap() {
            stream.extend_from_slice(&vop.bytes);
            vops.push(vop);
        }
    }
    for vop in coder.flush(&mut mem).unwrap() {
        stream.extend_from_slice(&vop.bytes);
        vops.push(vop);
    }
    (stream, vops, scene)
}

fn decode_clip(stream: &[u8]) -> Vec<m4ps_codec::DecodedVop> {
    let mut mem = NullModel::new();
    let mut space = AddressSpace::new();
    let mut r = BitReader::new(stream);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r).unwrap();
    dec.set_keep_output(true);
    let mut out = Vec::new();
    while let Ok(Some(v)) = dec.decode_next(&mut mem, &mut r) {
        out.push(v);
    }
    out
}

fn resync_config() -> EncoderConfig {
    let mut c = EncoderConfig::fast_test();
    c.resync_mb_interval = Some(23); // deliberately not a row multiple
    c
}

#[test]
fn clean_resync_stream_is_drift_free() {
    let (stream, encoded, _) = encode_clip(resync_config(), 5);
    let decoded = decode_clip(&stream);
    assert_eq!(decoded.len(), encoded.len());
    for (e, d) in encoded.iter().zip(&decoded) {
        assert_eq!(d.stats.concealed_mbs, 0);
        let er = e.recon.as_ref().unwrap();
        let dr = d.planes.as_ref().unwrap();
        assert_eq!(er.y, dr.y, "drift at display {}", e.display_index);
    }
}

#[test]
fn resync_markers_cost_bits_but_little() {
    let (plain, _, _) = encode_clip(EncoderConfig::fast_test(), 5);
    let (resync, _, _) = encode_clip(resync_config(), 5);
    assert!(resync.len() > plain.len(), "markers must cost something");
    assert!(
        (resync.len() as f64) < plain.len() as f64 * 1.35,
        "marker overhead too large: {} vs {}",
        resync.len(),
        plain.len()
    );
}

#[test]
fn corruption_with_resync_is_concealed_not_fatal() {
    let (mut stream, encoded, _) = encode_clip(resync_config(), 4);
    // Flip bytes inside the *second* VOP's payload (well past its header).
    let second_vop_start =
        stream.len() - encoded.last().unwrap().bytes.len() - encoded[encoded.len() - 2].bytes.len();
    let target = second_vop_start + 60;
    for i in 0..4 {
        stream[target + i] ^= 0xa5;
    }
    let decoded = decode_clip(&stream);
    // All VOPs still come out.
    assert_eq!(decoded.len(), encoded.len());
    let concealed: u64 = decoded.iter().map(|d| d.stats.concealed_mbs).sum();
    assert!(concealed > 0, "corruption went unnoticed");
    // Concealment is partial: far fewer than all MBs were lost.
    let total_mbs = (176 / 16) * (144 / 16) * decoded.len() as u64;
    assert!(
        concealed < total_mbs / 2,
        "concealed {concealed} of {total_mbs}"
    );
}

#[test]
fn corruption_without_resync_kills_the_vop() {
    let (clean_stream, encoded, _) = encode_clip(EncoderConfig::fast_test(), 4);
    let clean = decode_clip(&clean_stream);
    assert_eq!(clean.len(), encoded.len());
    let mut stream = clean_stream;
    let second_vop_start =
        stream.len() - encoded.last().unwrap().bytes.len() - encoded[encoded.len() - 2].bytes.len();
    let target = second_vop_start + 60;
    for i in 0..4 {
        stream[target + i] ^= 0xa5;
    }
    let mut mem = NullModel::new();
    let mut space = AddressSpace::new();
    let mut r = BitReader::new(&stream);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r).unwrap();
    dec.set_keep_output(true);
    let mut decoded = Vec::new();
    let mut failed = false;
    loop {
        match dec.decode_next(&mut mem, &mut r) {
            Ok(Some(v)) => decoded.push(v),
            Ok(None) => break,
            Err(_) => {
                failed = true;
                break;
            }
        }
    }
    // Without markers there is nothing to resynchronize on, so nothing
    // may be concealed...
    let concealed: u64 = decoded.iter().map(|d| d.stats.concealed_mbs).sum();
    assert_eq!(concealed, 0, "concealment without resync markers");
    // ...and the damage must not go unnoticed: either the decode dies
    // before the end of the stream, or the surviving VOPs decode to
    // different pixels than the clean run (garbage propagated by
    // prediction).
    let diverged = decoded
        .iter()
        .zip(&clean)
        .any(|(d, c)| d.planes.as_ref().unwrap().y != c.planes.as_ref().unwrap().y);
    assert!(
        failed || decoded.len() < encoded.len() || diverged,
        "corruption had no effect (ok={})",
        decoded.len()
    );
}

#[test]
fn later_segments_recover_quality_after_concealment() {
    // Corrupt early in a resync VOP: the final resync segment of that
    // VOP should still decode exactly (identical to the clean decode).
    let (clean_stream, _, _) = encode_clip(resync_config(), 3);
    let clean = decode_clip(&clean_stream);
    let mut corrupted_stream = clean_stream.clone();
    // Find the last VOP's start and damage shortly after its header.
    let pos = corrupted_stream.len() * 2 / 3;
    corrupted_stream[pos] ^= 0xff;
    let damaged = decode_clip(&corrupted_stream);
    assert_eq!(damaged.len(), clean.len());
    // At least one VOP was damaged; compare final rows (decoded last,
    // after the final resync) between clean and damaged runs of the same
    // display index: they should agree for a large share of pixels.
    let concealed: u64 = damaged.iter().map(|d| d.stats.concealed_mbs).sum();
    if concealed == 0 {
        // The flipped byte may have hit stuffing; nothing to assert.
        return;
    }
    let last_clean = clean.last().unwrap().planes.as_ref().unwrap();
    let last_damaged = damaged.last().unwrap().planes.as_ref().unwrap();
    let same = last_clean
        .y
        .iter()
        .zip(&last_damaged.y)
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        same * 2 > last_clean.y.len(),
        "recovery failed: only {same} of {} pixels match",
        last_clean.y.len()
    );
}

/// Decodes an arbitrary byte buffer to exhaustion, swallowing codec
/// errors. Returns the number of VOPs that survived; panics (which the
/// corpus tests catch and report with their seed) are the only failure.
fn decode_arbitrary(stream: &[u8]) -> usize {
    let mut mem = NullModel::new();
    let mut space = AddressSpace::new();
    let mut r = BitReader::new(stream);
    let Ok(mut dec) = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r) else {
        return 0;
    };
    let mut n = 0;
    while let Ok(Some(_)) = dec.decode_next(&mut mem, &mut r) {
        n += 1;
    }
    n
}

#[test]
fn truncated_streams_error_but_never_panic() {
    // Cutting a valid stream at ANY byte (including mid-header and
    // mid-VOP) must produce an error or a short decode — never a panic.
    for config in [EncoderConfig::fast_test(), resync_config()] {
        let (stream, encoded, _) = encode_clip(config, 4);
        let mut rng = Rng::new(0xc0ffee);
        let mut cuts: Vec<usize> = (0..48).map(|_| rng.gen_range(0..stream.len())).collect();
        // Always include the hand-picked nasty spots.
        cuts.extend([0, 1, stream.len() - 1]);
        for cut in cuts {
            let clipped = &stream[..cut];
            let got = catch_unwind(AssertUnwindSafe(|| decode_arbitrary(clipped)));
            match got {
                Ok(n) => assert!(
                    n <= encoded.len(),
                    "truncation at {cut} invented VOPs ({n} > {})",
                    encoded.len()
                ),
                Err(_) => panic!("decoder panicked on stream truncated at byte {cut}"),
            }
        }
    }
}

#[test]
fn bit_flipped_streams_error_but_never_panic() {
    // Random single- and multi-bit damage anywhere in the stream
    // (headers included). The decoder may reject the stream, conceal,
    // or emit garbage pixels — but must stay inside safe Rust and
    // return.
    for config in [EncoderConfig::fast_test(), resync_config()] {
        let (stream, _, _) = encode_clip(config, 4);
        let mut rng = Rng::new(0xbad_b175);
        for case in 0..60u32 {
            let mut damaged = stream.clone();
            let flips = rng.gen_range(1usize..=4);
            let mut spots = Vec::new();
            for _ in 0..flips {
                let byte = rng.gen_range(0..damaged.len());
                let bit = rng.gen_range(0u32..8);
                damaged[byte] ^= 1 << bit;
                spots.push((byte, bit));
            }
            let got = catch_unwind(AssertUnwindSafe(|| decode_arbitrary(&damaged)));
            assert!(
                got.is_ok(),
                "decoder panicked on corpus case {case} (flips at {spots:?})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The same corpus on multi-slice streams. Every multi-slice VOP decodes
// through the slice chains; a corrupt slice conceals locally (or
// surfaces as a clean per-slice error, caught at the task boundary),
// the pool survives for the next VOP and the next stream, and the
// result is identical at every thread count and schedule.
// ---------------------------------------------------------------------

fn sliced_resync_config() -> EncoderConfig {
    resync_config().with_slices(3)
}

/// The damaged-stream corpus for one clean stream: random truncations,
/// random 1–4 bit flips, and short garbage buffers.
fn corrupt_corpus(stream: &[u8]) -> Vec<Vec<u8>> {
    let mut corpus = Vec::new();
    let mut rng = Rng::new(0xc0ffee);
    for _ in 0..24 {
        let cut = rng.gen_range(0..stream.len());
        corpus.push(stream[..cut].to_vec());
    }
    for _ in 0..30 {
        let mut damaged = stream.to_vec();
        for _ in 0..rng.gen_range(1usize..=4) {
            let byte = rng.gen_range(0..damaged.len());
            damaged[byte] ^= 1 << rng.gen_range(0u32..8);
        }
        corpus.push(damaged);
    }
    let mut rng = Rng::new(0x9a5ba9e);
    for _ in 0..16 {
        let len = rng.gen_range(0usize..512);
        corpus.push((0..len).map(|_| rng.gen_range(0u32..256) as u8).collect());
    }
    corpus
}

/// Like [`decode_arbitrary`] but on a shared persistent pool.
fn decode_arbitrary_parallel(stream: &[u8], pool: &std::sync::Arc<m4ps_pool::WorkerPool>) -> usize {
    let mut mem = NullModel::new();
    let mut space = AddressSpace::new();
    let mut r = BitReader::new(stream);
    let Ok(mut dec) = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r) else {
        return 0;
    };
    dec.set_pool(pool.clone());
    let mut n = 0;
    while let Ok(Some(_)) = dec.decode_next(&mut mem, &mut r) {
        n += 1;
    }
    n
}

/// Everything observable about one decode of an arbitrary buffer: each
/// VOP's planes and stats, the error that ended it (if any), and the
/// merged counters.
type Outcome = (
    Vec<(m4ps_codec::ReconPlanes, m4ps_codec::VopStats)>,
    Option<String>,
    Counters,
);

fn decode_outcome(stream: &[u8], threads: usize, sched: Scheduling) -> Outcome {
    let mut mem = Hierarchy::new(MachineSpec::o2());
    let mut space = AddressSpace::new();
    let mut r = BitReader::new(stream);
    let mut dec = match VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r) {
        Ok(dec) => dec,
        Err(e) => return (Vec::new(), Some(e.to_string()), *mem.counters()),
    };
    dec.set_threads(threads);
    dec.set_scheduling(sched);
    dec.set_keep_output(true);
    let mut vops = Vec::new();
    let err = loop {
        match dec.decode_next(&mut mem, &mut r) {
            Ok(Some(v)) => vops.push((v.planes.unwrap(), v.stats)),
            Ok(None) => break None,
            Err(e) => break Some(e.to_string()),
        }
    };
    (vops, err, *mem.counters())
}

/// Byte offsets (within `vop`) of the slice headers of one encoded
/// multi-slice VOP: each is a byte-aligned resync marker whose
/// macroblock index opens a slice of `slice_mbs` macroblocks.
fn slice_header_offsets(vop: &[u8], slice_mbs: usize) -> Vec<usize> {
    (0..vop.len().saturating_sub(2))
        .filter(|&p| {
            vop[p] == 0x5a && vop[p + 1] == 0x3c && {
                let mut r = BitReader::new(&vop[p + 2..]);
                matches!(get_ue(&mut r), Ok(idx) if idx > 0 && (idx as usize).is_multiple_of(slice_mbs))
            }
        })
        .collect()
}

#[test]
fn corrupt_slice_conceals_locally() {
    // Damage the middle slice of one VOP: only that slice conceals,
    // and the VOP's other slices reconstruct exactly as in the clean
    // decode — at every thread count and schedule.
    let (clean, encoded, _) = encode_clip(sliced_resync_config(), 4);
    let (cols, rows_per_slice) = (176 / 16, 144 / 16 / 3);
    let slice_mbs = cols * rows_per_slice;
    let target = 1;
    let vop_start = clean.len()
        - encoded[target..]
            .iter()
            .map(|v| v.bytes.len())
            .sum::<usize>();
    let headers = slice_header_offsets(&encoded[target].bytes, slice_mbs);
    assert_eq!(headers.len(), 2, "three slices, two slice headers");
    let mut stream = clean.clone();
    for i in 0..4 {
        stream[vop_start + headers[0] + 8 + i] ^= 0xa5;
    }

    let reference = decode_outcome(&clean, 0, Scheduling::SliceParallel);
    for threads in [0, 1, 4] {
        for sched in [Scheduling::SliceParallel, Scheduling::Wavefront] {
            let (vops, err, _) = decode_outcome(&stream, threads, sched);
            assert_eq!(err, None);
            assert_eq!(vops.len(), encoded.len());
            let (damaged, stats) = &vops[target];
            assert!(stats.concealed_mbs > 0, "corruption went unnoticed");
            assert!(
                stats.concealed_mbs <= slice_mbs as u64,
                "concealment left the damaged slice: {} MBs",
                stats.concealed_mbs
            );
            let (clean_planes, clean_stats) = &reference.0[target];
            assert_eq!(
                stats.intra_mbs + stats.inter_mbs + stats.skipped_mbs + stats.concealed_mbs,
                clean_stats.intra_mbs + clean_stats.inter_mbs + clean_stats.skipped_mbs
            );
            let band = 16 * 176 * rows_per_slice;
            let cband = band / 4;
            for (rows, crows) in [
                (0..band, 0..cband),
                (2 * band..3 * band, 2 * cband..3 * cband),
            ] {
                assert_eq!(damaged.y[rows.clone()], clean_planes.y[rows]);
                assert_eq!(damaged.u[crows.clone()], clean_planes.u[crows.clone()]);
                assert_eq!(damaged.v[crows.clone()], clean_planes.v[crows]);
            }
            assert_ne!(
                damaged.y[band..2 * band],
                clean_planes.y[band..2 * band],
                "the damaged slice decoded clean"
            );
        }
    }
}

#[test]
fn unlocatable_slice_header_conceals_the_slice_or_fails_the_vop() {
    // Break the middle slice's resync word so the pre-scan cannot find
    // it. With resync markers the whole slice is concealed and its
    // neighbours decode clean; without them the VOP is an error.
    let (cols, rows_per_slice) = (176 / 16, 144 / 16 / 3);
    let slice_mbs = cols * rows_per_slice;
    for (config, resync) in [
        (sliced_resync_config(), true),
        (EncoderConfig::fast_test().with_slices(3), false),
    ] {
        let (clean, encoded, _) = encode_clip(config, 4);
        let target = 1;
        let vop_start = clean.len()
            - encoded[target..]
                .iter()
                .map(|v| v.bytes.len())
                .sum::<usize>();
        let headers = slice_header_offsets(&encoded[target].bytes, slice_mbs);
        let mut stream = clean.clone();
        stream[vop_start + headers[0]] ^= 0xff;
        let reference = decode_outcome(&clean, 0, Scheduling::SliceParallel);
        let damaged = decode_outcome(&stream, 0, Scheduling::SliceParallel);
        for threads in [1, 4] {
            for sched in [Scheduling::SliceParallel, Scheduling::Wavefront] {
                assert!(decode_outcome(&stream, threads, sched) == damaged);
            }
        }
        if resync {
            assert_eq!(damaged.1, None);
            let (planes, stats) = &damaged.0[target];
            assert_eq!(stats.concealed_mbs, slice_mbs as u64);
            let band = 16 * 176 * rows_per_slice;
            let clean_y = &reference.0[target].0.y;
            assert_eq!(planes.y[..band], clean_y[..band]);
            assert_eq!(planes.y[2 * band..], clean_y[2 * band..]);
        } else {
            assert_eq!(damaged.0.len(), target, "the damaged VOP must fail");
            assert!(damaged.1.is_some());
        }
    }
}

#[test]
fn corrupt_multi_slice_decode_is_identical_at_any_thread_count() {
    // Over the whole corpus — planes, stats (concealment included),
    // the terminating error, and the merged counters are a function of
    // the bytes alone, never of the worker count or the row grain.
    for config in [
        EncoderConfig::fast_test().with_slices(3),
        sliced_resync_config(),
    ] {
        let (stream, _, _) = encode_clip(config, 3);
        for (case, damaged) in corrupt_corpus(&stream).iter().enumerate() {
            let reference = decode_outcome(damaged, 0, Scheduling::SliceParallel);
            for threads in [0, 1, 4] {
                for sched in [Scheduling::SliceParallel, Scheduling::Wavefront] {
                    assert!(
                        decode_outcome(damaged, threads, sched) == reference,
                        "corpus case {case} differs at {threads} threads, {sched:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn corpus_never_panics_or_poisons_the_parallel_pool() {
    // Truncations, bit flips and garbage through ONE persistent pool.
    // Every case must return (the task-boundary catch_unwind turns any
    // slice panic into a per-slice error), and after the whole corpus
    // the same pool must still decode a clean stream drift-free.
    let pool = std::sync::Arc::new(m4ps_pool::WorkerPool::new(4));
    for config in [
        EncoderConfig::fast_test().with_slices(3),
        sliced_resync_config(),
    ] {
        let (stream, encoded, _) = encode_clip(config, 4);
        for (case, damaged) in corrupt_corpus(&stream).iter().enumerate() {
            let got = catch_unwind(AssertUnwindSafe(|| {
                decode_arbitrary_parallel(damaged, &pool)
            }));
            match got {
                Ok(n) => assert!(n <= encoded.len(), "corpus case {case} invented VOPs"),
                Err(_) => panic!("parallel decoder panicked on corpus case {case}"),
            }
        }
    }

    // The pool survived the corpus: a clean decode on it still matches
    // the encoder's reconstruction bit for bit.
    let (clean, encoded, _) = encode_clip(sliced_resync_config(), 3);
    let mut mem = NullModel::new();
    let mut space = AddressSpace::new();
    let mut r = BitReader::new(&clean);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r).unwrap();
    dec.set_pool(pool);
    dec.set_keep_output(true);
    let mut decoded = Vec::new();
    while let Some(v) = dec.decode_next(&mut mem, &mut r).unwrap() {
        decoded.push(v);
    }
    assert_eq!(decoded.len(), encoded.len());
    for (d, e) in decoded.iter().zip(&encoded) {
        assert_eq!(d.stats.concealed_mbs, 0);
        assert_eq!(d.planes.as_ref().unwrap().y, e.recon.as_ref().unwrap().y);
    }
}

#[test]
fn random_garbage_never_panics_the_decoder() {
    // Pure noise and noise prefixed with a valid VOL header: the
    // decoder must treat both as hostile input, not trusted state.
    let (stream, _, _) = encode_clip(EncoderConfig::fast_test(), 2);
    let header_len = stream.len().min(16);
    let mut rng = Rng::new(0x9a5ba9e);
    for case in 0..40u32 {
        let len = rng.gen_range(0usize..512);
        let mut buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        if case % 2 == 0 {
            // Valid header, garbage payload.
            let mut with_header = stream[..header_len].to_vec();
            with_header.append(&mut buf);
            buf = with_header;
        }
        let got = catch_unwind(AssertUnwindSafe(|| decode_arbitrary(&buf)));
        assert!(got.is_ok(), "decoder panicked on garbage case {case}");
    }
}

#[test]
fn oversized_vol_dimensions_are_rejected_before_allocation() {
    // A hostile VOL header may declare any even size; the decoder must
    // refuse anything above the cap instead of allocating frames for
    // it, and the encoder must refuse to write such a stream.
    for (width, height) in [
        (MAX_DIMENSION + 16, 144),
        (176, MAX_DIMENSION + 16),
        (1 << 30, 1 << 30),
    ] {
        let vol = m4ps_codec::VolHeader {
            vo_id: 0,
            vol_id: 0,
            width,
            height,
            binary_shape: false,
            enhancement: false,
        };
        let mut w = m4ps_bitstream::BitWriter::new();
        vol.write(&mut w);
        let bytes = w.into_bytes();
        let mut mem = NullModel::new();
        let mut space = AddressSpace::new();
        let mut r = BitReader::new(&bytes);
        let got = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r);
        assert!(got.is_err(), "{width}x{height} VOL accepted");
        assert!(VideoObjectDecoder::with_vol(&mut space, vol).is_err());
        assert_eq!(space.allocated_bytes(), 0, "allocated before rejecting");
        let coder = VideoObjectCoder::new(&mut space, width, height, EncoderConfig::fast_test());
        assert!(coder.is_err(), "encoder accepted {width}x{height}");
    }
}
