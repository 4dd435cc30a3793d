//! Parallel encoding invariants: the thread count AND the scheduling
//! mode (coarse slice jobs vs wavefront macroblock-row chains) are
//! pure scheduling knobs. For a fixed slice count the bitstream must
//! be byte-identical and the merged memory-model counters identical no
//! matter how many workers ran the slices or how the rows were cut
//! into tasks — and sliced streams must still decode drift-free.

use m4ps_codec::{
    EncoderConfig, FrameView, GopStructure, Scheduling, VideoObjectCoder, VideoObjectDecoder,
};
use m4ps_memsim::{AddressSpace, Counters, Hierarchy, MachineSpec, MemModel, NullModel};
use m4ps_testkit::prop::{self, Config};
use m4ps_vidgen::{Resolution, Scene, SceneSpec};

const FRAMES: usize = 5;

fn test_config(slices: usize, b_frames: usize) -> EncoderConfig {
    // B-frames on so the parallel path covers I, P and B slices.
    EncoderConfig {
        gop: GopStructure {
            intra_period: 4,
            b_frames,
        },
        ..EncoderConfig::fast_test()
    }
    .with_slices(slices)
}

/// Encodes the reference scene and returns the full elementary stream
/// plus (optionally) every reconstruction produced along the way.
fn encode_stream<M: m4ps_memsim::ParallelModel>(
    mem: &mut M,
    slices: usize,
    threads: usize,
    keep_recon: bool,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    encode_scene(
        mem,
        7,
        slices,
        1,
        threads,
        Scheduling::Wavefront,
        keep_recon,
    )
}

/// Like [`encode_stream`] but over an arbitrary scene seed, B-queue
/// depth and scheduling mode.
#[allow(clippy::too_many_arguments)]
fn encode_scene<M: m4ps_memsim::ParallelModel>(
    mem: &mut M,
    scene_seed: u64,
    slices: usize,
    b_frames: usize,
    threads: usize,
    sched: Scheduling,
    keep_recon: bool,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    let scene = Scene::new(SceneSpec {
        resolution: Resolution::QCIF,
        objects: 0,
        seed: scene_seed,
    });
    let mut space = AddressSpace::new();
    let mut coder =
        VideoObjectCoder::new(&mut space, 176, 144, test_config(slices, b_frames)).unwrap();
    coder.set_threads(threads);
    coder.set_scheduling(sched);
    coder.set_keep_recon(keep_recon);
    let mut stream = coder.header_bytes();
    let mut recons = Vec::new();
    let mut push = |vops: Vec<m4ps_codec::EncodedVop>, stream: &mut Vec<u8>| {
        for vop in vops {
            stream.extend_from_slice(&vop.bytes);
            if let Some(r) = vop.recon {
                recons.push(r.y);
            }
        }
    };
    for t in 0..FRAMES {
        let f = scene.frame(t);
        let view = FrameView {
            width: 176,
            height: 144,
            y: &f.y,
            u: &f.u,
            v: &f.v,
        };
        let vops = coder.encode_frame(mem, &view, None).unwrap();
        push(vops, &mut stream);
    }
    let vops = coder.flush(mem).unwrap();
    push(vops, &mut stream);
    (stream, recons)
}

#[test]
fn bitstream_is_identical_for_any_thread_count() {
    let mut mem = NullModel::new();
    let (reference, _) = encode_stream(&mut mem, 4, 1, false);
    for threads in [2, 4, 7] {
        let (stream, _) = encode_stream(&mut mem, 4, threads, false);
        assert_eq!(
            stream, reference,
            "{threads}-thread stream differs from the single-threaded one"
        );
    }
}

#[test]
fn bitstream_is_identical_across_scheduling_modes() {
    // Wavefront cuts each slice into one task per macroblock row;
    // slice-parallel runs it as one coarse job. Same bytes either way,
    // at any worker count.
    let mut mem = NullModel::new();
    let (reference, _) = encode_scene(&mut mem, 7, 4, 1, 1, Scheduling::SliceParallel, false);
    for threads in [1, 3, 4] {
        for sched in [Scheduling::SliceParallel, Scheduling::Wavefront] {
            let (stream, _) = encode_scene(&mut mem, 7, 4, 1, threads, sched, false);
            assert_eq!(
                stream, reference,
                "{sched:?} at {threads} threads differs from sequential slice-parallel"
            );
        }
    }
}

#[test]
fn merged_counters_are_identical_for_any_thread_count() {
    let run = |threads: usize| -> Counters {
        let mut mem = Hierarchy::new(MachineSpec::o2());
        encode_stream(&mut mem, 4, threads, false);
        *mem.counters()
    };
    let reference = run(1);
    assert!(reference.loads > 0);
    for threads in [2, 4] {
        assert_eq!(
            run(threads),
            reference,
            "{threads}-thread counters differ from the single-threaded ones"
        );
    }
}

#[test]
fn sliced_stream_decodes_drift_free() {
    let mut mem = NullModel::new();
    let (stream, enc_recons) = encode_stream(&mut mem, 4, 4, true);
    assert!(!enc_recons.is_empty());

    let mut space = AddressSpace::new();
    let mut r = m4ps_bitstream::BitReader::new(&stream);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r).unwrap();
    dec.set_keep_output(true);
    let mut decoded = Vec::new();
    while let Some(vop) = dec.decode_next(&mut mem, &mut r).unwrap() {
        decoded.push(vop.planes.unwrap().y);
    }
    assert_eq!(decoded.len(), enc_recons.len());
    for (i, (d, e)) in decoded.iter().zip(&enc_recons).enumerate() {
        assert_eq!(d, e, "decoder drift on VOP {i}");
    }
}

#[test]
fn slice_count_is_a_bitstream_parameter() {
    // Unlike the thread count, the slice count changes what is coded.
    let mut mem = NullModel::new();
    let (sliced, _) = encode_stream(&mut mem, 4, 1, false);
    let (unsliced, _) = encode_stream(&mut mem, 1, 1, false);
    assert_ne!(sliced, unsliced);
}

#[test]
fn random_scenes_encode_identically_for_any_schedule() {
    // Property: for ANY scene, slice count, B-queue depth, thread
    // count and scheduling mode, the parallel encode produces exactly
    // the bitstream and merged counters of the sequential (threads =
    // 1, coarse slice jobs) encode at the SAME slice count and GOP.
    // Randomizing all of them covers uneven slice partitions,
    // more-threads-than-slices schedules, deeper fixed-QP B queues and
    // the wavefront row chains the pinned tests above don't reach.
    prop::check(
        "parallel_encode_determinism",
        &Config::with_cases(5),
        |rng| {
            (
                rng.gen_range(0u64..1 << 32),
                rng.gen_range(1..=10usize),
                rng.gen_range(0..=2usize),
                rng.gen_range(2..=8usize),
            )
        },
        |&(scene_seed, slices, b_frames, threads)| {
            let run = |threads: usize, sched: Scheduling| {
                let mut mem = Hierarchy::new(MachineSpec::o2());
                let (stream, _) = encode_scene(
                    &mut mem, scene_seed, slices, b_frames, threads, sched, false,
                );
                (stream, *mem.counters())
            };
            let (seq_stream, seq_counters) = run(1, Scheduling::SliceParallel);
            for sched in [Scheduling::SliceParallel, Scheduling::Wavefront] {
                let (par_stream, par_counters) = run(threads, sched);
                if par_stream != seq_stream {
                    return Err(format!(
                        "bitstream differs: {slices} slices, {b_frames} B, \
                         {threads} threads, {sched:?}"
                    ));
                }
                if par_counters != seq_counters {
                    return Err(format!(
                        "merged counters differ: {slices} slices, {b_frames} B, \
                         {threads} threads, {sched:?}"
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn slices_beyond_rows_are_clamped_and_still_roundtrip() {
    // QCIF has 9 macroblock rows; asking for 64 slices must clamp to 9
    // and still produce a decodable stream.
    let mut mem = NullModel::new();
    let (stream, enc_recons) = encode_stream(&mut mem, 64, 3, true);
    let mut space = AddressSpace::new();
    let mut r = m4ps_bitstream::BitReader::new(&stream);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r).unwrap();
    dec.set_keep_output(true);
    let mut n = 0;
    while let Some(vop) = dec.decode_next(&mut mem, &mut r).unwrap() {
        assert_eq!(vop.planes.unwrap().y, enc_recons[n]);
        n += 1;
    }
    assert_eq!(n, enc_recons.len());
}

/// FNV-1a, continued from `h` (start from the offset basis).
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a digests of the elementary stream and of every reconstructed
/// Y, U and V plane (in coding order) for a fixed-QP IBBP encode of
/// 9 frames of scene 9 on two threads under the O2 hierarchy.
fn fixed_qp_b_digests(res: Resolution, slices: usize, b_frames: usize) -> [u64; 4] {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let scene = Scene::new(SceneSpec {
        resolution: res,
        objects: 0,
        seed: 9,
    });
    let config = EncoderConfig {
        gop: GopStructure {
            intra_period: 8,
            b_frames,
        },
        ..EncoderConfig::fast_test()
    }
    .with_slices(slices);
    let (w, h) = (res.width, res.height);
    let mut mem = Hierarchy::new(MachineSpec::o2());
    let mut space = AddressSpace::new();
    let mut coder = VideoObjectCoder::new(&mut space, w, h, config).unwrap();
    coder.set_threads(2);
    coder.set_keep_recon(true);
    let mut d = [BASIS; 4];
    d[0] = fnv1a(d[0], &coder.header_bytes());
    let mut absorb = |vops: Vec<m4ps_codec::EncodedVop>| {
        for vop in vops {
            d[0] = fnv1a(d[0], &vop.bytes);
            let r = vop.recon.expect("recon kept");
            d[1] = fnv1a(d[1], &r.y);
            d[2] = fnv1a(d[2], &r.u);
            d[3] = fnv1a(d[3], &r.v);
        }
    };
    for t in 0..9 {
        let f = scene.frame(t);
        let view = FrameView {
            width: w,
            height: h,
            y: &f.y,
            u: &f.u,
            v: &f.v,
        };
        absorb(coder.encode_frame(&mut mem, &view, None).unwrap());
    }
    absorb(coder.flush(&mut mem).unwrap());
    d
}

#[test]
fn fixed_qp_b_vop_streams_match_pinned_digests() {
    for (res, slices, b_frames, expect) in [
        (
            Resolution::QCIF,
            1,
            2,
            [
                0x2788_5769_a25f_5668_u64,
                0xc41b_484f_0851_0708,
                0xb561_8d62_8578_09d5,
                0x757a_c440_7e82_f3ae,
            ],
        ),
        (
            Resolution::QCIF,
            3,
            2,
            [
                0x72a2_09c1_13d6_9659,
                0xc41b_484f_0851_0708,
                0xb561_8d62_8578_09d5,
                0x757a_c440_7e82_f3ae,
            ],
        ),
        (
            Resolution::PAL,
            4,
            3,
            [
                0x3d85_e338_18a7_034d,
                0x0ff8_cc77_2191_fc15,
                0xa4e3_4a9e_ca0a_3e85,
                0xe28b_4d6c_ffca_62de,
            ],
        ),
    ] {
        let got = fixed_qp_b_digests(res, slices, b_frames);
        assert_eq!(
            got, expect,
            "{}x{} slices={slices} b={b_frames}: {got:#018x?}",
            res.width, res.height
        );
    }
}
