//! Parallel decoding invariants: the decoder's thread count AND
//! scheduling mode are pure scheduling knobs, exactly as on the encode
//! side. For any multi-slice stream, the decoder must reproduce the
//! encoder's own reconstruction bit for bit, with identical merged
//! memory-model counters no matter how many workers ran the slices
//! (threads = 0 included: one worker, inline on the caller) or how the
//! rows were cut into tasks.

use m4ps_codec::{
    EncoderConfig, FrameView, GopStructure, Scheduling, VideoObjectCoder, VideoObjectDecoder,
};
use m4ps_memsim::{
    AddressSpace, Counters, Hierarchy, MachineSpec, MemModel, NullModel, ParallelModel,
};
use m4ps_testkit::prop::{self, Config};
use m4ps_vidgen::{Resolution, Scene, SceneSpec};

const FRAMES: usize = 5;

fn test_config(slices: usize, b_frames: usize) -> EncoderConfig {
    EncoderConfig {
        gop: GopStructure {
            intra_period: 4,
            b_frames,
        },
        ..EncoderConfig::fast_test()
    }
    .with_slices(slices)
}

type Planes = Vec<(Vec<u8>, Vec<u8>, Vec<u8>)>;

/// Encodes a QCIF scene and returns the elementary stream plus the
/// encoder's reconstruction of every VOP, in coding order — the
/// reference every decode must reproduce.
fn encode_stream<M: ParallelModel>(
    mem: &mut M,
    scene_seed: u64,
    slices: usize,
    b_frames: usize,
) -> (Vec<u8>, Planes) {
    let scene = Scene::new(SceneSpec {
        resolution: Resolution::QCIF,
        objects: 0,
        seed: scene_seed,
    });
    let mut space = AddressSpace::new();
    let mut coder =
        VideoObjectCoder::new(&mut space, 176, 144, test_config(slices, b_frames)).unwrap();
    coder.set_keep_recon(true);
    let mut stream = coder.header_bytes();
    let mut recon = Vec::new();
    let mut keep = |vop: m4ps_codec::EncodedVop, stream: &mut Vec<u8>| {
        stream.extend_from_slice(&vop.bytes);
        let p = vop.recon.unwrap();
        recon.push((p.y, p.u, p.v));
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
        for vop in coder.encode_frame(mem, &view, None).unwrap() {
            keep(vop, &mut stream);
        }
    }
    for vop in coder.flush(mem).unwrap() {
        keep(vop, &mut stream);
    }
    (stream, recon)
}

/// Reconstruction planes of every VOP for one full decode of `stream`
/// at the given schedule.
fn decode_planes<M: ParallelModel>(
    mem: &mut M,
    stream: &[u8],
    threads: usize,
    sched: Scheduling,
) -> Planes {
    let mut space = AddressSpace::new();
    let mut r = m4ps_bitstream::BitReader::new(stream);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, mem, &mut r).unwrap();
    dec.set_threads(threads);
    dec.set_scheduling(sched);
    dec.set_keep_output(true);
    let mut out = Vec::new();
    while let Some(vop) = dec.decode_next(mem, &mut r).unwrap() {
        let p = vop.planes.unwrap();
        out.push((p.y, p.u, p.v));
    }
    out
}

/// Every thread count the identity tests sweep; 0 runs the slices on
/// a one-worker pool, inline on the caller.
const THREADS: [usize; 4] = [0, 1, 2, 4];
const SCHEDS: [Scheduling; 2] = [Scheduling::SliceParallel, Scheduling::Wavefront];

#[test]
fn decode_matches_the_encoder_reconstruction() {
    let mut mem = NullModel::new();
    let (stream, recon) = encode_stream(&mut mem, 7, 4, 1);
    assert_eq!(recon.len(), FRAMES);
    for threads in [0, 1, 2, 4, 7] {
        let planes = decode_planes(&mut mem, &stream, threads, Scheduling::SliceParallel);
        assert_eq!(
            planes, recon,
            "{threads}-thread reconstruction differs from the encoder's"
        );
    }
}

#[test]
fn decode_matches_across_scheduling_modes() {
    // Wavefront cuts each decode slice into one task per macroblock
    // row; slice-parallel runs it as one coarse job. Same planes
    // either way, at any worker count.
    let mut mem = NullModel::new();
    let (stream, recon) = encode_stream(&mut mem, 11, 3, 2);
    for threads in [0, 1, 3, 4] {
        for sched in SCHEDS {
            let planes = decode_planes(&mut mem, &stream, threads, sched);
            assert_eq!(
                planes, recon,
                "{sched:?} at {threads} threads differs from the encoder's reconstruction"
            );
        }
    }
}

#[test]
fn merged_counters_are_identical_for_any_thread_count_and_schedule() {
    // One construction, one counter stream: the slice construction
    // (forks, per-slice charge windows) is fixed by the slice count,
    // so the worker count and the row grain only reorder work between
    // threads — exactly as in `parallel.rs`.
    let mut enc_mem = NullModel::new();
    let (stream, _) = encode_stream(&mut enc_mem, 7, 4, 1);
    let run = |threads: usize, sched: Scheduling| -> Counters {
        let mut mem = Hierarchy::new(MachineSpec::o2());
        decode_planes(&mut mem, &stream, threads, sched);
        *mem.counters()
    };
    let reference = run(0, Scheduling::SliceParallel);
    assert!(reference.loads > 0);
    for threads in THREADS {
        for sched in SCHEDS {
            assert_eq!(
                run(threads, sched),
                reference,
                "{sched:?} at {threads} threads: decode counters differ from threads=0"
            );
        }
    }
}

#[test]
fn single_slice_streams_decode_identically_at_any_thread_count() {
    // One slice per VOP decodes on the caller without a fork or a
    // pool, whatever the thread setting: same planes, same counters.
    let mut enc_mem = NullModel::new();
    let (stream, recon) = encode_stream(&mut enc_mem, 7, 1, 1);
    let run = |threads: usize| {
        let mut mem = Hierarchy::new(MachineSpec::o2());
        let planes = decode_planes(&mut mem, &stream, threads, Scheduling::SliceParallel);
        (planes, *mem.counters())
    };
    let (planes, counters) = run(0);
    assert_eq!(planes, recon);
    assert_eq!(run(4), (planes, counters));
}

#[test]
fn random_streams_decode_identically_for_any_schedule() {
    // Property: for ANY scene, slice count, B-queue depth, thread
    // count and scheduling mode, the decode reproduces the encoder's
    // reconstruction, with the merged counters of the threads=0 decode
    // of the SAME stream. Randomizing all four covers uneven slice
    // partitions, more-threads-than-slices schedules, B-VOP slices and
    // the wavefront row chains the pinned tests above don't reach.
    prop::check(
        "parallel_decode_determinism",
        &Config::with_cases(5),
        |rng| {
            (
                rng.gen_range(0u64..1 << 32),
                rng.gen_range(2..=10usize),
                rng.gen_range(0..=2usize),
                rng.gen_range(2..=8usize),
            )
        },
        |&(scene_seed, slices, b_frames, threads)| {
            let mut enc_mem = NullModel::new();
            let (stream, recon) = encode_stream(&mut enc_mem, scene_seed, slices, b_frames);
            let run = |threads: usize, sched: Scheduling| {
                let mut mem = Hierarchy::new(MachineSpec::o2());
                let planes = decode_planes(&mut mem, &stream, threads, sched);
                (planes, *mem.counters())
            };
            let (seq_planes, seq_counters) = run(0, Scheduling::SliceParallel);
            if seq_planes != recon {
                return Err(format!(
                    "threads=0 reconstruction differs from the encoder's: \
                     {slices} slices, {b_frames} B"
                ));
            }
            for sched in SCHEDS {
                let (par_planes, par_counters) = run(threads, sched);
                if par_planes != seq_planes {
                    return Err(format!(
                        "reconstruction differs: {slices} slices, {b_frames} B, \
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
