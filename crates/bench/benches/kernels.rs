//! Micro-benchmarks of the computational and simulation kernels: DCT,
//! SAD, quantization, arithmetic coding, bitstream I/O, the
//! cache-hierarchy probe itself, and scene synthesis.
//!
//! Runs on the in-tree [`m4ps_testkit::bench`] runner (`harness =
//! false`); results are written to `BENCH_kernels.json`. Pass `--smoke`
//! for a minimal CI budget, or a substring to filter benchmarks.

use m4ps_bitstream::{BitReader, BitWriter};
use m4ps_codec::{
    ArithDecoder, ArithEncoder, ContextModel, EncoderConfig, FrameView, VideoObjectCoder,
};
use m4ps_dsp::{
    forward_dct, inverse_dct, quantize_intra, sad_16x16, sad_16x16_with_cutoff, scan_zigzag, Block,
    HalfPel, Kernels,
};
use m4ps_memsim::{
    AccessKind, AddressSpace, Hierarchy, MachineSpec, MemModel, SearchCandidate, SimBuf,
};
use m4ps_testkit::bench::{black_box, BenchRunner};

fn bench_dct(r: &mut BenchRunner) {
    let mut b = Block::default();
    for (i, v) in b.data.iter_mut().enumerate() {
        *v = ((i * 37) % 256) as i16;
    }
    r.bench("dct/forward_8x8", || forward_dct(black_box(&b)));
    let coefs = forward_dct(&b);
    r.bench("dct/inverse_8x8", || inverse_dct(black_box(&coefs)));
    r.bench("dct/quantize_intra", || {
        quantize_intra(black_box(&coefs), 8)
    });
    let q = quantize_intra(&coefs, 8);
    r.bench("dct/zigzag_scan", || scan_zigzag(black_box(&q)));
}

fn bench_sad(r: &mut BenchRunner) {
    let a: Vec<u8> = (0..64 * 64).map(|i| (i % 251) as u8).collect();
    let b: Vec<u8> = (0..64 * 64).map(|i| ((i * 7) % 253) as u8).collect();
    // A 16x16 SAD touches 2 x 256 pixels per call.
    r.bench_bytes("sad/16x16_full", 512, || {
        sad_16x16(black_box(&a), 64, 8, 8, black_box(&b), 64, 9, 8)
    });
    r.bench_bytes("sad/16x16_cutoff", 512, || {
        sad_16x16_with_cutoff(black_box(&a), 64, 8, 8, black_box(&b), 64, 9, 8, 500)
    });
}

fn bench_simd_tiers(r: &mut BenchRunner) {
    // Every dispatched kernel, once per tier the CPU supports, so the
    // report tracks the scalar/SSE2/AVX2 cycle ratios the paper's
    // "non-SIMD is enough" argument turns on. The entries are
    // bit-identical in output (pinned by the differential suites);
    // only the ns/iter differ.
    let cur: Vec<u8> = (0..64 * 64).map(|i| (i % 251) as u8).collect();
    let reference: Vec<u8> = (0..64 * 64).map(|i| ((i * 7) % 253) as u8).collect();
    let mut b = Block::default();
    for (i, v) in b.data.iter_mut().enumerate() {
        *v = ((i * 37) % 256) as i16;
    }
    let coefs = forward_dct(&b);
    let levels = quantize_intra(&coefs, 8);
    let search = FullSearchRow::new();
    for tier in m4ps_dsp::supported_tiers() {
        let k = Kernels::for_tier(tier).expect("supported tier has a table");
        let t = tier.name();
        search.bench(r, tier);
        r.bench_bytes(&format!("simd/sad_16x16/tier={t}"), 512, || {
            (k.sad16)(black_box(&cur), 64, 8, 8, black_box(&reference), 64, 9, 8)
        });
        r.bench_bytes(&format!("simd/sad_8x8/tier={t}"), 128, || {
            (k.sad8)(black_box(&cur), 64, 8, 8, black_box(&reference), 64, 9, 8)
        });
        r.bench_bytes(&format!("simd/sad_16x16_half_diag/tier={t}"), 512, || {
            (k.sad16_half_pel)(
                black_box(&cur),
                64,
                8,
                8,
                black_box(&reference),
                64,
                9,
                8,
                true,
                true,
                u32::MAX,
            )
        });
        {
            let mut out = vec![0u8; 256];
            r.bench_bytes(&format!("simd/interp_diag_16x16/tier={t}"), 256, || {
                (k.interp)(
                    black_box(&reference),
                    64,
                    8,
                    8,
                    HalfPel::Diagonal,
                    16,
                    16,
                    &mut out,
                );
                out[0]
            });
        }
        {
            let mut out = vec![0u8; 256];
            r.bench_bytes(&format!("simd/avg_256/tier={t}"), 512, || {
                (k.avg)(
                    black_box(&cur[..256]),
                    black_box(&reference[..256]),
                    &mut out,
                );
                out[0]
            });
        }
        {
            let mut out = vec![0u8; 256];
            r.bench_bytes(&format!("simd/copy_16x16/tier={t}"), 256, || {
                (k.copy_block)(black_box(&reference), 64, 8, 8, 16, 16, &mut out);
                out[0]
            });
        }
        r.bench(&format!("simd/quant_intra/tier={t}"), || {
            (k.quant_intra)(black_box(&coefs), 8)
        });
        r.bench(&format!("simd/quant_inter/tier={t}"), || {
            (k.quant_inter)(black_box(&coefs), 8)
        });
        r.bench(&format!("simd/dequant_intra/tier={t}"), || {
            (k.dequant_intra)(black_box(&levels), 8)
        });
        r.bench(&format!("simd/dequant_inter/tier={t}"), || {
            (k.dequant_inter)(black_box(&levels), 8)
        });
    }
}

/// One PAL macroblock row of the paper's motion search (±8 full search
/// with half-pel refinement) on `NullModel`: the search the codec runs
/// per P-VOP macroblock, with the row-group SAD of the forced tier.
struct FullSearchRow {
    cur: m4ps_codec::TracedPlane,
    reference: m4ps_codec::TracedPlane,
    search: m4ps_codec::MotionSearch,
}

impl FullSearchRow {
    /// The row's macroblock row index (mid-frame).
    const MBY: usize = 18;

    fn new() -> Self {
        use m4ps_codec::{MotionSearch, SearchStrategy, TracedPlane};
        use m4ps_memsim::NullModel;
        use m4ps_vidgen::{Resolution, Scene, SceneSpec};

        let res = Resolution::PAL;
        let scene = Scene::new(SceneSpec {
            resolution: res,
            objects: 3,
            seed: 0x4d50_4547,
        });
        let mut space = AddressSpace::new();
        let mut null = NullModel::new();
        let mut plane = |t: usize| {
            let mut p = TracedPlane::new(&mut space, res.width, res.height);
            p.copy_from(&mut null, &scene.frame(t).y, false);
            p.pad_borders(&mut null);
            p
        };
        let (reference, cur) = (plane(0), plane(1));
        FullSearchRow {
            cur,
            reference,
            search: MotionSearch::new(SearchStrategy::FullSearch, 8, true),
        }
    }

    /// Benches the row with `tier` forced, restoring the active tier.
    fn bench(&self, r: &mut BenchRunner, tier: m4ps_dsp::KernelTier) {
        let mut null = m4ps_memsim::NullModel::new();
        let mbs = self.cur.width() / 16;
        let previous = m4ps_dsp::force_tier(tier);
        // Each MB compares its 16x16 block against a 32x32 window.
        r.bench_bytes(
            &format!("simd/full_search_16/tier={}", tier.name()),
            (mbs * (256 + 32 * 32)) as u64,
            || {
                let mut sad = 0u32;
                for mbx in 0..mbs {
                    sad += self
                        .search
                        .search(&mut null, &self.cur, &self.reference, mbx, Self::MBY)
                        .sad;
                }
                sad
            },
        );
        m4ps_dsp::force_tier(previous);
    }
}

fn bench_bitstream(r: &mut BenchRunner) {
    r.bench("bitstream/write_1k_fields", || {
        let mut w = BitWriter::with_capacity(1024);
        for i in 0..1000u32 {
            w.put_bits(i & 0x3f, 7);
        }
        w.into_bytes()
    });
    let mut w = BitWriter::new();
    for i in 0..1000u32 {
        w.put_bits(i & 0x3f, 7);
    }
    let bytes = w.into_bytes();
    r.bench("bitstream/read_1k_fields", || {
        let mut rd = BitReader::new(black_box(&bytes));
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc += u64::from(rd.get_bits(7).unwrap());
        }
        acc
    });
}

fn bench_arith(r: &mut BenchRunner) {
    let bits: Vec<bool> = (0..2048).map(|i| i % 9 == 0).collect();
    r.bench("arith/encode_2k_bits_adaptive", || {
        let mut model = ContextModel::new(4);
        let mut enc = ArithEncoder::new();
        for (i, &b) in bits.iter().enumerate() {
            let ctx = i & 3;
            enc.encode(b, model.p0(ctx));
            model.update(ctx, b);
        }
        enc.finish()
    });
    let (payload, n) = {
        let mut model = ContextModel::new(4);
        let mut enc = ArithEncoder::new();
        for (i, &b) in bits.iter().enumerate() {
            let ctx = i & 3;
            enc.encode(b, model.p0(ctx));
            model.update(ctx, b);
        }
        enc.finish()
    };
    r.bench("arith/decode_2k_bits_adaptive", || {
        let mut model = ContextModel::new(4);
        let mut dec = ArithDecoder::new(black_box(&payload), n);
        let mut acc = 0u32;
        for i in 0..bits.len() {
            let ctx = i & 3;
            let b = dec.decode(model.p0(ctx));
            model.update(ctx, b);
            acc += u32::from(b);
        }
        acc
    });
}

fn bench_memsim(r: &mut BenchRunner) {
    {
        let mut h = Hierarchy::new(MachineSpec::o2());
        h.access_range(0, 64, AccessKind::Load, 8);
        r.bench("memsim/l1_hit_probe", || {
            h.access_range(black_box(0), 8, AccessKind::Load, 1);
        });
    }
    {
        let mut h = Hierarchy::new(MachineSpec::o2());
        let mut base = 0u64;
        r.bench_bytes("memsim/streaming_4kb", 4096, || {
            h.access_range(black_box(base), 4096, AccessKind::Load, 512);
            base = base.wrapping_add(4096);
        });
    }
    {
        let mut space = AddressSpace::new();
        let buf = SimBuf::<u8>::zeroed(&mut space, 1 << 20);
        let mut h = Hierarchy::new(MachineSpec::onyx2());
        let mut off = 0usize;
        r.bench("memsim/simbuf_row_load", || {
            let row = buf.load_run(&mut h, off & 0xf_ffff, 16);
            off += 720;
            black_box(row[0])
        });
    }
    // The block-charging pair: one 16×16 window (stride 720, a PAL
    // luma row) charged as 16 per-row ranges vs one rectangular
    // charge. The window slides one row per iteration, the hot
    // motion-search pattern the rect fast path exists for.
    {
        let mut h = Hierarchy::new(MachineSpec::o2());
        let mut y = 0u64;
        r.bench_bytes("memsim/access_range", 256, || {
            let base = 0x10_0000 + (y & 63) * 720;
            for row in 0..16u64 {
                h.access_range(black_box(base + row * 720), 16, AccessKind::Load, 16);
            }
            y += 1;
        });
    }
    {
        let mut h = Hierarchy::new(MachineSpec::o2());
        let mut y = 0u64;
        r.bench_bytes("memsim/access_rect", 256, || {
            h.access_rect(
                black_box(0x10_0000 + (y & 63) * 720),
                720,
                16,
                16,
                AccessKind::Load,
                16,
            );
            y += 1;
        });
    }
}

/// Records the candidate batches a memory model is handed (and nothing
/// else): the reference stream of one motion search, one batch for the
/// integer search and one for the half-pel refinement.
#[derive(Default)]
struct SpanRecorder {
    batches: Vec<Vec<SearchCandidate>>,
    counters: m4ps_memsim::Counters,
}

impl MemModel for SpanRecorder {
    fn access_range(&mut self, _addr: u64, _len: u64, _kind: AccessKind, _arch_ops: u64) {}

    fn access_candidates(&mut self, batch: &[SearchCandidate]) {
        self.batches.push(batch.to_vec());
    }

    fn prefetch(&mut self, _addr: u64) {}

    fn add_ops(&mut self, _ops: u64) {}

    fn counters(&self) -> &m4ps_memsim::Counters {
        &self.counters
    }
}

/// The motion-search charging pair: the candidate batch of one PAL ±8
/// integer full search (the paper's window) charged through
/// `access_candidates` vs its expansion charged as one `access_range`
/// per span, both on a persistent O2 hierarchy. Beside it, two batches
/// of candidates with no adjacent neighbour: a ±8 diamond search and
/// the half-pel refinement of the full search. Only the charging is
/// timed.
fn bench_search_charging(r: &mut BenchRunner) {
    use m4ps_codec::{MotionSearch, SearchStrategy, TracedPlane};
    use m4ps_memsim::NullModel;
    use m4ps_vidgen::{Resolution, Scene, SceneSpec};

    let res = Resolution::PAL;
    let scene = Scene::new(SceneSpec {
        resolution: res,
        objects: 0,
        seed: 7,
    });
    let mut space = AddressSpace::new();
    let mut null = NullModel::new();
    let mut plane = |t: usize| {
        let mut p = TracedPlane::new(&mut space, res.width, res.height);
        p.copy_from(&mut null, &scene.frame(t).y, false);
        p.pad_borders(&mut null);
        p
    };
    let (reference, cur) = (plane(0), plane(1));
    let batches = |strategy, half_pel| {
        let mut rec = SpanRecorder::default();
        let search = MotionSearch::new(strategy, 8, half_pel);
        let _ = search.search(&mut rec, &cur, &reference, 20, 18);
        rec.batches
    };
    let span_bytes = |batch: &[SearchCandidate]| {
        let mut bytes = 0;
        for c in batch {
            c.for_each_span(|_, len| bytes += len);
        }
        bytes
    };
    let batch = batches(SearchStrategy::FullSearch, false).remove(0);
    let mut spans = Vec::new();
    for c in &batch {
        c.for_each_span(|addr, len| spans.push((addr, len)));
    }
    let mut h = Hierarchy::new(MachineSpec::o2());
    r.bench_bytes("memsim/search_rows", span_bytes(&batch), || {
        for &(addr, len) in black_box(&spans) {
            h.access_range(addr, len, AccessKind::Load, len);
        }
    });
    let charged = [
        ("memsim/search_batch", batch),
        (
            "memsim/search_batch_diamond",
            batches(SearchStrategy::Diamond, false).remove(0),
        ),
        (
            "memsim/search_batch_halfpel",
            batches(SearchStrategy::FullSearch, true).remove(1),
        ),
    ];
    for (name, batch) in charged {
        let mut h = Hierarchy::new(MachineSpec::o2());
        r.bench_bytes(name, span_bytes(&batch), || {
            h.access_candidates(black_box(&batch));
        });
    }
}

/// Scene synthesis, the stand-in for reading a source frame from disk:
/// a fresh `Scene`'s first frame (which builds its texture memo) and a
/// warm `Scene`'s frames (a lookup plus sensor noise).
fn bench_vidgen(r: &mut BenchRunner) {
    use m4ps_vidgen::{Resolution, Scene, SceneSpec};

    let scene = |resolution: Resolution| {
        Scene::new(SceneSpec {
            resolution,
            objects: 3,
            seed: 0x4d50_4547,
        })
    };
    let pal = Resolution::PAL.frame_bytes() as u64;
    r.bench_bytes("vidgen/frame_pal_cold", pal, || {
        scene(Resolution::PAL).frame(black_box(0))
    });
    for (name, res) in [
        ("vidgen/frame_pal", Resolution::PAL),
        ("vidgen/frame_qcif", Resolution::QCIF),
    ] {
        let warm = scene(res);
        let _ = warm.frame(29);
        let mut t = 0;
        r.bench_bytes(name, res.frame_bytes() as u64, || {
            t = (t + 1) % 30;
            warm.frame(black_box(t))
        });
    }
}

fn bench_parallel(r: &mut BenchRunner) {
    use m4ps_memsim::NullModel;
    use m4ps_vidgen::{Resolution, Scene, SceneSpec};

    // One PAL P-frame, 4 slices, scheduled onto 1/2/4 workers. The
    // output is bit-identical across the three entries (the pool is a
    // pure scheduling knob); the entries exist to track the scaling and
    // the pool's dispatch overhead.
    let res = Resolution::PAL;
    let scene = Scene::new(SceneSpec {
        resolution: res,
        objects: 0,
        seed: 11,
    });
    let frames = [scene.frame(0), scene.frame(1)];
    fn view(f: &m4ps_vidgen::YuvFrame) -> FrameView<'_> {
        FrameView {
            width: f.resolution.width,
            height: f.resolution.height,
            y: &f.y,
            u: &f.u,
            v: &f.v,
        }
    }
    let config = EncoderConfig {
        gop: m4ps_codec::GopStructure {
            intra_period: 1 << 20, // first frame I, every benched frame P
            b_frames: 0,
        },
        ..EncoderConfig::fast_test()
    }
    .with_slices(4);
    let bytes = (res.width * res.height * 3 / 2) as u64;
    for threads in [1usize, 2, 4] {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let mut coder = VideoObjectCoder::new(&mut space, res.width, res.height, config).unwrap();
        coder.set_threads(threads);
        // Prime the anchor so every measured frame is a P-VOP.
        coder
            .encode_frame(&mut mem, &view(&frames[0]), None)
            .unwrap();
        r.bench_bytes(
            &format!("parallel/encode_frame/threads={threads}"),
            bytes,
            || {
                coder
                    .encode_frame(&mut mem, &view(&frames[1]), None)
                    .unwrap()
                    .len()
            },
        );
    }
    // Scheduling-mode pair at the widest worker count: coarse slice
    // jobs vs wavefront row chains over the same persistent pool. The
    // bytes are identical; the delta is pure scheduler overhead (task
    // boxing, deque traffic) vs load-balance win.
    for sched in [
        m4ps_codec::Scheduling::SliceParallel,
        m4ps_codec::Scheduling::Wavefront,
    ] {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let mut coder = VideoObjectCoder::new(&mut space, res.width, res.height, config).unwrap();
        coder.set_threads(4);
        coder.set_scheduling(sched);
        coder
            .encode_frame(&mut mem, &view(&frames[0]), None)
            .unwrap();
        let label = match sched {
            m4ps_codec::Scheduling::SliceParallel => "slice",
            m4ps_codec::Scheduling::Wavefront => "wavefront",
        };
        r.bench_bytes(
            &format!("parallel/encode_frame/sched={label}"),
            bytes,
            || {
                coder
                    .encode_frame(&mut mem, &view(&frames[1]), None)
                    .unwrap()
                    .len()
            },
        );
    }
}

fn bench_parallel_decode(r: &mut BenchRunner) {
    use m4ps_codec::VideoObjectDecoder;
    use m4ps_memsim::NullModel;
    use m4ps_vidgen::{Resolution, Scene, SceneSpec};

    // The decode mirror of `bench_parallel`: one PAL P-VOP, 4 slices,
    // re-decoded from a fixed bit position at each worker count, so
    // 1 -> 4 is the scaling win. The reconstruction is bit-identical
    // across all entries.
    let res = Resolution::PAL;
    let scene = Scene::new(SceneSpec {
        resolution: res,
        objects: 0,
        seed: 11,
    });
    let config = EncoderConfig {
        gop: m4ps_codec::GopStructure {
            intra_period: 1 << 20, // frame 0 I, frame 1 P
            b_frames: 0,
        },
        ..EncoderConfig::fast_test()
    }
    .with_slices(4);
    let stream = {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let mut coder = VideoObjectCoder::new(&mut space, res.width, res.height, config).unwrap();
        let mut stream = coder.header_bytes();
        for t in 0..2 {
            let f = scene.frame(t);
            let view = FrameView {
                width: f.resolution.width,
                height: f.resolution.height,
                y: &f.y,
                u: &f.u,
                v: &f.v,
            };
            for vop in coder.encode_frame(&mut mem, &view, None).unwrap() {
                stream.extend_from_slice(&vop.bytes);
            }
        }
        for vop in coder.flush(&mut mem).unwrap() {
            stream.extend_from_slice(&vop.bytes);
        }
        stream
    };
    let bytes = (res.width * res.height * 3 / 2) as u64;
    for threads in [1usize, 2, 4] {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let mut reader = BitReader::new(&stream);
        let mut dec = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut reader).unwrap();
        dec.set_threads(threads);
        // Prime the anchor so every measured decode is the P-VOP.
        dec.decode_next(&mut mem, &mut reader).unwrap().unwrap();
        let pos = reader.bit_pos();
        r.bench_bytes(
            &format!("parallel/decode_frame/threads={threads}"),
            bytes,
            || {
                let mut rr = BitReader::new(&stream);
                rr.seek_to(pos);
                usize::from(dec.decode_next(&mut mem, &mut rr).unwrap().is_some())
            },
        );
    }
}

fn bench_obs_overhead(r: &mut BenchRunner) {
    use m4ps_memsim::NullModel;
    use m4ps_obs::Profiler;
    use m4ps_vidgen::{Resolution, Scene, SceneSpec};

    // The same P-frame encode with and without an installed profiler
    // session (with no session, spans cost one atomic load each; with
    // one, every span snapshots the counters twice and does ~40 word
    // ops), and with the session held constant and the flight recorder
    // toggled. bench_compare gates each `on` entry against its
    // `off` entry (<8% overhead), so each pair runs as one interleaved
    // series: the two sides sample alternately in one process and share
    // whatever the machine does meanwhile, and the gate reads the
    // median per-pair ratio. Both sides drive one coder, so they also
    // share its memory layout. Each profiled frame attaches its session
    // for the frame (attach and the detach merge are part of what it
    // pays).
    let res = Resolution::PAL;
    let scene = Scene::new(SceneSpec {
        resolution: res,
        objects: 0,
        seed: 11,
    });
    let frames = [scene.frame(0), scene.frame(1)];
    fn view(f: &m4ps_vidgen::YuvFrame) -> FrameView<'_> {
        FrameView {
            width: f.resolution.width,
            height: f.resolution.height,
            y: &f.y,
            u: &f.u,
            v: &f.v,
        }
    }
    let config = EncoderConfig {
        gop: m4ps_codec::GopStructure {
            intra_period: 1 << 20,
            b_frames: 0,
        },
        ..EncoderConfig::fast_test()
    }
    .with_slices(4);
    let bytes = (res.width * res.height * 3 / 2) as u64;
    // A single-threaded coder primed with the I-VOP, so every measured
    // frame is a P-VOP.
    let coder = || {
        let mut space = AddressSpace::new();
        let mut coder = VideoObjectCoder::new(&mut space, res.width, res.height, config).unwrap();
        coder.set_threads(1);
        coder
            .encode_frame(&mut NullModel::new(), &view(&frames[0]), None)
            .unwrap();
        std::cell::RefCell::new(coder)
    };
    // One P-frame encode, under `session` when there is one.
    let encode = |coder: &std::cell::RefCell<VideoObjectCoder>, session: Option<&Profiler>| {
        let _guard = session.map(Profiler::attach);
        coder
            .borrow_mut()
            .encode_frame(&mut NullModel::new(), &view(&frames[1]), None)
            .unwrap()
            .len()
    };

    let shared = coder();
    let profiler = Profiler::new(false);
    r.bench_interleaved(
        [
            "parallel/encode_frame/obs=off",
            "parallel/encode_frame/obs=on",
        ],
        bytes,
        || encode(&shared, None),
        || encode(&shared, Some(&profiler)),
    );

    // With a recorder installed, every coarse phase span also appends
    // a 40-byte event to the thread's ring.
    let shared = coder();
    let (plain, recorded) = (Profiler::new(false), Profiler::new(false));
    let recorder = m4ps_obs::Recorder::new(0);
    recorded.set_recorder(&recorder);
    r.bench_interleaved(
        [
            "parallel/encode_frame/rec=off",
            "parallel/encode_frame/rec=on",
        ],
        bytes,
        || encode(&shared, Some(&plain)),
        || encode(&shared, Some(&recorded)),
    );
}

fn bench_serve(r: &mut BenchRunner) {
    use m4ps_memsim::NullModel;
    use m4ps_serve::{AdmissionConfig, Service, ServiceConfig, SessionSpec};

    // Multi-session service throughput: 64 concurrent tiny sessions
    // (2 frames each, 2 slices per VOP) multiplexed over one shared
    // 4-thread pool by 8 drivers. Each iteration is a full batch —
    // admit, fair-queue, encode, drain — so the median tracks the
    // whole service path, not just the codec inner loop. The meta keys
    // (sessions/sec, frame latency percentiles) come from a dedicated
    // measurement batch on the same service.
    const SESSIONS: usize = 64;
    const FRAMES: usize = 2;
    let service = Service::new(ServiceConfig {
        threads: 4,
        drivers: 8,
        sched: Some(m4ps_codec::Scheduling::SliceParallel),
        admission: AdmissionConfig::default(),
        ..ServiceConfig::default()
    });
    let specs = || -> Vec<SessionSpec> {
        (0..SESSIONS as u64)
            .map(|i| SessionSpec::tiny(i, FRAMES))
            .collect()
    };
    let report = service.run_batch(specs(), |_, _| NullModel::new(), |_, _| {});
    assert_eq!(
        report.completed, SESSIONS as u64,
        "bench batch must complete"
    );
    r.set_meta("serve_sessions", &SESSIONS.to_string());
    r.set_meta(
        "serve_sessions_per_sec",
        &format!("{:.1}", report.sessions_per_sec),
    );
    r.set_meta(
        "serve_frame_p50_ms",
        &format!("{:.3}", report.frame_latency.p50() as f64 / 1e6),
    );
    r.set_meta(
        "serve_frame_p99_ms",
        &format!("{:.3}", report.frame_latency.p99() as f64 / 1e6),
    );

    // 64×48 4:2:0 frames: the batch's input traffic.
    let bytes = (SESSIONS * FRAMES * 64 * 48 * 3 / 2) as u64;
    r.bench_bytes(&format!("serve/batch/sessions={SESSIONS}"), bytes, || {
        let rep = service.run_batch(specs(), |_, _| NullModel::new(), |_, _| {});
        assert_eq!(rep.completed, SESSIONS as u64);
        rep.frames
    });

    // The same offered load through a single driver on a single-thread
    // pool: the serialized floor. The ratio of the two medians is the
    // service's concurrency win on this machine.
    let solo = Service::new(ServiceConfig {
        threads: 1,
        drivers: 1,
        sched: Some(m4ps_codec::Scheduling::SliceParallel),
        admission: AdmissionConfig::default(),
        ..ServiceConfig::default()
    });
    r.bench_bytes("serve/batch/drivers=1", bytes, || {
        let rep = solo.run_batch(specs(), |_, _| NullModel::new(), |_, _| {});
        assert_eq!(rep.completed, SESSIONS as u64);
        rep.frames
    });
}

fn main() {
    let mut r = BenchRunner::from_args("kernels");
    // Stamp the report with the tier the dispatched entries (and the
    // codec-level benches below) actually ran, so bench_compare can
    // refuse to diff reports from different tiers.
    r.set_meta("kernel_tier", m4ps_dsp::active_tier().name());
    bench_dct(&mut r);
    bench_sad(&mut r);
    bench_simd_tiers(&mut r);
    bench_bitstream(&mut r);
    bench_arith(&mut r);
    bench_memsim(&mut r);
    bench_search_charging(&mut r);
    bench_vidgen(&mut r);
    bench_parallel(&mut r);
    bench_parallel_decode(&mut r);
    bench_obs_overhead(&mut r);
    bench_serve(&mut r);
    r.finish();
}
