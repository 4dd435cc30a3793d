//! The traced run: a per-layer ledger for one workload.
//!
//! Every layer is measured on the named workload's own inputs and codec
//! configuration, from the benchmark's side of the public APIs: the
//! counting memory-model wrapper, a flight recorder attached to a pool
//! with `WorkerPool::set_recorder`, `PhaseProfile`s, and clocks around
//! the benchmark's own calls. Where the workload's clock does not
//! include a layer (memsim under `NullModel`, the service on the
//! single-stream workloads) a small probe of the same configuration
//! measures it, and the ledger marks the layer as off the clock.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use m4ps_codec::{EncoderConfig, Scheduling, SessionStats};
use m4ps_core::Workload;
use m4ps_dsp::{forward_dct, inverse_dct, kernels, Block, CoefBlock, HalfPel};
use m4ps_memsim::{Counters, Hierarchy, MachineSpec, MemModel, NullModel};
use m4ps_obs::{Phase, PhaseProfile, Profiler, Recorder};
use m4ps_pool::WorkerPool;
use m4ps_serve::{SessionMode, SessionSpec};
use m4ps_vidgen::{Resolution, Scene, SceneSpec, YuvFrame};

use crate::counting::Counting;
use crate::report::Report;
use crate::scene::{decode_scene, decode_vops, digest_streams, encode, Clip};
use crate::stats::{highest_supported, median, percentile};
use crate::{codec, serve, study};

/// Flight-recorder ring capacity for the traced pools (events/thread).
const RING_CAPACITY: usize = 1 << 20;

/// Phases whose simulated loads and entries the ledger reports.
const PHASES: [Phase; 8] = [
    Phase::MeSearch,
    Phase::MeHalfPel,
    Phase::McPredict,
    Phase::DctQuant,
    Phase::Vlc,
    Phase::Recon,
    Phase::Shape,
    Phase::Parse,
];

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn ms(ns: f64) -> f64 {
    ns * 1e-6
}

/// Exact nearest-rank percentile of `v` in ms (0 for no samples). Probe
/// sample sets can be small; the ledger states the highest percentile
/// each set supports.
fn pct_ms(v: &[f64], q: f64) -> f64 {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        0.0
    } else {
        ms(percentile(&sorted, q))
    }
}

/// The memsim probe's result: an encode and decode under the counting
/// wrapper around the simulated O2, and the same under `NullModel`.
struct Memsim {
    calls: u64,
    bytes: u64,
    o2_s: f64,
    null_s: f64,
    o2_streams: Vec<Vec<Vec<u8>>>,
    null_streams: Vec<Vec<Vec<u8>>>,
    profile: PhaseProfile,
}

/// Runs every `(clip, config)` through encode + decode under
/// `Counting<Hierarchy>` (O2, region map attached as `m4ps_core::study`
/// does), then under `Counting<NullModel>`. Each half runs with a
/// profiler of its own attached, so the profiler's span cost cancels in
/// the difference; the O2 profiler's profile is the one reported.
fn memsim_probe(items: &[(&Clip, EncoderConfig)], report: &mut Report) -> Option<Memsim> {
    let o2 = MachineSpec::o2();
    let pool = Arc::new(WorkerPool::new(nproc()));
    let profiler = Profiler::new(false);
    let null_profiler = Profiler::new(false);
    let m = Memsim {
        calls: 0,
        bytes: 0,
        o2_s: 0.0,
        null_s: 0.0,
        o2_streams: Vec::new(),
        null_streams: Vec::new(),
        profile: PhaseProfile::new(),
    };
    let run = || -> Result<Memsim, m4ps_codec::CodecError> {
        let mut m = m;
        for (clip, config) in items {
            let hierarchy = || {
                if config.software_prefetch {
                    Hierarchy::new(o2.clone())
                } else {
                    Hierarchy::without_prefetch(o2.clone())
                }
            };
            let attach = |sp: &m4ps_memsim::AddressSpace, mem: &mut Counting<Hierarchy>| {
                mem.inner_mut().attach_regions(sp.regions())
            };
            let guard = profiler.attach();
            let t = Instant::now();
            let mut mem = Counting::new(hierarchy());
            let enc = encode(&mut mem, clip, *config, &pool, None, attach)?;
            let mut dmem = Counting::new(Hierarchy::new(o2.clone()));
            decode_scene(&mut dmem, &enc.streams, clip.layers, attach)?;
            m.o2_s += t.elapsed().as_secs_f64();
            drop(guard);
            m.calls += mem.calls() + dmem.calls();
            m.bytes += mem.bytes() + dmem.bytes();
            m.o2_streams.push(enc.streams);

            let guard = null_profiler.attach();
            let t = Instant::now();
            let mut null = Counting::new(NullModel::new());
            let enc = encode(&mut null, clip, *config, &pool, None, |_, _| {})?;
            decode_scene(&mut null, &enc.streams, clip.layers, |_, _| {})?;
            m.null_s += t.elapsed().as_secs_f64();
            drop(guard);
            m.null_streams.push(enc.streams);
        }
        m.profile = profiler.profile();
        Ok(m)
    };
    match run() {
        Ok(m) => {
            let same = m.o2_streams == m.null_streams;
            report.check(
                "memsim probe O2 streams equal its NullModel streams",
                same,
                &format!("{} stream sets", m.o2_streams.len()),
            );
            Some(m)
        }
        Err(e) => {
            report.check("memsim probe runs", false, &format!("{e:?}"));
            None
        }
    }
}

/// Per-call kernel times, ns.
struct Dsp {
    sad16: f64,
    sad16_half_pel: f64,
    interp: f64,
    quant_inter: f64,
    dequant_inter: f64,
    fdct: f64,
    idct: f64,
}

/// Times the active tier's kernels on blocks cut from `cur` / `prev`:
/// each kernel runs over every block position several times, and the
/// median of five trials is reported.
fn dsp_probe(prev: &YuvFrame, cur: &YuvFrame) -> Dsp {
    let k = kernels();
    let w = cur.resolution.width;
    let h = cur.resolution.height;
    // 16×16 block positions with an 8-pixel margin for the search offset
    // and one more row/column for half-pel reads.
    let mut pos = Vec::new();
    for by in (16..h.saturating_sub(40)).step_by(32) {
        for bx in (16..w.saturating_sub(40)).step_by(32) {
            pos.push((bx, by, bx + 3, by + 2));
        }
    }
    let residual = |cx: usize, cy: usize, rx: usize, ry: usize| {
        let mut b = Block::default();
        for r in 0..8 {
            for c in 0..8 {
                b.data[r * 8 + c] = i16::from(cur.y[(cy + r) * w + cx + c])
                    - i16::from(prev.y[(ry + r) * w + rx + c]);
            }
        }
        b
    };
    let blocks: Vec<Block> = pos
        .iter()
        .map(|&(cx, cy, rx, ry)| residual(cx, cy, rx, ry))
        .collect();
    let coefs: Vec<CoefBlock> = blocks.iter().map(forward_dct).collect();
    let levels: Vec<CoefBlock> = coefs.iter().map(|c| (k.quant_inter)(c, 4)).collect();
    let recon: Vec<CoefBlock> = levels.iter().map(|l| (k.dequant_inter)(l, 4)).collect();
    let mut out = vec![0u8; 256];
    let reps = 20;
    let time = |f: &mut dyn FnMut()| -> f64 {
        let trials: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..reps {
                    f();
                }
                t.elapsed().as_nanos() as f64 / (reps * pos.len().max(1)) as f64
            })
            .collect();
        median(&trials)
    };
    Dsp {
        sad16: time(&mut || {
            for &(cx, cy, rx, ry) in &pos {
                black_box((k.sad16)(&cur.y, w, cx, cy, &prev.y, w, rx, ry));
            }
        }),
        sad16_half_pel: time(&mut || {
            for &(cx, cy, rx, ry) in &pos {
                black_box((k.sad16_half_pel)(
                    &cur.y,
                    w,
                    cx,
                    cy,
                    &prev.y,
                    w,
                    rx,
                    ry,
                    true,
                    true,
                    u32::MAX,
                ));
            }
        }),
        interp: time(&mut || {
            for &(_, _, rx, ry) in &pos {
                (k.interp)(&prev.y, w, rx, ry, HalfPel::Diagonal, 16, 16, &mut out);
                black_box(&out);
            }
        }),
        quant_inter: time(&mut || {
            for c in &coefs {
                black_box((k.quant_inter)(black_box(c), 4));
            }
        }),
        dequant_inter: time(&mut || {
            for l in &levels {
                black_box((k.dequant_inter)(black_box(l), 4));
            }
        }),
        fdct: time(&mut || {
            for b in &blocks {
                black_box(forward_dct(black_box(b)));
            }
        }),
        idct: time(&mut || {
            for c in &recon {
                black_box(inverse_dct(black_box(c)));
            }
        }),
    }
}

/// Per-frame encode/decode times of one configuration under
/// `NullModel` at threads=1 and threads=`nproc`, under each scheduling
/// grain, plus sequential (pool-free) decode.
struct Sweep {
    /// `[threads=1, threads=nproc] × [slice, wavefront]`, ms per frame.
    encode_ms: [[f64; 2]; 2],
    /// Sequential decode, ms per frame.
    decode_seq_ms: f64,
    /// Decode on a threads=1 pool, ms per frame.
    decode_t1_ms: f64,
    /// Decode on a threads=`nproc` pool, ms per frame.
    decode_tn_ms: f64,
}

fn sweep(clip: &Clip, config: EncoderConfig) -> Option<Sweep> {
    let pools = [
        Arc::new(WorkerPool::new(1)),
        Arc::new(WorkerPool::new(nproc())),
    ];
    let scheds = [Scheduling::SliceParallel, Scheduling::Wavefront];
    let frames = clip.frames.len() as f64;
    let mut enc = [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
    let (mut seq, mut t1, mut tn) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream = Vec::new();
    for _ in 0..3 {
        for (ti, pool) in pools.iter().enumerate() {
            for (si, sched) in scheds.iter().enumerate() {
                let t = Instant::now();
                let out = encode(
                    &mut NullModel::new(),
                    clip,
                    config,
                    pool,
                    Some(*sched),
                    |_, _| {},
                )
                .ok()?;
                enc[ti][si].push(t.elapsed().as_secs_f64() * 1e3 / frames);
                stream = out.streams.into_iter().next()?;
            }
        }
        for (pool, out) in [
            (None, &mut seq),
            (Some(&pools[0]), &mut t1),
            (Some(&pools[1]), &mut tn),
        ] {
            let (_, ns) = decode_vops(&mut NullModel::new(), &stream, pool, false).ok()?;
            out.push(ms(ns.iter().sum::<u64>() as f64) / ns.len().max(1) as f64);
        }
    }
    Some(Sweep {
        encode_ms: [
            [median(&enc[0][0]), median(&enc[0][1])],
            [median(&enc[1][0]), median(&enc[1][1])],
        ],
        decode_seq_ms: median(&seq),
        decode_t1_ms: median(&t1),
        decode_tn_ms: median(&tn),
    })
}

/// Median time of `Scene::frame` at `resolution`, ms.
fn vidgen_probe(resolution: Resolution, seed: u64) -> f64 {
    let scene = Scene::new(SceneSpec {
        resolution,
        objects: 1,
        seed,
    });
    let times: Vec<f64> = (0..7)
        .map(|t| {
            let start = Instant::now();
            black_box(scene.frame(t));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Everything the ledger needs, gathered per workload.
#[derive(Default)]
struct Layers {
    memsim: Option<(u64, u64, f64, f64)>, // calls, bytes, o2_s, null_s
    memsim_on_clock: bool,
    codec_wall: [f64; 4], // vop.encode, vop.decode, frame.io, slice (s)
    loads: PhaseProfile,
    stats: SessionStats,
    dsp: Option<Dsp>,
    encode_s: f64, // untraced encode wall the SAD share is taken of
    pool: [u64; 4],
    sweep: Option<Sweep>,
    serve: serve::Analysis,
    serve_drivers: usize,
    serve_on_clock: bool,
    events: usize,
    frames: f64,
    dropped: u64,
    traced_s: f64,
    untraced_s: f64,
    vidgen_ms: f64,
}

/// Coarse-phase wall time, s: vop.encode, vop.decode, frame.io, and
/// slice plus slice.decode.
fn coarse_walls(p: &PhaseProfile) -> [f64; 4] {
    let wall = |phases: &[Phase]| -> f64 {
        phases
            .iter()
            .map(|&ph| p.get(ph).wall_ns as f64 * 1e-9)
            .sum()
    };
    [
        wall(&[Phase::VopEncode]),
        wall(&[Phase::VopDecode]),
        wall(&[Phase::FrameIo]),
        wall(&[Phase::Slice, Phase::DecodeSlice]),
    ]
}

fn merged(ps: &[&PhaseProfile]) -> PhaseProfile {
    let mut out = PhaseProfile::new();
    for p in ps {
        out.merge(p);
    }
    out
}

/// A small open-loop service probe: `n` sessions of `spec`'s
/// configuration, encode alternating with decode replay.
fn serve_probe(
    spec: SessionSpec,
    n: usize,
    report: &mut Report,
) -> Option<(serve::Analysis, usize)> {
    let inputs = match serve::Inputs::build(vec![spec]) {
        Ok(i) => i,
        Err(e) => {
            report.check("serve probe set-up", false, &format!("{e:?}"));
            return None;
        }
    };
    let run = serve::run_open_loop(
        &serve::new_service(),
        &inputs,
        serve::plan(&inputs, n, 1000.0),
        |_, _| NullModel::new(),
        report,
    );
    Some((run.analysis, run.drivers))
}

fn spec_for(clip: &Clip, config: EncoderConfig, frames: usize, seed: u64) -> SessionSpec {
    SessionSpec {
        width: clip.resolution.width,
        height: clip.resolution.height,
        frames,
        objects: 0,
        layers: 1,
        seed,
        weight: 1,
        encoder: config,
        mode: SessionMode::Encode,
    }
}

/// Runs the traced measurement of `workload` and fills the report with
/// every per-layer metric plus the ledger.
pub fn traced(
    workload: &str,
    study_inputs: &study::Inputs,
    codec_clips: &[Clip],
    serve_inputs: &serve::Inputs,
    pool: &Arc<WorkerPool>,
    total: Duration,
    report: &mut Report,
) {
    let mut l = Layers::default();
    match workload {
        "study_o2" => trace_study(study_inputs, &mut l, report),
        "codec_null" => trace_codec(codec_clips, pool, &mut l, report),
        _ => trace_serve(serve_inputs, total, &mut l, report),
    }
    emit(workload, &l, report);
}

fn study_clip(w: &Workload) -> Clip {
    Clip::generate(w.resolution, w.objects, w.layers, w.frames, w.seed)
}

fn trace_study(inputs: &study::Inputs, l: &mut Layers, report: &mut Report) {
    l.memsim_on_clock = true;
    // Untraced reference: the calls the end-to-end metrics time.
    let (enc, dec) = match (study::encode_rep(inputs), study::decode_rep(inputs)) {
        (Ok(e), Ok(d)) => (e, d),
        _ => {
            report.check(
                "study traced reference runs",
                false,
                "encode_study/decode_study failed",
            );
            return;
        }
    };
    report.ops(4, 0);
    l.encode_s = enc.1;
    let profile = merged(&[
        &enc.0[0].profile,
        &enc.0[1].profile,
        &dec.0[0].profile,
        &dec.0[1].profile,
    ]);
    l.codec_wall = coarse_walls(&profile);
    l.loads = profile;
    for r in &enc.0 {
        l.stats.totals.merge(&r.session.totals);
    }

    // Traced pass: the counting wrapper drives the same calls the study
    // makes, on a pool and profiler recording into one flight recorder.
    // The untraced twin runs the same calls on a bare hierarchy and pool.
    let clips = [
        study_clip(&inputs.workloads[0]),
        study_clip(&inputs.workloads[1]),
    ];
    let cfg = study::config().encoder;
    let rec = Recorder::new(RING_CAPACITY);
    let traced_pool = Arc::new(WorkerPool::new(nproc()));
    traced_pool.set_recorder(&rec);
    let bare_pool = Arc::new(WorkerPool::new(nproc()));
    let profiler = Profiler::new(false);
    profiler.set_recorder(&rec);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut counters = Vec::new();
    let mut streams = Vec::new();
    let mut calls = 0;
    for rep in 0..2 {
        let t = Instant::now();
        for clip in &clips {
            let mut mem = Hierarchy::new(MachineSpec::o2());
            if let Err(e) = encode(&mut mem, clip, cfg, &bare_pool, None, |sp, m| {
                m.attach_regions(sp.regions())
            }) {
                report.check("study untraced encode", false, &format!("{e:?}"));
            }
        }
        untraced.push(t.elapsed().as_secs_f64());
        let _g = profiler.attach();
        let t = Instant::now();
        for clip in &clips {
            let mut mem = Counting::new(Hierarchy::new(MachineSpec::o2()));
            match encode(&mut mem, clip, cfg, &traced_pool, None, |sp, m| {
                m.inner_mut().attach_regions(sp.regions())
            }) {
                Ok(e) if rep == 0 => {
                    counters.push(*mem.counters());
                    streams.push(e.streams);
                    calls += mem.calls();
                }
                Ok(_) => {}
                Err(e) => report.check("study traced encode", false, &format!("{e:?}")),
            }
        }
        traced.push(t.elapsed().as_secs_f64());
    }
    l.untraced_s = median(&untraced);
    l.traced_s = median(&traced);
    let dump = rec.snapshot();
    l.pool = serve::pool_counts(&dump.events);
    l.events = dump.events.len();
    l.dropped = dump.events_dropped;
    l.frames = 2.0 * clips.iter().map(|c| c.frames.len() as f64).sum::<f64>();
    let untraced: Vec<Counters> = enc.0.iter().map(|r| r.metrics.counters).collect();
    report.check(
        "traced memsim counters equal untraced encode_study counters",
        counters == untraced,
        &format!("{} workloads, {calls} charging calls", counters.len()),
    );
    report.check(
        "O2 streams equal NullModel streams",
        streams.len() == 2 && streams[0] == inputs.streams[0] && streams[1] == inputs.streams[1],
        &format!(
            "digests {:016x} {:016x}",
            digest_streams(&inputs.streams[0]),
            digest_streams(&inputs.streams[1])
        ),
    );

    // memsim charge: the same encode + decode under O2 and NullModel.
    if let Some(m) = memsim_probe(&[(&clips[0], cfg), (&clips[1], cfg)], report) {
        l.memsim = Some((m.calls, m.bytes, m.o2_s, m.null_s));
    }
    l.dsp = Some(dsp_probe(&clips[0].frames[0], &clips[0].frames[1]));
    l.sweep = sweep(&clips[0], cfg);
    let spec = spec_for(&clips[0], cfg, study::FRAMES, inputs.workloads[0].seed);
    if let Some((a, d)) = serve_probe(spec, 4, report) {
        l.serve = a;
        l.serve_drivers = d;
    }
    l.vidgen_ms = vidgen_probe(Resolution::PAL, inputs.workloads[0].seed);
}

fn trace_codec(clips: &[Clip], pool: &Arc<WorkerPool>, l: &mut Layers, report: &mut Report) {
    let clip = &clips[0];
    // Untraced passes on the run's pool alternate with traced passes:
    // counting wrapper, a recorder on a fresh pool, a profiler attached.
    let rec = Recorder::new(RING_CAPACITY);
    let traced_pool = Arc::new(WorkerPool::new(nproc()));
    traced_pool.set_recorder(&rec);
    let profiler = Profiler::new(false);
    profiler.set_recorder(&rec);
    let (mut untraced, mut traced, mut encode_s) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..3 {
        let (mut u, mut e) = (0.0, 0.0);
        for c in clips {
            let t = Instant::now();
            match codec::pass(c, pool) {
                Ok(p) => {
                    u += t.elapsed().as_secs_f64();
                    e += p.encode_ns.iter().sum::<u64>() as f64 * 1e-9;
                    if rep == 0 {
                        l.stats.totals.merge(&p.stats.totals);
                    }
                    report.ops(2 * codec::FRAMES as u64, u64::from(p.concealed > 0));
                }
                Err(e) => report.check("codec untraced pass", false, &format!("{e:?}")),
            }
        }
        untraced.push(u);
        encode_s.push(e);
        let _g = profiler.attach();
        let t = Instant::now();
        for c in clips {
            let mut mem = Counting::new(NullModel::new());
            let ok = encode(&mut mem, c, codec::config(), &traced_pool, None, |_, _| {})
                .and_then(|e| decode_vops(&mut mem, &e.streams[0], Some(&traced_pool), false));
            if let Err(e) = ok {
                report.check("codec traced pass", false, &format!("{e:?}"));
            }
        }
        traced.push(t.elapsed().as_secs_f64());
    }
    l.untraced_s = median(&untraced);
    l.traced_s = median(&traced);
    l.encode_s = median(&encode_s);
    l.codec_wall = coarse_walls(&profiler.profile());
    let dump = rec.snapshot();
    l.pool = serve::pool_counts(&dump.events);
    l.events = dump.events.len();
    l.dropped = dump.events_dropped;
    l.frames = 3.0 * 2.0 * (clips.len() * codec::FRAMES) as f64;

    // Off the clock: what memsim would charge for the first GOP frames.
    let head = Clip {
        resolution: clip.resolution,
        objects: 0,
        layers: 1,
        frames: clip.frames[..4].to_vec(),
        masks: clip.masks[..4].to_vec(),
    };
    if let Some(m) = memsim_probe(&[(&head, codec::config())], report) {
        l.memsim = Some((m.calls, m.bytes, m.o2_s, m.null_s));
        l.loads = m.profile;
    }
    l.dsp = Some(dsp_probe(&clip.frames[0], &clip.frames[1]));
    l.sweep = sweep(clip, codec::config());
    if let Some((a, d)) = serve_probe(spec_for(clip, codec::config(), 4, 7), 4, report) {
        l.serve = a;
        l.serve_drivers = d;
    }
    l.vidgen_ms = vidgen_probe(Resolution::PAL, 7);
}

fn trace_serve(inputs: &serve::Inputs, total: Duration, l: &mut Layers, report: &mut Report) {
    l.serve_on_clock = true;
    // The open-loop run itself, traced by the service's own recorder
    // and with every session's model under the counting wrapper.
    let n = ((total.as_secs_f64() * 0.5 * serve::RATE) as usize).max(160);
    let run = serve::run_open_loop(
        &serve::new_service(),
        inputs,
        serve::plan(inputs, n, serve::RATE),
        |_, _| Counting::new(NullModel::new()),
        report,
    );
    l.serve = run.analysis.clone();
    l.serve_drivers = run.drivers;
    l.pool = run.analysis.pool;
    l.events = run.analysis.events;
    l.frames = run.analysis.frame_latency.len() as f64;
    l.dropped = run.events_dropped;
    l.codec_wall = coarse_walls(&run.profile);

    // Tracing overhead: the same batch of sessions, bare and counted,
    // alternating.
    let batch = serve::plan(inputs, 8 * serve::CONTENTS, 1e9);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let _ = serve::run_open_loop(
            &serve::new_service(),
            inputs,
            batch.clone(),
            |_, _| NullModel::new(),
            report,
        );
        untraced.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let _ = serve::run_open_loop(
            &serve::new_service(),
            inputs,
            batch.clone(),
            |_, _| Counting::new(NullModel::new()),
            report,
        );
        traced.push(t.elapsed().as_secs_f64());
    }
    l.untraced_s = median(&untraced);
    l.traced_s = median(&traced);

    // Off the clock: memsim and the codec probes on one session's content.
    let spec = &inputs.encode[0];
    let clip = Clip::generate(
        Resolution::new(spec.width, spec.height),
        0,
        1,
        spec.frames,
        spec.seed,
    );
    let t = Instant::now();
    if let Ok(e) = encode(
        &mut NullModel::new(),
        &clip,
        spec.encoder,
        &Arc::new(WorkerPool::new(nproc())),
        None,
        |_, _| {},
    ) {
        l.stats = e.stats;
    }
    l.encode_s = t.elapsed().as_secs_f64();
    if let Some(m) = memsim_probe(&[(&clip, spec.encoder)], report) {
        l.memsim = Some((m.calls, m.bytes, m.o2_s, m.null_s));
        l.loads = m.profile;
    }
    l.dsp = Some(dsp_probe(&clip.frames[0], &clip.frames[1]));
    l.sweep = sweep(&clip, spec.encoder);
    l.vidgen_ms = vidgen_probe(Resolution::new(spec.width, spec.height), spec.seed);
}

/// Reports every per-layer metric and prints the ledger.
fn emit(workload: &str, l: &Layers, report: &mut Report) {
    let clock = |on: bool| {
        if on {
            "on the clock"
        } else {
            "off the clock (probe)"
        }
    };
    report.ledger(format!("workload {workload}"));

    // memsim
    let (calls, bytes, o2_s, null_s) = l.memsim.unwrap_or_default();
    let charge = o2_s - null_s;
    let share = if o2_s > 0.0 { charge / o2_s } else { 0.0 };
    let ns_call = if calls > 0 {
        charge * 1e9 / calls as f64
    } else {
        0.0
    };
    report.metric("memsim.calls", "count", calls as f64, 1);
    report.metric("memsim.bytes_charged", "count", bytes as f64, 1);
    report.metric("memsim.charge_s", "s", charge, 1);
    report.metric("memsim.share", "ratio", share, 1);
    report.metric("memsim.ns_per_call", "ns", ns_call, 1);
    report.ledger(format!(
        "memsim  self {charge:.3} s of {o2_s:.3} s O2 wall ({:.1}%), {calls} calls, {bytes} bytes, {ns_call:.2} ns/call, {}",
        share * 100.0,
        clock(l.memsim_on_clock)
    ));

    // codec
    let names = ["vop_encode_s", "vop_decode_s", "frame_io_s", "slice_s"];
    for (name, v) in names.iter().zip(l.codec_wall) {
        report.metric(&format!("codec.{name}"), "s", v, 1);
    }
    report.ledger(format!(
        "codec   self vop.encode {:.3} s, vop.decode {:.3} s, frame.io {:.3} s, slice {:.3} s",
        l.codec_wall[0], l.codec_wall[1], l.codec_wall[2], l.codec_wall[3]
    ));
    let mut phase_line = String::from("codec   simulated loads/entries:");
    for ph in PHASES {
        let s = l.loads.get(ph);
        report.metric(
            &format!("codec.loads.{}", ph.name()),
            "count",
            s.counters.loads as f64,
            1,
        );
        report.metric(
            &format!("codec.entries.{}", ph.name()),
            "count",
            s.entries as f64,
            1,
        );
        phase_line.push_str(&format!(
            " {} {}/{}",
            ph.name(),
            s.counters.loads,
            s.entries
        ));
    }
    report.ledger(phase_line);
    let t = &l.stats.totals;
    for (name, v) in [
        ("candidates", t.candidates),
        ("intra_mbs", t.intra_mbs),
        ("inter_mbs", t.inter_mbs),
        ("skipped_mbs", t.skipped_mbs),
        ("transparent_mbs", t.transparent_mbs),
        ("bits", t.bits),
    ] {
        report.metric(&format!("codec.{name}"), "count", v as f64, 1);
    }
    report.ledger(format!(
        "codec   work {} candidates, MBs intra {} inter {} skipped {} transparent {}, {} bits",
        t.candidates, t.intra_mbs, t.inter_mbs, t.skipped_mbs, t.transparent_mbs, t.bits
    ));

    // dsp
    if let Some(d) = &l.dsp {
        let sad_share = if l.encode_s > 0.0 {
            t.candidates as f64 * d.sad16 * 1e-9 / l.encode_s
        } else {
            0.0
        };
        for (name, v) in [
            ("dsp.sad16_ns", d.sad16),
            ("dsp.sad16_half_pel_ns", d.sad16_half_pel),
            ("dsp.interp_ns", d.interp),
            ("dsp.quant_inter_ns", d.quant_inter),
            ("dsp.dequant_inter_ns", d.dequant_inter),
            ("dsp.fdct_ns", d.fdct),
            ("dsp.idct_ns", d.idct),
        ] {
            report.metric(name, "ns", v, 5);
        }
        report.metric("dsp.sad_share", "ratio", sad_share, 1);
        report.ledger(format!(
            "dsp     tier {} ns/call: sad16 {:.1}, sad16_half_pel {:.1}, interp {:.1}, quant_inter {:.1}, dequant_inter {:.1}, fdct {:.1}, idct {:.1}; est. SAD share of encode {:.1}%",
            m4ps_dsp::active_tier().name(),
            d.sad16, d.sad16_half_pel, d.interp, d.quant_inter, d.dequant_inter, d.fdct, d.idct,
            sad_share * 100.0
        ));
    }

    // pool
    let [tasks, steals, parks, wakes] = l.pool;
    let steal_ratio = if tasks > 0 {
        steals as f64 / tasks as f64
    } else {
        0.0
    };
    report.metric("pool.tasks", "count", tasks as f64, 1);
    report.metric("pool.steals", "count", steals as f64, 1);
    report.metric("pool.steal_ratio", "ratio", steal_ratio, 1);
    report.metric("pool.parks", "count", parks as f64, 1);
    report.metric("pool.wakes", "count", wakes as f64, 1);
    report.ledger(format!(
        "pool    {tasks} tasks, {steals} steals ({:.1}%), {parks} parks, {wakes} wakes",
        steal_ratio * 100.0
    ));
    if let Some(s) = &l.sweep {
        let n = nproc();
        let overhead = s.decode_t1_ms - s.decode_seq_ms;
        let speedup = s.encode_ms[0][1] / s.encode_ms[1][1];
        report.metric("pool.overhead_ms", "ms", overhead, 3);
        report.metric("pool.speedup", "ratio", speedup, 3);
        report.metric("pool.grain_slice_ms", "ms", s.encode_ms[1][0], 3);
        report.metric("pool.grain_wavefront_ms", "ms", s.encode_ms[1][1], 3);
        report.metric("pool.grain_slice_t1_ms", "ms", s.encode_ms[0][0], 3);
        report.metric("pool.grain_wavefront_t1_ms", "ms", s.encode_ms[0][1], 3);
        report.ledger(format!(
            "pool    encode ms/frame (NullModel): threads=1 slice {:.2} wavefront {:.2}; threads={n} slice {:.2} wavefront {:.2}; speedup {speedup:.2}x",
            s.encode_ms[0][0], s.encode_ms[0][1], s.encode_ms[1][0], s.encode_ms[1][1]
        ));
        report.ledger(format!(
            "pool    decode ms/frame: sequential {:.3}, threads=1 {:.3} (pool overhead {overhead:+.3}), threads={n} {:.3}",
            s.decode_seq_ms, s.decode_t1_ms, s.decode_tn_ms
        ));
    }

    // serve
    let a = &l.serve;
    let busy = if a.span_ns > 0.0 {
        a.busy_ns / (a.span_ns * l.serve_drivers.max(1) as f64)
    } else {
        0.0
    };
    let serve_metrics = [
        (
            "serve.dispatch_wait_p50_ms",
            pct_ms(&a.dispatch_wait, 0.5),
            a.dispatch_wait.len(),
        ),
        (
            "serve.dispatch_wait_p99_ms",
            pct_ms(&a.dispatch_wait, 0.99),
            a.dispatch_wait.len(),
        ),
        (
            "serve.step_encode_p50_ms",
            pct_ms(&a.step_encode, 0.5),
            a.step_encode.len(),
        ),
        (
            "serve.step_encode_p99_ms",
            pct_ms(&a.step_encode, 0.99),
            a.step_encode.len(),
        ),
        (
            "serve.step_decode_p50_ms",
            pct_ms(&a.step_decode, 0.5),
            a.step_decode.len(),
        ),
        (
            "serve.step_decode_p99_ms",
            pct_ms(&a.step_decode, 0.99),
            a.step_decode.len(),
        ),
        ("serve.open_ms", pct_ms(&a.open, 0.5), a.open.len()),
        (
            "serve.gen_lag_p99_ms",
            pct_ms(&a.gen_lag, 0.99),
            a.gen_lag.len(),
        ),
    ];
    for (name, v, n) in serve_metrics {
        report.metric(name, "ms", v, n);
    }
    report.metric("serve.driver_busy_ratio", "ratio", busy, 1);
    report.ledger(format!(
        "serve   dispatch wait p50 {:.3} p99 {:.3} ms; step encode p50 {:.3} p99 {:.3} ms, decode p50 {:.3} p99 {:.3} ms; open {:.3} ms; gen lag p99 {:.3} ms; drivers busy {:.1}%; {} frames, {}",
        serve_metrics[0].1, serve_metrics[1].1, serve_metrics[2].1, serve_metrics[3].1,
        serve_metrics[4].1, serve_metrics[5].1, serve_metrics[6].1, serve_metrics[7].1,
        busy * 100.0, a.frame_latency.len(), clock(l.serve_on_clock)
    ));
    let supported = |n: usize| {
        highest_supported(n, &[0.5, 0.9, 0.99])
            .map_or("none".to_string(), |q| format!("p{}", q * 100.0))
    };
    report.ledger(format!(
        "serve   highest percentile with 10 samples beyond it: dispatch {}, encode steps {}, decode steps {}",
        supported(a.dispatch_wait.len()),
        supported(a.step_encode.len()),
        supported(a.step_decode.len())
    ));

    // obs
    let per_frame = if l.frames > 0.0 {
        l.events as f64 / l.frames
    } else {
        0.0
    };
    let overhead = if l.untraced_s > 0.0 {
        l.traced_s / l.untraced_s - 1.0
    } else {
        0.0
    };
    report.metric("obs.events_per_frame", "count", per_frame, l.events);
    report.metric("obs.events_dropped", "count", l.dropped as f64, 1);
    report.metric("obs.trace_overhead", "ratio", overhead, 1);
    report.check(
        "traced events_dropped is 0",
        l.dropped == 0,
        &format!("{} dropped", l.dropped),
    );
    report.ledger(format!(
        "obs     {per_frame:.1} events/frame, {} dropped; tracing overhead {:+.1}% (traced {:.3} s vs untraced {:.3} s)",
        l.dropped,
        overhead * 100.0,
        l.traced_s,
        l.untraced_s
    ));

    // vidgen
    report.metric("vidgen.frame_ms", "ms", l.vidgen_ms, 7);
    report.ledger(format!(
        "vidgen  Scene::frame {:.3} ms at the workload's geometry",
        l.vidgen_ms
    ));
}
