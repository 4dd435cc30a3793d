//! Instrumented encode/decode runs: the machinery behind Tables 2–7 and
//! Figures 2–4.

use m4ps_codec::{
    CodecError, EncoderConfig, FrameView, SceneDecoder, SceneEncoder, SearchStrategy, SessionStats,
};
use m4ps_memsim::{
    AddressSpace, Counters, Hierarchy, MachineSpec, MemModel, MemoryMetrics, ParallelModel,
    RegionMisses,
};
use m4ps_obs::{Phase, PhaseProfile, Profiler};
use m4ps_vidgen::{Resolution, Scene, SceneSpec};

/// Environment override for flight-recorder export: when set, every
/// study run installs a [`m4ps_obs::Recorder`] and writes its event
/// dump (JSONL + Chrome trace) to this path at the end (a
/// [`StudyConfig::with_dump`] path takes precedence). This is the
/// study's only trace output.
pub const DUMP_ENV: &str = "M4PS_OBS_DUMP";

/// A workload specification in the paper's terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Frame dimensions (720×576 and 1024×768 in the paper).
    pub resolution: Resolution,
    /// Number of frames (30 in the paper).
    pub frames: usize,
    /// Number of visual objects: 0 = single rectangular VO, ≥1 =
    /// arbitrary-shape VOs (3 in the multi-object experiments).
    pub objects: usize,
    /// Layers (VOLs) per object: 1 or 2.
    pub layers: usize,
    /// Content seed.
    pub seed: u64,
}

impl Workload {
    /// The paper's single-object workload at `resolution`.
    pub fn single(resolution: Resolution, frames: usize) -> Self {
        Workload {
            resolution,
            frames,
            objects: 0,
            layers: 1,
            seed: 0x4d50_4547, // "MPEG"
        }
    }

    /// The paper's 3-VO workload at `resolution` with `layers` VOLs per
    /// object.
    pub fn multi_object(resolution: Resolution, frames: usize, layers: usize) -> Self {
        Workload {
            resolution,
            frames,
            objects: 3,
            layers,
            seed: 0x4d50_4547,
        }
    }

    /// Human-readable label ("3 VOs, 2 layers each").
    pub fn label(&self) -> String {
        match (self.objects, self.layers) {
            (0, _) => "1 VO, 1 layer".to_string(),
            (n, 1) => format!("{n} VOs, 1 layer each"),
            (n, l) => format!("{n} VOs, {l} layers each"),
        }
    }
}

/// Study-level knobs (kept apart from [`EncoderConfig`] so experiment
/// binaries can expose them as CLI flags).
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Codec configuration for every coder in the run.
    pub encoder: EncoderConfig,
    /// Worker threads for slice-parallel encoding; `0` resolves from the
    /// `M4PS_THREADS` environment override (falling back to the
    /// machine's available parallelism). A pure scheduling knob — the
    /// bitstream and the paper-band metrics are identical for every
    /// value (only [`EncoderConfig::slices`] changes the stream).
    pub threads: usize,
    /// When set, the study installs a flight recorder on its profiler
    /// and pool and writes the event dump (JSONL, plus a Chrome trace
    /// next to it — load it in `chrome://tracing` or Perfetto) here at
    /// the end. `None` falls back to the [`DUMP_ENV`] environment
    /// variable. A pure observability knob — output and metrics are
    /// unchanged. Analyze with `m4ps-obs`.
    pub dump: Option<String>,
    /// When set, the study encodes on this shared pool instead of
    /// spawning its own (overrides `threads`). This is how concurrent
    /// studies — the multi-session service, or callers running several
    /// `encode_study` calls from their own threads — share one set of
    /// parked workers. A pure scheduling knob: output is bit-identical.
    pub pool: Option<std::sync::Arc<m4ps_pool::WorkerPool>>,
}

impl PartialEq for StudyConfig {
    fn eq(&self, other: &Self) -> bool {
        self.encoder == other.encoder
            && self.threads == other.threads
            && self.dump == other.dump
            // Pools have identity, not value, semantics.
            && match (&self.pool, &other.pool) {
                (None, None) => true,
                (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl StudyConfig {
    /// The paper-reproduction configuration: full search ±8, half-pel,
    /// IBBP, 38400 bit/s rate control, software prefetch on.
    pub fn paper() -> Self {
        StudyConfig {
            encoder: EncoderConfig::paper(),
            threads: 0,
            dump: None,
            pool: None,
        }
    }

    /// A cheap configuration for unit tests.
    pub fn fast() -> Self {
        StudyConfig {
            encoder: EncoderConfig::fast_test(),
            threads: 0,
            dump: None,
            pool: None,
        }
    }

    /// Overrides the motion-search strategy (ablation benches).
    pub fn with_search(mut self, search: SearchStrategy, range: i16) -> Self {
        self.encoder.search = search;
        self.encoder.search_range = range;
        self
    }

    /// Overrides the slice count and worker thread count (parallel
    /// benches).
    pub fn with_parallel(mut self, slices: usize, threads: usize) -> Self {
        self.encoder.slices = slices;
        self.threads = threads;
        self
    }

    /// Writes a flight-recorder dump for the run (see
    /// [`StudyConfig::dump`]).
    pub fn with_dump(mut self, path: impl Into<String>) -> Self {
        self.dump = Some(path.into());
        self
    }

    /// Encodes on `pool` instead of spawning a study-private pool (see
    /// [`StudyConfig::pool`]).
    pub fn with_pool(mut self, pool: std::sync::Arc<m4ps_pool::WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }
}

/// Result of one instrumented run on one machine.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The machine simulated.
    pub machine: MachineSpec,
    /// Derived paper metrics.
    pub metrics: MemoryMetrics,
    /// Codec-level session statistics.
    pub session: SessionStats,
    /// Counter deltas accumulated inside the per-VOP windows
    /// (`VopCode()` / `DecodeVopCombMotionShapeTexture()`).
    pub vop_window: Counters,
    /// Simulated resident memory (bytes requested from the address
    /// space).
    pub resident_bytes: u64,
    /// Demand misses attributed to the codec's data structures (sorted
    /// by L1 misses, descending).
    pub region_misses: Vec<RegionMisses>,
    /// Per-phase counter attribution (SpeedShop/Perfex-style). The sum
    /// over all phases equals `metrics.counters` bit-for-bit.
    pub profile: PhaseProfile,
}

/// Drives the scene encoder over the workload under `mem`. The
/// `attach` hook runs after all codec buffers are allocated and before
/// any traffic, so a [`Hierarchy`] caller can wire up region
/// attribution.
fn drive_encode<M: ParallelModel>(
    space: &mut AddressSpace,
    mem: &mut M,
    workload: &Workload,
    config: &StudyConfig,
    recorder: Option<&m4ps_obs::Recorder>,
    attach: impl FnOnce(&AddressSpace, &mut M),
) -> Result<(Vec<Vec<u8>>, SessionStats, Counters), CodecError> {
    let scene = Scene::new(SceneSpec {
        resolution: workload.resolution,
        objects: workload.objects.max(1),
        seed: workload.seed,
    });
    let mut enc = SceneEncoder::new(
        space,
        workload.resolution.width,
        workload.resolution.height,
        workload.objects,
        workload.layers,
        config.encoder,
    )?;
    // One persistent work-stealing pool per study: workers spawn once
    // and park between VOPs, and every layer coder schedules onto the
    // same deques. A shared pool from the config takes precedence
    // (concurrent studies multiplex one set of workers); otherwise
    // `threads == 0` resolves from `M4PS_THREADS` / available
    // parallelism (a pure scheduling knob — output is bit-identical
    // for every value).
    let pool = match &config.pool {
        Some(shared) => shared.clone(),
        None => std::sync::Arc::new(if config.threads > 0 {
            m4ps_pool::WorkerPool::new(config.threads)
        } else {
            m4ps_pool::WorkerPool::from_env()
        }),
    };
    if let Some(rec) = recorder {
        pool.set_recorder(rec);
    }
    enc.set_pool(pool);
    attach(space, mem);
    let mut mask_storage: Vec<Vec<u8>> = Vec::new();
    for t in 0..workload.frames {
        let frame = scene.frame(t);
        mask_storage.clear();
        for vo in 0..workload.objects {
            mask_storage.push(scene.alpha(t, vo).data);
        }
        let masks: Vec<&[u8]> = mask_storage.iter().map(|m| m.as_slice()).collect();
        let view = FrameView {
            width: frame.resolution.width,
            height: frame.resolution.height,
            y: &frame.y,
            u: &frame.u,
            v: &frame.v,
        };
        enc.encode_frame(mem, &view, &masks)?;
    }
    let streams = enc.finish(mem)?;
    Ok((streams, enc.stats(), enc.vop_window()))
}

/// Runs the encoding experiment on `machine` and derives the paper's
/// metrics (one column of Tables 2/4/6).
///
/// # Errors
///
/// Propagates codec configuration/geometry errors.
pub fn encode_study(
    machine: &MachineSpec,
    workload: &Workload,
    config: &StudyConfig,
) -> Result<RunResult, CodecError> {
    let mut space = AddressSpace::new();
    let mut mem = if config.encoder.software_prefetch {
        Hierarchy::new(machine.clone())
    } else {
        Hierarchy::without_prefetch(machine.clone())
    };
    let dump = dump_path(config.dump.as_deref());
    let profiler = Profiler::new(false);
    let recorder = dump.as_ref().map(|_| m4ps_obs::Recorder::new(0));
    if let Some(rec) = &recorder {
        profiler.set_recorder(rec);
    }
    // Everything the run charges happens inside the root `run` span, so
    // the profile's per-phase sums partition the aggregate counters.
    let guard = profiler.attach();
    record_kernel_tier(&profiler);
    m4ps_obs::enter(Phase::Run, *mem.counters());
    let result = drive_encode(
        &mut space,
        &mut mem,
        workload,
        config,
        recorder.as_ref(),
        |sp, m| m.attach_regions(sp.regions()),
    );
    m4ps_obs::exit(Phase::Run, *mem.counters());
    drop(guard);
    let (_, session, vop_window) = result?;
    write_dump_if_requested(recorder.as_ref(), dump.as_deref());
    let metrics = MemoryMetrics::derive(mem.counters(), machine);
    Ok(RunResult {
        machine: machine.clone(),
        metrics,
        session,
        vop_window,
        resident_bytes: space.allocated_bytes(),
        region_misses: mem.region_misses(),
        profile: profiler.profile(),
    })
}

/// Records the resolved SIMD kernel tier on the session: a
/// `kernel_tier` gauge (numeric tier id) and, when a recorder is
/// installed, a `kernels=<tier>` recorder label, so exported dumps and
/// traces say which dispatch table produced them. Call with the session
/// attached (the gauge records through the thread-local session).
fn record_kernel_tier(profiler: &Profiler) {
    let tier = m4ps_dsp::active_tier();
    m4ps_obs::gauge_set(m4ps_obs::MetricId::KernelTier, tier as u64);
    if let Some(rec) = profiler.recorder() {
        rec.set_label(&format!("kernels={}", tier.name()));
    }
}

/// Resolves the effective flight-recorder dump path: explicit config,
/// then the [`DUMP_ENV`] environment override.
fn dump_path(explicit: Option<&str>) -> Option<String> {
    explicit
        .map(str::to_owned)
        .or_else(|| std::env::var(DUMP_ENV).ok().filter(|p| !p.is_empty()))
}

/// Best-effort flight-recorder export; a failed write must not fail
/// the study. Every study of a process that shares one dump path keeps
/// its own dump (see [`m4ps_obs::Dump::write_numbered`]).
fn write_dump_if_requested(recorder: Option<&m4ps_obs::Recorder>, path: Option<&str>) {
    if let (Some(rec), Some(path)) = (recorder, path) {
        if let Err(e) = rec.snapshot().write_numbered(path) {
            eprintln!("m4ps: could not write flight dump to {path}: {e}");
        }
    }
}

/// Produces the elementary streams for `workload` at full speed (no
/// memory simulation) so decode experiments can share them across
/// machines.
///
/// # Errors
///
/// Propagates codec errors.
pub fn prepare_streams(
    workload: &Workload,
    config: &StudyConfig,
) -> Result<Vec<Vec<u8>>, CodecError> {
    let mut space = AddressSpace::new();
    let mut mem = m4ps_memsim::NullModel::new();
    let (streams, _, _) = drive_encode(&mut space, &mut mem, workload, config, None, |_, _| {})?;
    Ok(streams)
}

/// Environment override for the decoder's slice-parallel worker count
/// (the decode-side sibling of `M4PS_THREADS`). Unset, empty, invalid
/// or `0` decodes multi-slice VOPs on one worker, inline on the caller.
/// Output is identical for every value; single-slice VOPs (the paper
/// configuration) never use a pool.
pub const DECODE_THREADS_ENV: &str = "M4PS_DECODE_THREADS";

/// Worker count from [`DECODE_THREADS_ENV`]; `0` means one worker on
/// the caller.
fn decode_threads_from_env() -> usize {
    std::env::var(DECODE_THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Runs the decoding experiment on `machine` over pre-encoded
/// `streams` (one column of Tables 3/5/7). Decode parallelism comes
/// from [`DECODE_THREADS_ENV`]; use [`decode_study_with`] to pass an
/// explicit thread count or share a pool across studies.
///
/// # Errors
///
/// Propagates codec errors.
pub fn decode_study(
    machine: &MachineSpec,
    workload: &Workload,
    streams: &[Vec<u8>],
) -> Result<RunResult, CodecError> {
    decode_study_with(machine, workload, streams, &StudyConfig::fast())
}

/// [`decode_study`] with an explicit [`StudyConfig`]: a shared
/// `config.pool` takes precedence, then `config.threads`, then the
/// [`DECODE_THREADS_ENV`] override; all zero/unset means one worker on
/// the caller. Like the encoder this is a pure scheduling knob —
/// reconstructions, session stats and counters are identical for every
/// value.
///
/// # Errors
///
/// Propagates codec errors.
pub fn decode_study_with(
    machine: &MachineSpec,
    workload: &Workload,
    streams: &[Vec<u8>],
    config: &StudyConfig,
) -> Result<RunResult, CodecError> {
    let mut space = AddressSpace::new();
    let mut mem = Hierarchy::new(machine.clone());
    let dump = dump_path(config.dump.as_deref());
    let profiler = Profiler::new(false);
    let recorder = dump.as_ref().map(|_| m4ps_obs::Recorder::new(0));
    if let Some(rec) = &recorder {
        profiler.set_recorder(rec);
    }
    let pool = match &config.pool {
        Some(shared) => Some(shared.clone()),
        None => {
            let threads = if config.threads > 0 {
                config.threads
            } else {
                decode_threads_from_env()
            };
            (threads > 0).then(|| std::sync::Arc::new(m4ps_pool::WorkerPool::new(threads)))
        }
    };
    let guard = profiler.attach();
    record_kernel_tier(&profiler);
    m4ps_obs::enter(Phase::Run, *mem.counters());
    let result = (|| -> Result<SceneDecoder, CodecError> {
        let mut dec = SceneDecoder::new(&mut space, &mut mem, streams, workload.layers)?;
        if let Some(pool) = pool {
            if let Some(rec) = &recorder {
                pool.set_recorder(rec);
            }
            dec.set_pool(pool);
        }
        mem.attach_regions(space.regions());
        let _ = dec.decode_all(&mut mem, streams)?;
        Ok(dec)
    })();
    m4ps_obs::exit(Phase::Run, *mem.counters());
    drop(guard);
    let dec = result?;
    write_dump_if_requested(recorder.as_ref(), dump.as_deref());
    let metrics = MemoryMetrics::derive(mem.counters(), machine);
    Ok(RunResult {
        machine: machine.clone(),
        metrics,
        session: dec.stats(),
        vop_window: dec.vop_window(),
        resident_bytes: space.allocated_bytes(),
        region_misses: mem.region_misses(),
        profile: profiler.profile(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        Workload {
            resolution: Resolution::QCIF,
            frames: 3,
            objects: 0,
            layers: 1,
            seed: 5,
        }
    }

    #[test]
    fn encode_study_produces_sane_metrics() {
        let run = encode_study(&MachineSpec::o2(), &tiny_workload(), &StudyConfig::fast()).unwrap();
        let m = &run.metrics;
        assert!(m.counters.loads > 100_000);
        assert!(m.l1_miss_rate > 0.0 && m.l1_miss_rate < 0.05);
        assert!(m.l1_line_reuse > 20.0);
        assert!(m.exec_seconds > 0.0);
        assert_eq!(run.session.frames, 3);
        assert!(run.resident_bytes > 0);
        assert!(run.vop_window.loads > 0);
        // The VOP windows are a subset of the whole program.
        assert!(run.vop_window.loads <= m.counters.loads);
        // Miss attribution: every tag accounted, totals bounded by the
        // counter totals, and the reference frames must dominate.
        let attributed: u64 = run.region_misses.iter().map(|r| r.l1_misses).sum();
        assert!(attributed <= m.counters.l1_misses);
        assert!(
            attributed * 10 >= m.counters.l1_misses * 9,
            "attribution lost misses"
        );
        let top = &run.region_misses[0];
        assert!(
            top.tag.contains("reference") || top.tag.contains("input"),
            "unexpected top misser {:?}",
            top
        );
    }

    #[test]
    fn decode_study_runs_over_shared_streams() {
        let w = tiny_workload();
        let cfg = StudyConfig::fast();
        let streams = prepare_streams(&w, &cfg).unwrap();
        let a = decode_study(&MachineSpec::o2(), &w, &streams).unwrap();
        let b = decode_study(&MachineSpec::onyx2(), &w, &streams).unwrap();
        assert_eq!(a.session.vops, 3);
        assert_eq!(b.session.vops, 3);
        // Same reference stream, bigger L2 → no more L2 misses.
        assert!(b.metrics.counters.l2_misses <= a.metrics.counters.l2_misses);
        // Identical architectural work on both machines.
        assert_eq!(a.metrics.counters.loads, b.metrics.counters.loads);
    }

    #[test]
    fn parallel_decode_study_matches_sequential_session() {
        // Multi-slice streams decoded on the pool: same VOPs, same
        // decoded stats, same counters — and the pooled counters are
        // deterministic run to run.
        let w = tiny_workload();
        let cfg = StudyConfig::fast().with_parallel(3, 2);
        let streams = prepare_streams(&w, &cfg).unwrap();
        let seq =
            decode_study_with(&MachineSpec::o2(), &w, &streams, &StudyConfig::fast()).unwrap();
        let par = decode_study_with(&MachineSpec::o2(), &w, &streams, &cfg).unwrap();
        assert_eq!(par.session.vops, seq.session.vops);
        assert_eq!(par.session.totals, seq.session.totals);
        assert_eq!(par.metrics.counters, seq.metrics.counters);
        let again = decode_study_with(&MachineSpec::o2(), &w, &streams, &cfg).unwrap();
        assert_eq!(par.metrics.counters, again.metrics.counters);
        // A shared pool works too and survives for the next study.
        let pool = std::sync::Arc::new(m4ps_pool::WorkerPool::new(4));
        let shared_cfg = StudyConfig::fast().with_parallel(3, 0).with_pool(pool);
        let shared = decode_study_with(&MachineSpec::o2(), &w, &streams, &shared_cfg).unwrap();
        assert_eq!(shared.session.totals, seq.session.totals);
        let shared2 = decode_study_with(&MachineSpec::o2(), &w, &streams, &shared_cfg).unwrap();
        assert_eq!(shared.metrics.counters, shared2.metrics.counters);
    }

    #[test]
    fn multi_object_workload_runs() {
        let w = Workload {
            resolution: Resolution::QCIF,
            frames: 2,
            objects: 3,
            layers: 1,
            seed: 5,
        };
        let run = encode_study(&MachineSpec::onyx_vtx(), &w, &StudyConfig::fast()).unwrap();
        assert_eq!(run.session.vops, 6);
        assert!(run.session.totals.transparent_mbs > 0);
    }

    #[test]
    fn two_layer_workload_runs() {
        let w = Workload {
            resolution: Resolution::QCIF,
            frames: 4,
            objects: 1,
            layers: 2,
            seed: 5,
        };
        let cfg = StudyConfig::fast();
        let run = encode_study(&MachineSpec::o2(), &w, &cfg).unwrap();
        assert_eq!(run.session.vops, 4);
        let streams = prepare_streams(&w, &cfg).unwrap();
        assert_eq!(streams.len(), 2);
        let dec = decode_study(&MachineSpec::o2(), &w, &streams).unwrap();
        assert_eq!(dec.session.vops, 4);
    }

    #[test]
    fn shared_pool_study_matches_private_pool() {
        let w = tiny_workload();
        let solo = encode_study(&MachineSpec::o2(), &w, &StudyConfig::fast()).unwrap();
        let pool = std::sync::Arc::new(m4ps_pool::WorkerPool::new(3));
        let cfg = StudyConfig::fast().with_pool(pool);
        let shared = encode_study(&MachineSpec::o2(), &w, &cfg).unwrap();
        assert_eq!(solo.metrics.counters, shared.metrics.counters);
        assert_eq!(solo.session.bytes, shared.session.bytes);
        // The shared pool survives the study and serves the next one.
        let again = encode_study(&MachineSpec::o2(), &w, &cfg).unwrap();
        assert_eq!(solo.metrics.counters, again.metrics.counters);
    }

    #[test]
    fn workload_labels_match_paper_wording() {
        assert_eq!(
            Workload::single(Resolution::PAL, 30).label(),
            "1 VO, 1 layer"
        );
        assert_eq!(
            Workload::multi_object(Resolution::PAL, 30, 1).label(),
            "3 VOs, 1 layer each"
        );
        assert_eq!(
            Workload::multi_object(Resolution::XGA, 30, 2).label(),
            "3 VOs, 2 layers each"
        );
    }

    #[test]
    fn resident_memory_grows_with_objects_and_layers() {
        let cfg = StudyConfig::fast();
        let base = encode_study(&MachineSpec::o2(), &tiny_workload(), &cfg)
            .unwrap()
            .resident_bytes;
        let multi = encode_study(
            &MachineSpec::o2(),
            &Workload {
                objects: 3,
                ..tiny_workload()
            },
            &cfg,
        )
        .unwrap()
        .resident_bytes;
        let layered = encode_study(
            &MachineSpec::o2(),
            &Workload {
                objects: 3,
                layers: 2,
                ..tiny_workload()
            },
            &cfg,
        )
        .unwrap()
        .resident_bytes;
        assert!(multi > base);
        assert!(layered > multi);
    }
}
