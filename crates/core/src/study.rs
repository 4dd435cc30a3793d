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
    let mem = if config.encoder.software_prefetch {
        Hierarchy::new(machine.clone())
    } else {
        Hierarchy::without_prefetch(machine.clone())
    };
    instrumented_run(mem, config, |space, mem, recorder| {
        let (_, session, vop_window) =
            drive_encode(space, mem, workload, config, recorder, |sp, m| {
                m.attach_regions(sp.regions())
            })?;
        Ok((session, vop_window))
    })
}

/// Runs `body` as one instrumented study on `mem` and derives the
/// paper's metrics. The body returns the session statistics and the
/// VOP-window counters; everything it charges happens inside the root
/// `run` span, so the profile's per-phase sums partition the aggregate
/// counters. A dump path (the config's, else [`DUMP_ENV`]) installs a
/// flight recorder whose dump is written at the end, best effort: a
/// failed write does not fail the study, and studies sharing a path
/// each keep their own dump ([`m4ps_obs::Dump::write_numbered`]).
fn instrumented_run(
    mut mem: Hierarchy,
    config: &StudyConfig,
    body: impl FnOnce(
        &mut AddressSpace,
        &mut Hierarchy,
        Option<&m4ps_obs::Recorder>,
    ) -> Result<(SessionStats, Counters), CodecError>,
) -> Result<RunResult, CodecError> {
    let mut space = AddressSpace::new();
    let dump = config
        .dump
        .clone()
        .or_else(|| std::env::var(DUMP_ENV).ok().filter(|p| !p.is_empty()));
    let profiler = Profiler::new(false);
    let recorder = dump.as_ref().map(|_| m4ps_obs::Recorder::new(0));
    if let Some(rec) = &recorder {
        profiler.set_recorder(rec);
    }
    let guard = profiler.attach();
    // The resolved kernel tier goes on the session as a gauge and on the
    // recorder as its label, so dumps and traces say which dispatch
    // table produced them.
    let tier = m4ps_dsp::active_tier();
    m4ps_obs::gauge_set(m4ps_obs::MetricId::KernelTier, tier as u64);
    if let Some(rec) = &recorder {
        rec.set_label(&format!("kernels={}", tier.name()));
    }
    m4ps_obs::enter(Phase::Run, *mem.counters());
    let result = body(&mut space, &mut mem, recorder.as_ref());
    m4ps_obs::exit(Phase::Run, *mem.counters());
    drop(guard);
    let (session, vop_window) = result?;
    if let (Some(rec), Some(path)) = (&recorder, &dump) {
        if let Err(e) = rec.snapshot().write_numbered(path) {
            eprintln!("m4ps: could not write flight dump to {path}: {e}");
        }
    }
    let machine = mem.machine().clone();
    let metrics = MemoryMetrics::derive(mem.counters(), &machine);
    Ok(RunResult {
        machine,
        metrics,
        session,
        vop_window,
        resident_bytes: space.allocated_bytes(),
        region_misses: mem.region_misses(),
        profile: profiler.profile(),
    })
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

/// Runs the decoding experiment on `machine` over pre-encoded
/// `streams` (one column of Tables 3/5/7), on the caller; use
/// [`decode_study_with`] to pass a thread count or share a pool across
/// studies.
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
/// `config.pool` takes precedence, then `config.threads`; zero means
/// one worker on the caller. Like the encoder this is a pure scheduling
/// knob — reconstructions, session stats and counters are identical
/// for every value (single-slice VOPs, the paper configuration, never
/// use a pool).
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
    let pool = match &config.pool {
        Some(shared) => Some(shared.clone()),
        None => (config.threads > 0)
            .then(|| std::sync::Arc::new(m4ps_pool::WorkerPool::new(config.threads))),
    };
    instrumented_run(
        Hierarchy::new(machine.clone()),
        config,
        |space, mem, recorder| {
            let mut dec = SceneDecoder::new(space, mem, streams, workload.layers)?;
            if let Some(pool) = &pool {
                if let Some(rec) = recorder {
                    pool.set_recorder(rec);
                }
                dec.set_pool(pool.clone());
            }
            mem.attach_regions(space.regions());
            let _ = dec.decode_all(mem, streams)?;
            Ok((dec.stats(), dec.vop_window()))
        },
    )
}

/// One `repro` invocation's memo of study cells: every experiment reads
/// its runs from here, so each distinct (machine, workload, config)
/// cell is simulated once however many tables and figures print it.
///
/// A cell's key is the full [`MachineSpec`], the [`Workload`] and the
/// full [`EncoderConfig`] — never a column label, which two distinct
/// machines may share. [`StudyConfig::threads`], `pool` and `dump` are
/// not part of it: output is bit-identical across them, and the first
/// request's values are the ones used. Decode cells take their streams
/// from a memo keyed by (workload, encoder config) whose only producer
/// is [`prepare_streams`]. A linear scan is enough for the few dozen
/// cells a `repro` run holds.
#[derive(Debug, Default)]
pub struct Cells {
    encodes: Vec<(CellKey, RunResult)>,
    decodes: Vec<(CellKey, RunResult)>,
    streams: Vec<((Workload, EncoderConfig), Streams)>,
}

/// The elementary streams [`prepare_streams`] returns.
type Streams = Vec<Vec<u8>>;

/// A cell's key: machine, workload and encoder config.
type CellKey = (MachineSpec, Workload, EncoderConfig);

impl Cells {
    /// [`encode_study`] of the cell, simulated on the first request
    /// only.
    ///
    /// # Errors
    ///
    /// Propagates codec errors.
    pub fn encode(
        &mut self,
        machine: &MachineSpec,
        workload: &Workload,
        config: &StudyConfig,
    ) -> Result<RunResult, CodecError> {
        let key = (machine.clone(), *workload, config.encoder);
        memo(&mut self.encodes, key, || {
            encode_study(machine, workload, config)
        })
        .cloned()
    }

    /// [`decode_study_with`] of the cell over the streams
    /// [`prepare_streams`] produces for `workload` and
    /// `config.encoder`; both are computed on the first request only.
    ///
    /// # Errors
    ///
    /// Propagates codec errors.
    pub fn decode(
        &mut self,
        machine: &MachineSpec,
        workload: &Workload,
        config: &StudyConfig,
    ) -> Result<RunResult, CodecError> {
        let key = (machine.clone(), *workload, config.encoder);
        let Cells {
            decodes, streams, ..
        } = self;
        memo(decodes, key, || {
            let streams = memo(streams, (*workload, config.encoder), || {
                prepare_streams(workload, config)
            })?;
            decode_study_with(machine, workload, streams, config)
        })
        .cloned()
    }
}

/// The value memoized under `key`, made by `make` if absent.
fn memo<K: PartialEq, V>(
    memo: &mut Vec<(K, V)>,
    key: K,
    make: impl FnOnce() -> Result<V, CodecError>,
) -> Result<&V, CodecError> {
    let i = match memo.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            memo.push((key, make()?));
            memo.len() - 1
        }
    };
    Ok(&memo[i].1)
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
    fn repeated_cell_requests_do_not_simulate_again() {
        // Every simulation writes a flight dump; a second one to the
        // same path would write `<stem>.<k>.jsonl`, so the dumps on disk
        // count the simulations.
        let path =
            std::env::temp_dir().join(format!("m4ps_study_cells_{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let (w, cfg) = (tiny_workload(), StudyConfig::fast().with_dump(&path));
        let mut cells = Cells::default();
        let enc = cells.encode(&MachineSpec::o2(), &w, &cfg).unwrap();
        let again = cells.encode(&MachineSpec::o2(), &w, &cfg).unwrap();
        assert_eq!(enc.metrics.counters, again.metrics.counters);
        let dec = cells.decode(&MachineSpec::o2(), &w, &cfg).unwrap();
        let again = cells.decode(&MachineSpec::o2(), &w, &cfg).unwrap();
        assert_eq!(dec.metrics.counters, again.metrics.counters);
        // A new machine is a new cell over the same streams.
        let onyx2 = cells.decode(&MachineSpec::onyx2(), &w, &cfg).unwrap();
        assert_eq!(onyx2.machine, MachineSpec::onyx2());
        let dumps: Vec<bool> = (0..4)
            .map(|k| {
                let dump = m4ps_obs::Dump::repeat_path(&path, k);
                let written = std::path::Path::new(&dump).exists();
                std::fs::remove_file(&dump).ok();
                std::fs::remove_file(m4ps_obs::Dump::trace_path(&dump)).ok();
                written
            })
            .collect();
        assert_eq!(dumps, [true, true, true, false], "one dump per cell");
        assert_eq!(
            (
                cells.encodes.len(),
                cells.decodes.len(),
                cells.streams.len()
            ),
            (1, 2, 1)
        );
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
