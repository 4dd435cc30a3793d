//! `serve_mix`: open-loop session arrivals at one fixed rate into one
//! `m4ps_serve::Service`, encode sessions alternating with decode-replay
//! sessions. Every latency is computed exactly from flight-recorder
//! events; none comes from a histogram snapshot.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use m4ps_codec::{CodecError, EncoderConfig};
use m4ps_memsim::{MemModel, NullModel, ParallelModel};
use m4ps_obs::{outcome, DumpEvent, EventKind};
use m4ps_serve::{Service, ServiceConfig, SessionMode, SessionSpec, SessionStatus};

use crate::host;
use crate::report::Report;
use crate::scene::digest_streams;
use crate::stats::Positions;

/// Session geometry: QCIF.
pub const WIDTH: usize = 176;
/// Session geometry: QCIF.
pub const HEIGHT: usize = 144;
/// Frames per session.
pub const FRAMES: usize = 8;
/// Distinct session contents cycled through the arrivals.
pub const CONTENTS: usize = 8;
/// Arrival rate, sessions per second. On the reference machine (2-core
/// Xeon, AVX2 tier, 2 pool threads and 2 drivers on a shared host) this
/// mix's closed-loop capacity was 180–200 sessions/s with the host at
/// its fast speed, and the host runs up to twice slower for minutes at a
/// time. 50/s is about a quarter of the fast capacity and half of the
/// slowest, so the service stays clear of saturation in every host
/// state. (At 100/s the slow state pushed it near saturation, and the
/// tail latencies of runs in it grew three- to fourfold. At 25/s the
/// pool's workers park between sessions, and wake-up latency, which
/// varies with the host, dominated the frame latency.)
pub const RATE: f64 = 50.0;

/// Sessions per burst: one second of arrivals, 400 frames. Every burst
/// runs the identical arrival schedule, so each frame and session
/// position is measured once per burst.
pub const BURST: usize = 50;

/// Reported but not benchmark metrics: a decode frame takes about 0.2
/// ms, mostly hand-off between threads, and a session's p90 includes
/// queueing behind other sessions; in slow periods of the reference host
/// both grew by 30–80% after normalization (spreads 0.25 and 0.45 across
/// ten runs).
pub const UNBOUNDED: [&str; 2] = ["serve_decode_frame_p50_ms", "serve_session_p90_ms"];

/// Fewest bursts an untraced run makes: the fewest measurements each
/// position's median rests on.
pub const MIN_BURSTS: usize = 5;
/// Flight-recorder ring capacity per thread. Rings grow on demand, so
/// the capacity bounds memory without reserving it.
pub const RING_CAPACITY: usize = 1 << 21;

/// The session codec configuration.
pub fn session_config() -> EncoderConfig {
    EncoderConfig::fast_test().with_slices(2)
}

/// Content seed `k` for run seed `seed`.
fn content_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (k as u64 + 1)
}

/// Session specs built in set-up.
pub struct Inputs {
    /// Encode specs, one per content.
    pub encode: Vec<SessionSpec>,
    /// The same contents pre-encoded for replay.
    pub decode: Vec<SessionSpec>,
    /// Digest of each content's pre-encoded streams: what every encode
    /// session of that content must produce.
    pub reference: Vec<u64>,
}

/// Builds the session specs for run seed `seed`.
///
/// # Errors
///
/// Propagates codec errors.
pub fn setup(seed: u64) -> Result<Inputs, CodecError> {
    Inputs::build(
        (0..CONTENTS)
            .map(|k| SessionSpec {
                width: WIDTH,
                height: HEIGHT,
                frames: FRAMES,
                objects: 0,
                layers: 1,
                seed: content_seed(seed, k),
                weight: 1,
                encoder: session_config(),
                mode: SessionMode::Encode,
            })
            .collect(),
    )
}

impl Inputs {
    /// Pre-encodes each encode spec for replay and records the digest
    /// every encode session of that content must reproduce.
    ///
    /// # Errors
    ///
    /// Propagates codec errors.
    pub fn build(specs: Vec<SessionSpec>) -> Result<Inputs, CodecError> {
        let mut inputs = Inputs {
            encode: Vec::new(),
            decode: Vec::new(),
            reference: Vec::new(),
        };
        for spec in specs {
            let dec = spec.clone().into_decode()?;
            let SessionMode::Decode(streams) = &dec.mode else {
                unreachable!("into_decode returns a decode spec");
            };
            inputs.reference.push(digest_streams(streams));
            inputs.encode.push(spec);
            inputs.decode.push(dec);
        }
        Ok(inputs)
    }
}

/// Everything the benchmark derives from one service run's events.
#[derive(Debug, Default, Clone)]
pub struct Analysis {
    /// `frame.end` latency payloads (ready → done), ns.
    pub frame_latency: Vec<f64>,
    /// `(session, frame index within the session)` of each
    /// `frame_latency` entry.
    pub frame_pos: Vec<(u32, u32)>,
    /// Due time → `session.close`, ns, per closed session.
    pub session_latency: Vec<f64>,
    /// Session of each `session_latency` entry.
    pub session_pos: Vec<u32>,
    /// `frame.dispatch` ready → dispatch waits, ns.
    pub dispatch_wait: Vec<f64>,
    /// `frame.start` → `frame.end` of encode sessions, ns.
    pub step_encode: Vec<f64>,
    /// `frame.start` → `frame.end` of decode sessions, ns.
    pub step_decode: Vec<f64>,
    /// `session.submit` → `session.open`, ns.
    pub open: Vec<f64>,
    /// Due time → `session.submit` (how late the arrival loop ran), ns.
    pub gen_lag: Vec<f64>,
    /// Sum of step durations, ns.
    pub busy_ns: f64,
    /// Anchor → last `session.close`, ns.
    pub span_ns: f64,
    /// Sessions closed with an outcome other than completed.
    pub not_completed: usize,
    /// Events of every kind.
    pub events: usize,
    /// Pool events by kind: queue, steal, park, wake.
    pub pool: [u64; 4],
}

/// Derives the serve metrics from recorder events.
///
/// `anchor_ns` is a `Recorder::now_ns()` reading taken just before the
/// open-loop run started; session `s` was due at `anchor_ns +
/// due_ns[s]`. `decode[s]` marks decode-replay sessions. Due-time
/// latency matters because the arrival loop stamps frame 0 ready only
/// after it has built the session, so `frame.end` latency hides any
/// arrival lag.
pub fn analyze(events: &[DumpEvent], anchor_ns: u64, due_ns: &[u64], decode: &[bool]) -> Analysis {
    let mut a = Analysis {
        events: events.len(),
        ..Analysis::default()
    };
    let due = |s: u32| anchor_ns + due_ns.get(s as usize).copied().unwrap_or(0);
    let mut started: BTreeMap<u32, u64> = BTreeMap::new();
    let mut submitted: BTreeMap<u32, u64> = BTreeMap::new();
    let mut ended: BTreeMap<u32, u32> = BTreeMap::new();
    let mut last_close = anchor_ns;
    for e in events {
        let ev = e.ev;
        let ns = |from: u64| ev.ts_ns.saturating_sub(from) as f64;
        match ev.kind {
            EventKind::SessionSubmit => {
                submitted.insert(ev.session, ev.ts_ns);
                a.gen_lag.push(ns(due(ev.session)));
            }
            EventKind::SessionOpen => {
                if let Some(&t) = submitted.get(&ev.session) {
                    a.open.push(ns(t));
                }
            }
            EventKind::SessionClose => {
                a.session_latency.push(ns(due(ev.session)));
                a.session_pos.push(ev.session);
                last_close = last_close.max(ev.ts_ns);
                if ev.a != outcome::COMPLETED {
                    a.not_completed += 1;
                }
            }
            EventKind::FrameDispatch => a.dispatch_wait.push(ev.b as f64),
            EventKind::FrameStart => {
                started.insert(ev.session, ev.ts_ns);
            }
            EventKind::FrameEnd => {
                a.frame_latency.push(ev.b as f64);
                let index = ended.entry(ev.session).or_insert(0);
                a.frame_pos.push((ev.session, *index));
                *index += 1;
                if let Some(t) = started.remove(&ev.session) {
                    let step = ns(t);
                    a.busy_ns += step;
                    if decode.get(ev.session as usize).copied().unwrap_or(false) {
                        a.step_decode.push(step);
                    } else {
                        a.step_encode.push(step);
                    }
                }
            }
            _ => {}
        }
    }
    a.span_ns = last_close.saturating_sub(anchor_ns) as f64;
    a.pool = pool_counts(events);
    a
}

/// Pool event counts: queue, steal, park, wake.
pub fn pool_counts(events: &[DumpEvent]) -> [u64; 4] {
    let mut c = [0u64; 4];
    for e in events {
        match e.ev.kind {
            EventKind::PoolQueue => c[0] += 1,
            EventKind::PoolSteal => c[1] += 1,
            EventKind::PoolPark => c[2] += 1,
            EventKind::PoolWake => c[3] += 1,
            _ => {}
        }
    }
    c
}

/// One open-loop run's results.
pub struct Run {
    /// Event-derived metrics.
    pub analysis: Analysis,
    /// Service threads and drivers.
    pub drivers: usize,
    /// Flight-recorder events displaced (must be 0).
    pub events_dropped: u64,
    /// The service's coarse-phase profile.
    pub profile: m4ps_obs::PhaseProfile,
}

/// Arrival plan: `(due offset, spec, is_decode)` for `n` sessions at
/// `rate`, encode and decode alternating, contents cycling.
pub fn plan(inputs: &Inputs, n: usize, rate: f64) -> Vec<(Duration, SessionSpec, bool)> {
    (0..n)
        .map(|i| {
            let k = (i / 2) % inputs.encode.len();
            let decode = i % 2 == 1;
            let spec = if decode {
                inputs.decode[k].clone()
            } else {
                inputs.encode[k].clone()
            };
            (Duration::from_secs_f64(i as f64 / rate), spec, decode)
        })
        .collect()
}

/// A service configured as the workload runs it: admission off,
/// `nproc` pool threads and `nproc` drivers, rings sized so no event is
/// dropped.
pub fn new_service() -> Service {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Service::new(ServiceConfig {
        threads: nproc,
        drivers: nproc,
        recorder_capacity: RING_CAPACITY,
        ..ServiceConfig::default()
    })
}

/// Runs `arrivals` open loop into `service` and checks every session's
/// output against the set-up references. Only events recorded after
/// this call's anchor are analyzed, so one service can run several
/// segments. `make_mem` builds each session's model.
pub fn run_open_loop<M, F>(
    service: &Service,
    inputs: &Inputs,
    arrivals: Vec<(Duration, SessionSpec, bool)>,
    make_mem: F,
    report: &mut Report,
) -> Run
where
    M: ParallelModel + MemModel + Send,
    F: Fn(usize, &SessionSpec) -> M + Sync,
{
    let due_ns: Vec<u64> = arrivals
        .iter()
        .map(|(d, _, _)| d.as_nanos() as u64)
        .collect();
    let decode: Vec<bool> = arrivals.iter().map(|(_, _, d)| *d).collect();
    let contents: Vec<(usize, bool)> = (0..arrivals.len())
        .map(|i| ((i / 2) % inputs.encode.len(), decode[i]))
        .collect();
    let specs: Vec<(Duration, SessionSpec)> =
        arrivals.into_iter().map(|(d, s, _)| (d, s)).collect();
    let sessions = specs.len();
    let anchor = service.recorder().now_ns();
    let result = service.run_open_loop(specs, make_mem, |_, _| {});
    let dump = service.recorder().snapshot();
    let events: Vec<_> = dump
        .events
        .into_iter()
        .filter(|e| e.ev.ts_ns >= anchor)
        .collect();
    let analysis = analyze(&events, anchor, &due_ns, &decode);

    // Output checks: every session completes, encode sessions reproduce
    // the pre-encoded streams of their content, decode sessions of one
    // content agree and never conceal.
    let mut failed = 0u64;
    let mut mismatched = Vec::new();
    let mut decode_stats: BTreeMap<usize, (u64, u64, u64)> = BTreeMap::new();
    for o in &result.outcomes {
        let (k, is_decode) = contents[o.id];
        match &o.status {
            SessionStatus::Completed { streams, stats, .. } => {
                if is_decode {
                    let key = (stats.vops, stats.totals.bits, stats.totals.inter_mbs);
                    let first = *decode_stats.entry(k).or_insert(key);
                    let frames = inputs.decode[k].frames as u64;
                    if first != key || stats.totals.concealed_mbs != 0 || stats.frames != frames {
                        mismatched.push(o.id);
                        failed += 1;
                    }
                } else if digest_streams(streams) != inputs.reference[k] {
                    mismatched.push(o.id);
                    failed += 1;
                }
            }
            _ => failed += 1,
        }
    }
    report.ops(sessions as u64, failed);
    report.check(
        "serve sessions complete",
        result.completed == sessions as u64 && analysis.not_completed == 0,
        &format!(
            "{} of {sessions} completed, {} rejected, {} shed, {} failed",
            result.completed, result.rejected, result.shed, result.failed
        ),
    );
    report.check(
        "serve session outputs match solo references",
        mismatched.is_empty(),
        &format!(
            "{} mismatched sessions {:?}",
            mismatched.len(),
            &mismatched[..mismatched.len().min(8)]
        ),
    );
    report.check(
        "serve events_dropped is 0",
        dump.events_dropped == 0,
        &format!(
            "{} dropped, {} recorded this segment",
            dump.events_dropped,
            events.len()
        ),
    );
    Run {
        analysis,
        drivers: service.pool().threads(),
        events_dropped: dump.events_dropped,
        profile: service.profiler().profile(),
    }
}

/// The untraced `serve_mix` stage: one service, fed open loop at
/// [`RATE`] in bursts of [`BURST`] sessions while the stage's cumulative
/// allotment lasts. Each frame and session position is reduced to its
/// median over the bursts, the percentiles are taken over the positions
/// (see [`Positions`]) and divided by the run's host slowdown. Frame
/// medians are reported per mode: decode steps cost about a seventh of
/// encode steps and the modes alternate, so a median over both would sit
/// on the edge between the two clusters.
pub struct Stage<'a> {
    inputs: &'a Inputs,
    service: Service,
    /// Cumulative `(allotted, spent)` seconds.
    time: (f64, f64),
    bursts: usize,
    /// Every frame position, and those of encode and of decode sessions.
    frames: Positions,
    by_mode: [Positions; 2],
    sessions: Positions,
}

/// Probe readings before each burst (a run has only a few bursts).
const PROBES_PER_BURST: usize = 5;

impl<'a> Stage<'a> {
    /// Starts the service.
    pub fn new(inputs: &'a Inputs) -> Self {
        Stage {
            inputs,
            service: new_service(),
            time: (0.0, 0.0),
            bursts: 0,
            frames: Positions::default(),
            by_mode: Default::default(),
            sessions: Positions::default(),
        }
    }

    /// Bursts while the cumulative allotment, grown by `budget`, lasts.
    pub fn round(&mut self, budget: Duration, report: &mut Report) {
        self.time.0 += budget.as_secs_f64();
        while self.time.1 < self.time.0 {
            self.burst(report);
        }
    }

    fn burst(&mut self, report: &mut Report) {
        let t = Instant::now();
        for _ in 0..PROBES_PER_BURST {
            host::sample(self.service.pool().threads());
        }
        let run = run_open_loop(
            &self.service,
            self.inputs,
            plan(self.inputs, BURST, RATE),
            |_, _| NullModel::new(),
            report,
        );
        let a = &run.analysis;
        // `plan` alternates the modes: odd sessions replay streams.
        for (ns, &(session, frame)) in a.frame_latency.iter().zip(&a.frame_pos) {
            let (s, f) = (session as usize, frame as usize);
            self.frames.push(s * FRAMES + f, ns * 1e-6);
            self.by_mode[s % 2].push(s / 2 * FRAMES + f, ns * 1e-6);
        }
        for (ns, &session) in a.session_latency.iter().zip(&a.session_pos) {
            self.sessions.push(session as usize, ns * 1e-6);
        }
        self.bursts += 1;
        self.time.1 += t.elapsed().as_secs_f64();
    }

    /// Tops up to [`MIN_BURSTS`] bursts, then reports the percentiles.
    pub fn finish(mut self, report: &mut Report) {
        while self.bursts < MIN_BURSTS {
            self.burst(report);
        }
        let (slowdown, _) = host::slowdown();
        let [enc, dec] = &self.by_mode;
        let metrics = [
            ("serve_encode_frame_p50_ms", enc.pct(0.5), enc.samples()),
            ("serve_decode_frame_p50_ms", dec.pct(0.5), dec.samples()),
            (
                "serve_frame_p90_ms",
                self.frames.pct(0.9),
                self.frames.samples(),
            ),
            (
                "serve_session_p90_ms",
                self.sessions.pct(0.9),
                self.sessions.samples(),
            ),
        ];
        report.check(
            "serve percentiles rest on at least 10 samples beyond them",
            metrics.iter().all(|m| m.1.is_some()),
            &format!(
                "{} frame and {} session positions, {} bursts",
                self.frames.len(),
                self.sessions.len(),
                self.sessions.repetitions()
            ),
        );
        for (name, v, n) in metrics {
            let v = v.unwrap_or(0.0);
            report.raw(name, "ms", v);
            if UNBOUNDED.contains(&name) {
                report.info(name, "ms", v / slowdown, n);
            } else {
                report.metric(name, "ms", v / slowdown, n);
            }
        }
    }
}
