//! `study_o2`: the `repro` path. `encode_study` then `decode_study` on
//! the simulated SGI O2 with the paper's configuration, over one PAL
//! rectangular VO and three shaped PAL VOs with two layers each. The
//! rates are normalized by the host probe read before each call (see
//! [`crate::host`]).

use std::time::{Duration, Instant};

use m4ps_codec::CodecError;
use m4ps_core::{decode_study, encode_study, prepare_streams, RunResult, StudyConfig, Workload};
use m4ps_memsim::{Counters, MachineSpec};
use m4ps_vidgen::{Resolution, Scene, SceneSpec};

use crate::host;
use crate::report::{DigestLedger, Report};
use crate::scene::{digest_counters, digest_streams};
use crate::stats::median;

/// Frames per study workload (IBBP: I B B P).
pub const FRAMES: usize = 4;

/// Fewest encode and decode repetitions an untraced run reports on.
pub const MIN_REPS: usize = 3;

/// Objects of the multi-object workload.
const OBJECTS: usize = 3;

/// Total object area, in pixels, that a content must have at its first
/// frame, and the relative tolerance. The cost of coding the shaped VOs
/// is close to proportional to their area (simulated loads per object
/// pixel varied by ±5% over eight contents), while the area itself
/// varied by a factor of 1.8 over those contents; a run seed therefore
/// picks its content among those near one area.
pub const AREA: (usize, f64) = (60_000, 0.04);

/// Total object area of the multi-object scene of `content` at frame 0.
pub fn object_area(content: u64) -> usize {
    let scene = Scene::new(SceneSpec {
        resolution: Resolution::PAL,
        objects: OBJECTS,
        seed: content,
    });
    (0..OBJECTS)
        .map(|vo| scene.alpha(0, vo).data.iter().filter(|&&a| a != 0).count())
        .sum()
}

/// The two study workloads for run seed `seed`: the first content seed
/// derived from it whose object area is within [`AREA`].
pub fn workloads(seed: u64) -> [Workload; 2] {
    let within = |c: &u64| {
        let area = object_area(*c) as f64;
        (area / AREA.0 as f64 - 1.0).abs() <= AREA.1
    };
    let content = (0u64..)
        .map(|j| (seed ^ j << 32).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x4d50_4547)
        .find(within)
        .unwrap_or(0x4d50_4547);
    [
        Workload {
            seed: content,
            ..Workload::single(Resolution::PAL, FRAMES)
        },
        Workload {
            seed: content,
            ..Workload::multi_object(Resolution::PAL, FRAMES, 2)
        },
    ]
}

/// The paper configuration: full search ±8, half-pel, IBBP, rate
/// control, prefetch, one slice.
pub fn config() -> StudyConfig {
    StudyConfig::paper()
}

/// Set-up output: the workloads and their `NullModel` reference streams.
pub struct Inputs {
    /// Single-VO and multi-object workloads.
    pub workloads: [Workload; 2],
    /// `NullModel` streams of each workload (decode input and the
    /// reference every simulated encode must reproduce).
    pub streams: [Vec<Vec<u8>>; 2],
}

/// Builds the study inputs.
///
/// # Errors
///
/// Propagates codec errors.
pub fn setup(seed: u64) -> Result<Inputs, CodecError> {
    let workloads = workloads(seed);
    let cfg = config();
    Ok(Inputs {
        streams: [
            prepare_streams(&workloads[0], &cfg)?,
            prepare_streams(&workloads[1], &cfg)?,
        ],
        workloads,
    })
}

/// Display frames a run result covers.
fn frames(r: &RunResult) -> u64 {
    r.session.frames
}

/// A repetition's results and the wall seconds of its calls.
pub type Rep = ([RunResult; 2], f64);

/// Runs `call` on both workloads, reading the host probe before each
/// call (on one thread: with one slice the study runs on one).
fn rep(mut call: impl FnMut(usize) -> Result<RunResult, CodecError>) -> Result<Rep, CodecError> {
    let mut secs = 0.0;
    let mut timed = |i| {
        host::sample(1);
        let t = Instant::now();
        let r = call(i);
        secs += t.elapsed().as_secs_f64();
        r
    };
    let (a, b) = (timed(0)?, timed(1)?);
    Ok(([a, b], secs))
}

/// One encode repetition: both workloads through `encode_study`.
///
/// # Errors
///
/// Propagates codec errors.
pub fn encode_rep(inputs: &Inputs) -> Result<Rep, CodecError> {
    let (o2, cfg) = (MachineSpec::o2(), config());
    rep(|i| encode_study(&o2, &inputs.workloads[i], &cfg))
}

/// One decode repetition: both workloads' streams through `decode_study`.
///
/// # Errors
///
/// Propagates codec errors.
pub fn decode_rep(inputs: &Inputs) -> Result<Rep, CodecError> {
    let o2 = MachineSpec::o2();
    rep(|i| decode_study(&o2, &inputs.workloads[i], &inputs.streams[i]))
}

/// Counters of both runs of a repetition.
fn counters(rs: &[RunResult; 2]) -> [Counters; 2] {
    [rs[0].metrics.counters, rs[1].metrics.counters]
}

/// Concealed macroblocks across a repetition (clean input: must be 0).
fn concealed(rs: &[RunResult; 2]) -> u64 {
    rs.iter().map(|r| r.session.totals.concealed_mbs).sum()
}

/// The untraced stage. Three quarters of its time go to encode
/// repetitions and the rest to decode repetitions: an O2 decode costs
/// about a twentieth of an encode, so even a quarter holds dozens of
/// decode repetitions, while an encode repetition lasts seconds. Rounds interleave with the other stages; a round runs
/// repetitions while the stage's cumulative time is below its cumulative
/// allotment, so a round may run none when an encode repetition (over a
/// second) outlasts its share. Each fps figure is the median over every
/// repetition of the run, with at least [`MIN_REPS`] of each, times the
/// host slowdown.
pub struct Stage<'a> {
    inputs: &'a Inputs,
    enc_fps: Vec<f64>,
    dec_fps: Vec<f64>,
    /// Cumulative `(allotted, spent)` seconds for encode and decode.
    enc_time: (f64, f64),
    dec_time: (f64, f64),
    first: Option<[RunResult; 2]>,
    dec_first: Option<[Counters; 2]>,
    enc_stable: bool,
    dec_stable: bool,
    vops_ok: bool,
    error: Option<String>,
}

impl<'a> Stage<'a> {
    /// A stage over `inputs`.
    pub fn new(inputs: &'a Inputs) -> Self {
        Stage {
            inputs,
            enc_fps: Vec::new(),
            dec_fps: Vec::new(),
            enc_time: (0.0, 0.0),
            dec_time: (0.0, 0.0),
            first: None,
            dec_first: None,
            enc_stable: true,
            dec_stable: true,
            vops_ok: true,
            error: None,
        }
    }

    /// Repetitions while the cumulative allotment, grown by `budget`,
    /// lasts.
    pub fn round(&mut self, budget: Duration, report: &mut Report) {
        self.enc_time.0 += budget.as_secs_f64() * 0.75;
        self.dec_time.0 += budget.as_secs_f64() * 0.25;
        while self.error.is_none() && self.enc_time.1 < self.enc_time.0 {
            self.encode(report);
        }
        while self.error.is_none() && self.dec_time.1 < self.dec_time.0 {
            self.decode(report);
        }
    }

    fn encode(&mut self, report: &mut Report) {
        match encode_rep(self.inputs) {
            Ok((rs, secs)) => {
                self.enc_time.1 += secs;
                report.ops(2, u64::from(concealed(&rs) > 0));
                self.enc_fps
                    .push((frames(&rs[0]) + frames(&rs[1])) as f64 / secs);
                match &self.first {
                    Some(f) => {
                        self.enc_stable &= counters(f) == counters(&rs)
                            && f[0].session == rs[0].session
                            && f[1].session == rs[1].session
                    }
                    None => self.first = Some(rs),
                }
            }
            Err(e) => {
                report.ops(2, 2);
                self.error = Some(format!("encode_study: {e:?}"));
            }
        }
    }

    fn decode(&mut self, report: &mut Report) {
        match decode_rep(self.inputs) {
            Ok((rs, secs)) => {
                self.dec_time.1 += secs;
                let bad = concealed(&rs);
                report.ops(2, u64::from(bad > 0));
                self.dec_fps
                    .push((frames(&rs[0]) + frames(&rs[1])) as f64 / secs);
                if let Some(f) = &self.first {
                    self.vops_ok &= f[0].session.vops == rs[0].session.vops
                        && f[1].session.vops == rs[1].session.vops
                        && bad == 0;
                }
                match &self.dec_first {
                    Some(c) => self.dec_stable &= *c == counters(&rs),
                    None => self.dec_first = Some(counters(&rs)),
                }
            }
            Err(e) => {
                report.ops(2, 2);
                self.error = Some(format!("decode_study: {e:?}"));
            }
        }
    }

    /// Tops up to [`MIN_REPS`] repetitions, then reports output checks
    /// and the fps medians.
    pub fn finish(mut self, ledger: &mut DigestLedger, report: &mut Report) {
        while self.error.is_none() && self.enc_fps.len() < MIN_REPS {
            self.encode(report);
        }
        while self.error.is_none() && self.dec_fps.len() < MIN_REPS {
            self.decode(report);
        }
        report.check(
            "study encode_study and decode_study succeed",
            self.error.is_none(),
            self.error.as_deref().unwrap_or("no codec error"),
        );
        report.check(
            "study encode counters identical across repetitions",
            self.enc_stable,
            &format!("{} repetitions", self.enc_fps.len()),
        );
        report.check(
            "study decode counters identical across repetitions",
            self.dec_stable,
            &format!("{} repetitions", self.dec_fps.len()),
        );
        report.check(
            "study decode yields every encoded VOP, none concealed",
            self.vops_ok,
            "vops match encode_study, concealed_mbs = 0",
        );
        for (i, name) in ["single", "multi"].iter().enumerate() {
            let (ok, detail) = ledger.observe(
                &format!("study.{name}.streams"),
                digest_streams(&self.inputs.streams[i]),
            );
            report.check("study streams repeat across runs", ok, &detail);
            if let (Some(f), Some(d)) = (&self.first, &self.dec_first) {
                let (ok, detail) = ledger.observe(
                    &format!("study.{name}.o2.encode.counters"),
                    digest_counters(&counters(f)[i]),
                );
                report.check("study O2 counters repeat across runs", ok, &detail);
                let (ok, detail) = ledger.observe(
                    &format!("study.{name}.o2.decode.counters"),
                    digest_counters(&d[i]),
                );
                report.check("study O2 decode counters repeat across runs", ok, &detail);
            }
        }
        let (slowdown, _) = host::slowdown();
        for (name, fps) in [
            ("study_encode_fps", &self.enc_fps),
            ("study_decode_fps", &self.dec_fps),
        ] {
            report.raw(name, "1/s", median(fps));
            report.metric(name, "1/s", median(fps) * slowdown, fps.len());
        }
    }
}
