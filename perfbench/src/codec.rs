//! `codec_null`: the real codec's frame latency with the memory model
//! bypassed. PAL single VOs with the paper's search, an IPPP GOP (each
//! `encode_frame` call yields exactly one VOP), four slices, `NullModel`,
//! and one `WorkerPool` of `nproc` workers shared by encoder and decoder.
//! A pass codes one GOP of each of several scene contents, so a run's
//! percentiles average over content rather than follow one scene. The
//! timings are normalized by the host probe read before each clip (see
//! [`crate::host`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use m4ps_codec::{CodecError, EncoderConfig, FrameView, GopStructure, VideoObjectCoder};
use m4ps_memsim::{AddressSpace, NullModel};
use m4ps_pool::WorkerPool;
use m4ps_vidgen::{Resolution, Scene, SceneSpec};

use crate::host;
use crate::report::{DigestLedger, Report};
use crate::scene::{decode_vops, digest_streams, encode, Clip};
use crate::stats::Positions;

/// Frames per content: one GOP, an I-VOP then five P-VOPs. I-VOPs are a
/// sixth of the samples, so p90 falls inside a cluster (I-VOP decode,
/// P-VOP encode) instead of on the edge between them.
pub const FRAMES: usize = 6;

/// Scene contents per pass.
pub const CONTENTS: usize = 4;

/// Reported but not a benchmark metric: a P-VOP decode takes about half
/// a millisecond, mostly pool dispatch of four slices, and in slow
/// periods of the reference host it grew by 40% after normalization
/// (spread 0.30 across ten runs).
pub const UNBOUNDED: &str = "decode_frame_p50_ms";

/// Fewest passes an untraced run makes: each of the `CONTENTS × FRAMES`
/// frame positions is then measured at least this often, and the two
/// positions beyond p90 hold at least ten measurements.
pub const MIN_PASSES: usize = 5;

/// The codec configuration: the paper's search (full ±8, half-pel) and
/// rate control, IPPP with a six-frame GOP, four slices.
pub fn config() -> EncoderConfig {
    EncoderConfig {
        gop: GopStructure {
            intra_period: FRAMES,
            b_frames: 0,
        },
        ..EncoderConfig::paper().with_slices(4)
    }
}

/// Set-up: one clip per content. The contents are a fixed family of
/// scenes and the run seed picks which stretch of each scene is coded,
/// so every seed codes different frames of statistically alike content
/// (object sizes and speeds are drawn per scene, and dominate the cost).
pub fn setup(seed: u64) -> Vec<Clip> {
    let first = (seed % 50) as usize * 3;
    (0..CONTENTS as u64)
        .map(|k| {
            let scene = Scene::new(SceneSpec {
                resolution: Resolution::PAL,
                objects: 1,
                seed: 0x636f_6465_635f_6e75 ^ k,
            });
            Clip {
                resolution: Resolution::PAL,
                objects: 0,
                layers: 1,
                frames: (first..first + FRAMES).map(|t| scene.frame(t)).collect(),
                masks: vec![Vec::new(); FRAMES],
            }
        })
        .collect()
}

/// Result of one pass over a clip: encode then decode.
pub struct Pass {
    /// Stream digest.
    pub digest: u64,
    /// Per-call encode times, ns.
    pub encode_ns: Vec<u64>,
    /// Per-call decode times, ns.
    pub decode_ns: Vec<u64>,
    /// Encoder statistics.
    pub stats: m4ps_codec::SessionStats,
    /// Concealed macroblocks on decode (clean input: must be 0).
    pub concealed: u64,
    /// The elementary stream.
    pub stream: Vec<u8>,
}

/// Encodes the clip on `pool`, then decodes the stream just produced on
/// the same pool, timing every call.
///
/// # Errors
///
/// Propagates codec errors.
pub fn pass(clip: &Clip, pool: &Arc<WorkerPool>) -> Result<Pass, CodecError> {
    let mut mem = NullModel::new();
    let enc = encode(&mut mem, clip, config(), pool, None, |_, _| {})?;
    let stream = enc.streams.into_iter().next().unwrap_or_default();
    let (vops, decode_ns) = decode_vops(&mut mem, &stream, Some(pool), false)?;
    Ok(Pass {
        digest: digest_streams(std::slice::from_ref(&stream)),
        encode_ns: enc.frame_ns,
        decode_ns,
        stats: enc.stats,
        concealed: vops.iter().map(|v| v.stats.concealed_mbs).sum(),
        stream,
    })
}

/// Checks that the decoder reconstructs exactly what the encoder
/// reconstructed: a `VideoObjectCoder` keeping its reconstructions must
/// emit the same stream as the timed `SceneEncoder`, and the decoder's
/// planes must equal the encoder's VOP for VOP.
fn check_reconstruction(clip: &Clip, pool: &Arc<WorkerPool>, stream: &[u8], report: &mut Report) {
    let result = (|| -> Result<(bool, bool, usize), CodecError> {
        let mut mem = NullModel::new();
        let mut space = AddressSpace::new();
        let res = clip.resolution;
        let mut coder = VideoObjectCoder::new(&mut space, res.width, res.height, config())?;
        coder.set_pool(pool.clone());
        coder.set_keep_recon(true);
        let mut bytes = coder.header_bytes();
        let mut recons = Vec::new();
        for f in &clip.frames {
            let view = FrameView {
                width: res.width,
                height: res.height,
                y: &f.y,
                u: &f.u,
                v: &f.v,
            };
            for vop in coder.encode_frame(&mut mem, &view, None)? {
                bytes.extend_from_slice(&vop.bytes);
                recons.push(vop.recon);
            }
        }
        for vop in coder.flush(&mut mem)? {
            bytes.extend_from_slice(&vop.bytes);
            recons.push(vop.recon);
        }
        let (vops, _) = decode_vops(&mut mem, &bytes, Some(pool), true)?;
        let same_recon = vops.len() == recons.len()
            && vops
                .iter()
                .zip(&recons)
                .all(|(d, e)| d.planes.is_some() && d.planes == *e);
        Ok((bytes == stream, same_recon, vops.len()))
    })();
    match result {
        Ok((same_stream, same_recon, n)) => {
            report.check(
                "codec VideoObjectCoder stream equals SceneEncoder stream",
                same_stream,
                &format!("{} bytes", stream.len()),
            );
            report.check(
                "codec decoded reconstructions equal the encoder's",
                same_recon,
                &format!("{n} VOPs compared plane by plane"),
            );
        }
        Err(e) => report.check("codec reconstruction check runs", false, &format!("{e:?}")),
    }
}

/// The untraced stage: each round makes passes over every content while
/// its budget lasts (at least one); rounds interleave with the other
/// stages. Each frame position's calls are reduced to their median over
/// the run, the percentiles are taken over the positions (see
/// [`Positions`]), and divided by the host slowdown the probe read
/// before each clip.
pub struct Stage<'a> {
    clips: &'a [Clip],
    pool: &'a Arc<WorkerPool>,
    enc: Positions,
    dec: Positions,
    first: Vec<(u64, Vec<u8>)>,
    stable: bool,
    passes: usize,
    error: Option<String>,
}

impl<'a> Stage<'a> {
    /// A stage over `clips` on `pool`.
    pub fn new(clips: &'a [Clip], pool: &'a Arc<WorkerPool>) -> Self {
        Stage {
            clips,
            pool,
            enc: Positions::default(),
            dec: Positions::default(),
            first: Vec::new(),
            stable: true,
            passes: 0,
            error: None,
        }
    }

    /// Passes over every content while `budget` lasts.
    pub fn round(&mut self, budget: Duration, report: &mut Report) {
        let t = Instant::now();
        let mut passes = 0;
        while self.error.is_none() && (passes < 1 || t.elapsed() < budget) {
            passes += 1;
            self.pass(report);
        }
        self.passes += passes;
    }

    /// One pass over every content.
    fn pass(&mut self, report: &mut Report) {
        for (k, clip) in self.clips.iter().enumerate() {
            host::sample(self.pool.threads());
            match pass(clip, self.pool) {
                Ok(p) => {
                    let bad = u64::from(p.concealed > 0 || p.decode_ns.len() != FRAMES);
                    report.ops(2 * FRAMES as u64, bad * FRAMES as u64);
                    for (i, ns) in p.encode_ns.iter().enumerate() {
                        self.enc.push(k * FRAMES + i, *ns as f64 * 1e-6);
                    }
                    for (i, ns) in p.decode_ns.iter().enumerate() {
                        self.dec.push(k * FRAMES + i, *ns as f64 * 1e-6);
                    }
                    match self.first.get(k) {
                        Some((d, _)) => self.stable &= *d == p.digest,
                        None => self.first.push((p.digest, p.stream)),
                    }
                }
                Err(e) => {
                    report.ops(1, 1);
                    self.error = Some(format!("{e:?}"));
                    return;
                }
            }
        }
    }

    /// Tops up to [`MIN_PASSES`] passes, then reports output checks and
    /// the percentiles.
    pub fn finish(mut self, ledger: &mut DigestLedger, report: &mut Report) {
        while self.error.is_none() && self.passes < MIN_PASSES {
            self.passes += 1;
            self.pass(report);
        }
        report.check(
            "codec passes succeed",
            self.error.is_none(),
            self.error.as_deref().unwrap_or("no codec error"),
        );
        report.check(
            "codec streams identical across passes",
            self.stable,
            &format!("{} passes over {} contents", self.passes, self.clips.len()),
        );
        for (k, (digest, _)) in self.first.iter().enumerate() {
            let (ok, detail) = ledger.observe(&format!("codec.stream.{k}"), *digest);
            report.check("codec streams repeat across runs", ok, &detail);
        }
        if let (Some(clip), Some((_, stream))) = (self.clips.first(), self.first.first()) {
            check_reconstruction(clip, self.pool, stream, report);
        }
        let (slowdown, _) = host::slowdown();
        for (name, s, q) in [
            ("encode_frame_p50_ms", &self.enc, 0.5),
            ("encode_frame_p90_ms", &self.enc, 0.9),
            ("decode_frame_p50_ms", &self.dec, 0.5),
            ("decode_frame_p90_ms", &self.dec, 0.9),
        ] {
            let v = s.pct(q);
            report.check(
                &format!("{name} rests on at least 10 samples beyond it"),
                v.is_some(),
                &format!(
                    "{} positions, each measured at least {} times",
                    s.len(),
                    s.repetitions()
                ),
            );
            let v = v.unwrap_or(0.0);
            report.raw(name, "ms", v);
            if name == UNBOUNDED {
                report.info(name, "ms", v / slowdown, s.samples());
            } else {
                report.metric(name, "ms", v / slowdown, s.samples());
            }
        }
    }
}
