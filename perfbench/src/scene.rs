//! Inputs built in set-up, and the encode/decode drivers every stage
//! shares. The drivers make the same `SceneEncoder` / `SceneDecoder`
//! calls `m4ps_core::study` makes, over frames synthesized beforehand,
//! so the clock never includes frame synthesis.

use std::sync::Arc;
use std::time::Instant;

use m4ps_bitstream::BitReader;
use m4ps_codec::{
    CodecError, DecodedVop, EncoderConfig, FrameView, SceneDecoder, SceneEncoder, Scheduling,
    SessionStats, VideoObjectDecoder,
};
use m4ps_memsim::{AddressSpace, Counters, ParallelModel};
use m4ps_pool::WorkerPool;
use m4ps_vidgen::{Resolution, Scene, SceneSpec, YuvFrame};

/// A synthesized clip: frames plus one mask per object per frame.
pub struct Clip {
    /// Frame geometry.
    pub resolution: Resolution,
    /// Shaped objects (0 = one rectangular VO).
    pub objects: usize,
    /// Layers per object.
    pub layers: usize,
    /// Display-order frames.
    pub frames: Vec<YuvFrame>,
    /// `masks[t][vo]`, empty per frame for the rectangular mode.
    pub masks: Vec<Vec<Vec<u8>>>,
}

impl Clip {
    /// Synthesizes `frames` frames of the scene `m4ps_core::study` would
    /// build for the same workload.
    pub fn generate(
        resolution: Resolution,
        objects: usize,
        layers: usize,
        frames: usize,
        seed: u64,
    ) -> Self {
        let scene = Scene::new(SceneSpec {
            resolution,
            objects: objects.max(1),
            seed,
        });
        Clip {
            resolution,
            objects,
            layers,
            frames: (0..frames).map(|t| scene.frame(t)).collect(),
            masks: (0..frames)
                .map(|t| (0..objects).map(|vo| scene.alpha(t, vo).data).collect())
                .collect(),
        }
    }
}

/// What one encode produced.
pub struct Encoded {
    /// Per-(vo, layer) elementary streams.
    pub streams: Vec<Vec<u8>>,
    /// Codec session statistics.
    pub stats: SessionStats,
    /// Wall time of each `SceneEncoder::encode_frame` call, ns.
    pub frame_ns: Vec<u64>,
}

/// Encodes `clip` under `mem`. `attach` runs after every codec buffer is
/// allocated and before any traffic, as in `m4ps_core::study`.
///
/// # Errors
///
/// Propagates codec errors.
pub fn encode<M: ParallelModel>(
    mem: &mut M,
    clip: &Clip,
    config: EncoderConfig,
    pool: &Arc<WorkerPool>,
    sched: Option<Scheduling>,
    attach: impl FnOnce(&AddressSpace, &mut M),
) -> Result<Encoded, CodecError> {
    let mut space = AddressSpace::new();
    let res = clip.resolution;
    let mut enc = SceneEncoder::new(
        &mut space,
        res.width,
        res.height,
        clip.objects,
        clip.layers,
        config,
    )?;
    enc.set_pool(pool.clone());
    if let Some(s) = sched {
        enc.set_scheduling(s);
    }
    attach(&space, mem);
    let mut frame_ns = Vec::with_capacity(clip.frames.len());
    for (frame, masks) in clip.frames.iter().zip(&clip.masks) {
        let masks: Vec<&[u8]> = masks.iter().map(Vec::as_slice).collect();
        let view = FrameView {
            width: res.width,
            height: res.height,
            y: &frame.y,
            u: &frame.u,
            v: &frame.v,
        };
        let t = Instant::now();
        enc.encode_frame(mem, &view, &masks)?;
        frame_ns.push(t.elapsed().as_nanos() as u64);
    }
    let streams = enc.finish(mem)?;
    Ok(Encoded {
        streams,
        stats: enc.stats(),
        frame_ns,
    })
}

/// Decodes and composes a whole scene the way `m4ps_core::decode_study`
/// does: `attach` runs after the decoders are built, then `decode_all`.
///
/// # Errors
///
/// Propagates codec errors.
pub fn decode_scene<M: ParallelModel>(
    mem: &mut M,
    streams: &[Vec<u8>],
    layers: usize,
    attach: impl FnOnce(&AddressSpace, &mut M),
) -> Result<SessionStats, CodecError> {
    let mut space = AddressSpace::new();
    let mut dec = SceneDecoder::new(&mut space, mem, streams, layers)?;
    attach(&space, mem);
    dec.decode_all(mem, streams)?;
    Ok(dec.stats())
}

/// Decodes one elementary stream VOP by VOP, timing each
/// `VideoObjectDecoder::decode_next` call that yields a VOP. `pool: None`
/// keeps the sequential decoder.
///
/// # Errors
///
/// Propagates codec errors.
pub fn decode_vops<M: ParallelModel>(
    mem: &mut M,
    stream: &[u8],
    pool: Option<&Arc<WorkerPool>>,
    keep_output: bool,
) -> Result<(Vec<DecodedVop>, Vec<u64>), CodecError> {
    let mut space = AddressSpace::new();
    let mut r = BitReader::new(stream);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, mem, &mut r)?;
    if let Some(p) = pool {
        dec.set_pool(p.clone());
    }
    dec.set_keep_output(keep_output);
    let (mut vops, mut ns) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        let Some(vop) = dec.decode_next(mem, &mut r)? else {
            break;
        };
        ns.push(t.elapsed().as_nanos() as u64);
        vops.push(vop);
    }
    Ok((vops, ns))
}

/// FNV-1a digest of a set of byte streams (stream boundaries included).
pub fn digest<'a>(streams: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for s in streams {
        for &b in s {
            eat(b);
        }
        for b in (s.len() as u64).to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// Digest of a stream set as returned by the encoders.
pub fn digest_streams(streams: &[Vec<u8>]) -> u64 {
    digest(streams.iter().map(Vec::as_slice))
}

/// Digest of every counter field.
pub fn digest_counters(c: &Counters) -> u64 {
    digest([format!("{c:?}").as_bytes()])
}
