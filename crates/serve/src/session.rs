//! One service session: a scene with its encoder — or a pre-encoded
//! stream set replayed through the slice-parallel decoder — plus its
//! private memory model, stepped one display frame at a time by the
//! service scheduler.

use std::sync::Arc;

use m4ps_bitstream::BitReader;
use m4ps_codec::{
    CodecError, EncoderConfig, FrameView, SceneEncoder, Scheduling, SessionStats,
    VideoObjectDecoder,
};
use m4ps_memsim::{AddressSpace, Counters, NullModel, ParallelModel};
use m4ps_pool::WorkerPool;
use m4ps_vidgen::{Resolution, Scene, SceneSpec};

/// What a session does each step.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionMode {
    /// Generate and encode `frames` synthetic frames (the default).
    Encode,
    /// Replay pre-encoded elementary streams (one per VO) through the
    /// slice-parallel decoder, one display frame per step. The WFQ
    /// cost of a step is the stream bytes it consumed.
    Decode(Arc<Vec<Vec<u8>>>),
}

/// Everything needed to admit one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Frame width (multiple of 16).
    pub width: usize,
    /// Frame height (multiple of 16).
    pub height: usize,
    /// Frames this session encodes (or decodes) before completing.
    pub frames: usize,
    /// Visual objects: 0 = one rectangular VO, ≥1 = shaped VOs.
    pub objects: usize,
    /// Layers per object (1 or 2; decode sessions support 1).
    pub layers: usize,
    /// Scene content seed — two sessions with the same seed encode the
    /// same content.
    pub seed: u64,
    /// Weighted-fair-queueing weight: a weight-2 session is entitled
    /// to twice the bytes-per-virtual-time of a weight-1 session.
    pub weight: u32,
    /// Codec configuration; `encoder.bitrate` is the session's rate
    /// budget (per-session rate controller).
    pub encoder: EncoderConfig,
    /// Encode fresh content or replay a pre-encoded stream set.
    pub mode: SessionMode,
}

impl SessionSpec {
    /// A small fast session for tests, benches and smoke loads:
    /// 64×48 rectangular VO with the cheap test codec config, sliced
    /// in two so every VOP actually schedules jobs onto the shared
    /// pool (unsliced VOPs encode inline and never queue, which would
    /// starve the queue-wait admission signal).
    pub fn tiny(seed: u64, frames: usize) -> Self {
        SessionSpec {
            width: 64,
            height: 48,
            frames,
            objects: 0,
            layers: 1,
            seed,
            weight: 1,
            encoder: EncoderConfig::fast_test().with_slices(2),
            mode: SessionMode::Encode,
        }
    }

    /// Converts an encode spec into a decode spec by pre-encoding its
    /// content once (untraced, off the service clock) and storing the
    /// streams for replay — the loadgen "sessions replay pre-encoded
    /// streams" model. Shared seeds share nothing: each spec carries
    /// its own stream set.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on codec geometry errors, or when
    /// `layers != 1` (decode sessions replay single-layer streams).
    pub fn into_decode(mut self) -> Result<SessionSpec, CodecError> {
        if self.layers != 1 {
            return Err(CodecError::InvalidConfig(
                "decode sessions replay single-layer streams",
            ));
        }
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let scene = Scene::new(SceneSpec {
            resolution: Resolution::new(self.width, self.height),
            objects: self.objects.max(1),
            seed: self.seed,
        });
        let mut enc = SceneEncoder::new(
            &mut space,
            self.width,
            self.height,
            self.objects,
            self.layers,
            self.encoder,
        )?;
        let mut mask_storage: Vec<Vec<u8>> = Vec::new();
        for t in 0..self.frames {
            let frame = scene.frame(t);
            mask_storage.clear();
            for vo in 0..self.objects {
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
            enc.encode_frame(&mut mem, &view, &masks)?;
        }
        let streams = enc.finish(&mut mem)?;
        self.mode = SessionMode::Decode(Arc::new(streams));
        Ok(self)
    }
}

/// Encode-session state: the scene, its encoder (whose `SliceScratch`
/// arenas are recycled for the whole session lifetime), and the
/// finished streams once flushed.
struct EncodeWork {
    scene: Scene,
    enc: SceneEncoder,
    /// Recycled per-frame mask storage (one buffer per object).
    mask_storage: Vec<Vec<u8>>,
    streams: Option<Vec<Vec<u8>>>,
}

/// Decode-session state: the replayed streams, one slice-parallel
/// decoder per VO stream, and each stream's resume bit position (the
/// session owns the stream bytes through the `Arc`, so readers are
/// rebuilt per step instead of holding self-referential borrows).
struct DecodeWork {
    streams: Arc<Vec<Vec<u8>>>,
    decs: Vec<VideoObjectDecoder>,
    pos: Vec<u64>,
    stats: SessionStats,
    done: bool,
}

enum Work {
    // Boxed: an encode session's state (its `Scene` and encoder) is
    // more than twice the size of a decode session's.
    Encode(Box<EncodeWork>),
    Decode(DecodeWork),
}

/// A live session: owns its address space, memory model and codec
/// state (encoder or decoder side), scheduled onto the service's
/// shared pool.
pub struct Session<M: ParallelModel> {
    spec: SessionSpec,
    space: AddressSpace,
    mem: M,
    next_frame: usize,
    work: Work,
}

impl<M: ParallelModel> Session<M> {
    /// Builds a session on `pool`. `attach` runs after every codec
    /// buffer is allocated and before any traffic (a `Hierarchy`
    /// caller wires up region attribution there; pass a no-op for
    /// `NullModel`).
    ///
    /// # Errors
    ///
    /// Propagates codec configuration/geometry errors.
    pub fn new(
        spec: SessionSpec,
        mut mem: M,
        pool: Arc<WorkerPool>,
        sched: Option<Scheduling>,
        attach: impl FnOnce(&AddressSpace, &mut M),
    ) -> Result<Self, CodecError> {
        let mut space = AddressSpace::new();
        let work = match &spec.mode {
            SessionMode::Encode => {
                let scene = Scene::new(SceneSpec {
                    resolution: Resolution::new(spec.width, spec.height),
                    objects: spec.objects.max(1),
                    seed: spec.seed,
                });
                let mut enc = SceneEncoder::new(
                    &mut space,
                    spec.width,
                    spec.height,
                    spec.objects,
                    spec.layers,
                    spec.encoder,
                )?;
                enc.set_pool(pool);
                if let Some(s) = sched {
                    enc.set_scheduling(s);
                }
                Work::Encode(Box::new(EncodeWork {
                    scene,
                    enc,
                    mask_storage: Vec::with_capacity(spec.objects),
                    streams: None,
                }))
            }
            SessionMode::Decode(streams) => {
                let streams = streams.clone();
                let mut decs = Vec::with_capacity(streams.len());
                let mut pos = Vec::with_capacity(streams.len());
                for stream in streams.iter() {
                    let mut r = BitReader::new(stream);
                    let mut dec = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r)?;
                    dec.set_pool(pool.clone());
                    if let Some(s) = sched {
                        dec.set_scheduling(s);
                    }
                    decs.push(dec);
                    pos.push(r.bit_pos());
                }
                Work::Decode(DecodeWork {
                    streams,
                    decs,
                    pos,
                    stats: SessionStats::default(),
                    done: false,
                })
            }
        };
        attach(&space, &mut mem);
        Ok(Session {
            spec,
            space,
            mem,
            next_frame: 0,
            work,
        })
    }

    /// The session's spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Processes the next display frame (the scheduler's unit of
    /// work): encodes it — flushing the coders after the last one — or
    /// decodes one VOP from every replayed stream. Returns the
    /// bitstream bytes this step produced or consumed — the WFQ cost.
    /// Must not be called once [`Session::is_done`].
    ///
    /// # Errors
    ///
    /// Propagates codec errors; a failed session is torn down by the
    /// service.
    pub fn step(&mut self) -> Result<u64, CodecError> {
        assert!(!self.is_done(), "step() on a finished session");
        let t = self.next_frame;
        self.next_frame += 1;
        match &mut self.work {
            Work::Encode(w) => {
                let before = w.enc.stats().bytes;
                let frame = w.scene.frame(t);
                // Reuse the per-object mask buffers across frames.
                for vo in 0..self.spec.objects {
                    let mask = w.scene.alpha(t, vo);
                    match w.mask_storage.get_mut(vo) {
                        Some(buf) => {
                            buf.clear();
                            buf.extend_from_slice(&mask.data);
                        }
                        None => w.mask_storage.push(mask.data),
                    }
                }
                let masks: Vec<&[u8]> = w.mask_storage.iter().map(|m| m.as_slice()).collect();
                let view = FrameView {
                    width: frame.resolution.width,
                    height: frame.resolution.height,
                    y: &frame.y,
                    u: &frame.u,
                    v: &frame.v,
                };
                w.enc.encode_frame(&mut self.mem, &view, &masks)?;
                if self.next_frame == self.spec.frames {
                    w.streams = Some(w.enc.finish(&mut self.mem)?);
                }
                Ok(w.enc.stats().bytes - before)
            }
            Work::Decode(w) => {
                let mut consumed = 0u64;
                for i in 0..w.decs.len() {
                    let mut r = BitReader::new(&w.streams[i]);
                    r.seek_to(w.pos[i]);
                    match w.decs[i].decode_next(&mut self.mem, &mut r)? {
                        Some(vop) => {
                            consumed += (r.bit_pos() - w.pos[i]).div_ceil(8);
                            w.stats.vops += 1;
                            w.stats.totals.merge(&vop.stats);
                        }
                        None => {
                            return Err(CodecError::InvalidStream(
                                "decode session stream ended early",
                            ))
                        }
                    }
                    w.pos[i] = r.bit_pos();
                }
                w.stats.bytes += consumed;
                w.stats.frames += 1;
                if self.next_frame == self.spec.frames {
                    w.done = true;
                }
                Ok(consumed)
            }
        }
    }

    /// Whether every frame has been processed (and, for encode
    /// sessions, the coders flushed).
    pub fn is_done(&self) -> bool {
        match &self.work {
            Work::Encode(w) => w.streams.is_some(),
            Work::Decode(w) => w.done,
        }
    }

    /// Frames processed so far.
    pub fn frames_done(&self) -> usize {
        self.next_frame
    }

    /// Session statistics so far.
    pub fn stats(&self) -> SessionStats {
        match &self.work {
            Work::Encode(w) => w.enc.stats(),
            Work::Decode(w) => w.stats,
        }
    }

    /// The session's private counter stream.
    pub fn counters(&self) -> Counters {
        *self.mem.counters()
    }

    /// Simulated bytes the session's address space holds.
    pub fn resident_bytes(&self) -> u64 {
        self.space.allocated_bytes()
    }

    /// Consumes the finished session, returning its elementary streams
    /// (empty for decode sessions, which replay rather than produce),
    /// statistics and counters.
    ///
    /// # Panics
    ///
    /// Panics when the session is not [`Session::is_done`].
    pub fn into_output(self) -> (Vec<Vec<u8>>, SessionStats, Counters) {
        let counters = *self.mem.counters();
        match self.work {
            Work::Encode(w) => {
                let stats = w.enc.stats();
                (w.streams.expect("session finished"), stats, counters)
            }
            Work::Decode(w) => {
                assert!(w.done, "session finished");
                (Vec::new(), w.stats, counters)
            }
        }
    }
}

// Sessions migrate between driver threads (whichever driver claims the
// next ready frame job steps the session), so they must be `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session<m4ps_memsim::NullModel>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use m4ps_memsim::NullModel;

    #[test]
    fn session_steps_to_completion() {
        let pool = Arc::new(WorkerPool::new(1));
        let mut s = Session::new(
            SessionSpec::tiny(7, 3),
            NullModel::new(),
            pool,
            Some(Scheduling::SliceParallel),
            |_, _| {},
        )
        .unwrap();
        let mut cost = 0;
        while !s.is_done() {
            cost += s.step().unwrap();
        }
        assert_eq!(s.frames_done(), 3);
        let (streams, stats, _) = s.into_output();
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.bytes, cost, "step costs sum to the stream bytes");
        assert!(streams.iter().map(|s| s.len() as u64).sum::<u64>() >= cost);
    }

    #[test]
    fn decode_session_replays_the_encoded_stream() {
        let spec = SessionSpec::tiny(7, 3).into_decode().unwrap();
        let SessionMode::Decode(streams) = &spec.mode else {
            panic!("into_decode did not switch the mode");
        };
        let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
        let pool = Arc::new(WorkerPool::new(2));
        let mut s = Session::new(spec.clone(), NullModel::new(), pool, None, |_, _| {}).unwrap();
        let mut cost = 0;
        while !s.is_done() {
            cost += s.step().unwrap();
        }
        assert_eq!(s.frames_done(), 3);
        let (streams_out, stats, _) = s.into_output();
        assert!(streams_out.is_empty(), "decode sessions produce no streams");
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.vops, 3);
        assert_eq!(stats.bytes, cost, "step costs sum to the consumed bytes");
        // Every payload byte is consumed (the VOL headers are read at
        // construction, off the step clock).
        assert!(cost <= total && cost >= total - streams.len() as u64 * 16);
    }

    #[test]
    fn scalable_specs_cannot_become_decode_sessions() {
        let spec = SessionSpec {
            layers: 2,
            ..SessionSpec::tiny(7, 2)
        };
        assert!(spec.into_decode().is_err());
    }
}
