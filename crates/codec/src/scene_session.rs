//! Scene-level orchestration: N visual objects × L layers.
//!
//! The paper's multi-object experiments encode three VOs (each with one
//! or two VOLs) over the same input scene, "with the single-object input
//! becoming a subset of the multiple-object input". [`SceneEncoder`]
//! reproduces that setup: each VO is an independently coded
//! arbitrary-shape layer stack over the full-frame coordinate system;
//! [`SceneDecoder`] decodes every stream and recomposes the scene
//! (decode + composition being exactly the receiver pipeline the paper
//! describes).
//!
//! Two-layer stacks use temporal scalability: the base layer codes even
//! frames (IPP so its anchors are always fresh), the enhancement layer
//! codes odd frames as P-VOPs predicted from the base layer's latest
//! anchor reconstruction.

use crate::config::EncoderConfig;
use crate::decoder::{DecodedVop, VideoObjectDecoder};
use crate::encoder::{EncodedVop, FrameView, VideoObjectCoder, VopStats};
use crate::error::CodecError;
use crate::header::VolHeader;
use crate::plane::TracedFrame;
use m4ps_bitstream::BitReader;
use m4ps_memsim::{AddressSpace, MemModel, ParallelModel};

/// Aggregate statistics for an encode or decode session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames submitted (encode) or composed (decode).
    pub frames: u64,
    /// VOPs coded or decoded.
    pub vops: u64,
    /// Total bitstream bytes.
    pub bytes: u64,
    /// Sum of per-VOP statistics.
    pub totals: VopStats,
}

impl SessionStats {
    fn absorb(&mut self, stats: &VopStats, bytes: u64) {
        self.vops += 1;
        self.bytes += bytes;
        self.totals.bits += stats.bits;
        self.totals.intra_mbs += stats.intra_mbs;
        self.totals.inter_mbs += stats.inter_mbs;
        self.totals.skipped_mbs += stats.skipped_mbs;
        self.totals.transparent_mbs += stats.transparent_mbs;
        self.totals.candidates += stats.candidates;
        self.totals.concealed_mbs += stats.concealed_mbs;
    }
}

/// One VO's layer stack.
#[derive(Debug)]
struct VoStack {
    base: VideoObjectCoder,
    enh: Option<VideoObjectCoder>,
}

/// Encoder for a whole scene.
#[derive(Debug)]
pub struct SceneEncoder {
    width: usize,
    height: usize,
    layers: usize,
    objects: usize,
    vos: Vec<VoStack>,
    /// Per (vo, layer) elementary streams, `vo * layers + layer`.
    streams: Vec<Vec<u8>>,
    frame_idx: usize,
    stats: SessionStats,
    /// Scratch planes for object masking (segmentation preprocessing,
    /// performed outside the measured codec as MoMuSys consumed
    /// pre-segmented per-object input files).
    scratch_y: Vec<u8>,
    scratch_u: Vec<u8>,
    scratch_v: Vec<u8>,
}

impl SceneEncoder {
    /// Creates a scene encoder.
    ///
    /// `objects == 0` encodes the whole frame as a single rectangular
    /// VO (the paper's 1-VO runs); `objects >= 1` encodes that many
    /// arbitrary-shape VOs. `layers` is 1 or 2.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidConfig`] for bad geometry, layer
    /// count, or configuration.
    pub fn new(
        space: &mut AddressSpace,
        width: usize,
        height: usize,
        objects: usize,
        layers: usize,
        config: EncoderConfig,
    ) -> Result<Self, CodecError> {
        if !(1..=2).contains(&layers) {
            return Err(CodecError::InvalidConfig("layers must be 1 or 2"));
        }
        let n_vos = objects.max(1);
        let binary_shape = objects > 0;
        let mut vos = Vec::with_capacity(n_vos);
        let mut streams = Vec::new();
        for vo in 0..n_vos {
            let mut base_config = config;
            if layers == 2 {
                // Keep every base VOP an anchor so the enhancement layer
                // always predicts from the temporally nearest base frame.
                base_config.gop.b_frames = 0;
            }
            let mut base = VideoObjectCoder::with_vol(
                space,
                VolHeader {
                    vo_id: vo as u32,
                    vol_id: 0,
                    width,
                    height,
                    binary_shape,
                    enhancement: false,
                },
                base_config,
            )?;
            if layers == 2 {
                base.set_display_mapping(2, 0);
            }
            streams.push(base.header_bytes());
            let enh = if layers == 2 {
                let mut enh_config = config;
                enh_config.gop.b_frames = 0;
                let mut coder = VideoObjectCoder::with_vol(
                    space,
                    VolHeader {
                        vo_id: vo as u32,
                        vol_id: 1,
                        width,
                        height,
                        binary_shape,
                        enhancement: true,
                    },
                    enh_config,
                )?;
                coder.set_display_mapping(2, 1);
                streams.push(coder.header_bytes());
                Some(coder)
            } else {
                None
            };
            vos.push(VoStack { base, enh });
        }
        Ok(SceneEncoder {
            width,
            height,
            layers,
            objects,
            vos,
            streams,
            frame_idx: 0,
            stats: SessionStats::default(),
            scratch_y: vec![0; width * height],
            scratch_u: vec![0; width * height / 4],
            scratch_v: vec![0; width * height / 4],
        })
    }

    /// Number of elementary streams produced (`vos × layers`).
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Sets the slice-encoding worker thread count on every layer coder
    /// (see [`VideoObjectCoder::set_threads`] — a pure scheduling knob,
    /// never a bitstream one).
    pub fn set_threads(&mut self, threads: usize) {
        for stack in &mut self.vos {
            stack.base.set_threads(threads);
            if let Some(enh) = stack.enh.as_mut() {
                enh.set_threads(threads);
            }
        }
    }

    /// Shares one persistent worker pool across every layer coder, so
    /// a study spawns workers once instead of once per coder.
    pub fn set_pool(&mut self, pool: std::sync::Arc<m4ps_pool::WorkerPool>) {
        for stack in &mut self.vos {
            stack.base.set_pool(pool.clone());
            if let Some(enh) = stack.enh.as_mut() {
                enh.set_pool(pool.clone());
            }
        }
    }

    /// Selects the scheduling mode on every layer coder (see
    /// [`crate::Scheduling`] — output is bit-identical across modes).
    pub fn set_scheduling(&mut self, sched: crate::Scheduling) {
        for stack in &mut self.vos {
            stack.base.set_scheduling(sched);
            if let Some(enh) = stack.enh.as_mut() {
                enh.set_scheduling(sched);
            }
        }
    }

    /// Session statistics so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Submits the next display-order frame with one mask per object
    /// (empty for the rectangular single-VO mode).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on geometry or configuration mismatch: a
    /// frame that is not the scene's size, a wrong mask count, or a mask
    /// that is not `width × height` bytes.
    pub fn encode_frame<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        frame: &FrameView<'_>,
        masks: &[&[u8]],
    ) -> Result<(), CodecError> {
        frame.validate()?;
        if (frame.width, frame.height) != (self.width, self.height) {
            return Err(CodecError::DimensionMismatch {
                expected: (self.width, self.height),
                found: (frame.width, frame.height),
            });
        }
        if masks.len() != self.objects {
            return Err(CodecError::InvalidConfig("one mask per object is required"));
        }
        if masks.iter().any(|m| m.len() != self.width * self.height) {
            return Err(CodecError::InvalidConfig(
                "alpha mask must hold width × height bytes",
            ));
        }
        let t = self.frame_idx;
        self.frame_idx += 1;
        self.stats.frames += 1;

        // Split-borrow the scratch planes away from the coders so a
        // masked view can be built while a coder is mutably borrowed.
        let Self {
            width,
            height,
            layers,
            objects,
            vos,
            streams,
            stats,
            scratch_y,
            scratch_u,
            scratch_v,
            ..
        } = self;
        let (width, height, layers, objects) = (*width, *height, *layers, *objects);

        for (vo, stack) in vos.iter_mut().enumerate() {
            let (view, alpha): (FrameView<'_>, Option<&[u8]>) = if objects > 0 {
                mask_object(
                    frame, masks[vo], width, height, scratch_y, scratch_u, scratch_v,
                );
                (
                    FrameView {
                        width,
                        height,
                        y: scratch_y,
                        u: scratch_u,
                        v: scratch_v,
                    },
                    Some(masks[vo]),
                )
            } else {
                (*frame, None)
            };
            let produced: Vec<EncodedVop> = if layers == 2 && t % 2 == 1 {
                let ext = stack
                    .base
                    .last_anchor()
                    .ok_or(CodecError::InvalidStream("enhancement before base anchor"))?;
                // Split borrow: enhancement coder vs base reference.
                let enh = stack
                    .enh
                    .as_mut()
                    .expect("two-layer stack has an enhancement coder");
                vec![enh.encode_p_with_ref(mem, &view, alpha, ext)?]
            } else {
                stack.base.encode_frame(mem, &view, alpha)?
            };
            let stream_idx = vo * layers + usize::from(layers == 2 && t % 2 == 1);
            for vop in &produced {
                streams[stream_idx].extend_from_slice(&vop.bytes);
                stats.absorb(&vop.stats, vop.bytes.len() as u64);
            }
        }
        Ok(())
    }

    /// Flushes all coders and returns the per-(vo, layer) elementary
    /// streams. Statistics and counter windows remain readable
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Propagates coder flush errors.
    pub fn finish<M: ParallelModel>(&mut self, mem: &mut M) -> Result<Vec<Vec<u8>>, CodecError> {
        for vo in 0..self.vos.len() {
            let produced = self.vos[vo].base.flush(mem)?;
            let stream_idx = vo * self.layers;
            for vop in &produced {
                self.streams[stream_idx].extend_from_slice(&vop.bytes);
                self.stats.absorb(&vop.stats, vop.bytes.len() as u64);
            }
        }
        Ok(std::mem::take(&mut self.streams))
    }

    /// Number of layers per VO (1 or 2).
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Sum of all coders' per-VOP windows (`VopCode()` instrumentation).
    pub fn vop_window(&self) -> m4ps_memsim::Counters {
        let mut acc = m4ps_memsim::Counters::new();
        for stack in &self.vos {
            acc = acc.merged_with(&stack.base.vop_window());
            if let Some(enh) = &stack.enh {
                acc = acc.merged_with(&enh.vop_window());
            }
        }
        acc
    }
}

/// Masks `frame` to one object (outside pixels become mid-grey) into
/// the provided scratch planes.
fn mask_object(
    frame: &FrameView<'_>,
    mask: &[u8],
    width: usize,
    height: usize,
    scratch_y: &mut [u8],
    scratch_u: &mut [u8],
    scratch_v: &mut [u8],
) {
    for i in 0..width * height {
        scratch_y[i] = if mask[i] != 0 { frame.y[i] } else { 128 };
    }
    let cw = width / 2;
    for cy in 0..height / 2 {
        for cx in 0..cw {
            let ci = cy * cw + cx;
            let li = (cy * 2) * width + cx * 2;
            let opaque = mask[li] != 0;
            scratch_u[ci] = if opaque { frame.u[ci] } else { 128 };
            scratch_v[ci] = if opaque { frame.v[ci] } else { 128 };
        }
    }
}

/// Decoder + compositor for a whole scene.
#[derive(Debug)]
pub struct SceneDecoder {
    layers: usize,
    decoders: Vec<VideoObjectDecoder>,
    composite: TracedFrame,
    /// Reused output staging buffer for the rectangular (single-VO)
    /// display hand-off — the reference decoder `fwrite`s each frame
    /// through a small stdio buffer rather than composing a scene.
    output_ring: m4ps_memsim::SimBuf<u8>,
    stats: SessionStats,
    keep_output: bool,
}

impl SceneDecoder {
    /// Creates a scene decoder over `streams` (as returned by
    /// [`SceneEncoder::finish`]), reading each stream's VOL header.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when a stream lacks a valid VOL header.
    pub fn new<M: MemModel>(
        space: &mut AddressSpace,
        mem: &mut M,
        streams: &[Vec<u8>],
        layers: usize,
    ) -> Result<Self, CodecError> {
        if streams.is_empty() || !(1..=2).contains(&layers) || !streams.len().is_multiple_of(layers)
        {
            return Err(CodecError::InvalidConfig("bad stream/layer arrangement"));
        }
        let mut decoders = Vec::with_capacity(streams.len());
        let mut dims = (0usize, 0usize);
        for s in streams {
            let mut r = BitReader::new(s);
            let d = VideoObjectDecoder::from_stream(space, mem, &mut r)?;
            dims = (d.vol().width, d.vol().height);
            decoders.push(d);
        }
        space.set_tag("dec.display_output");
        let composite = TracedFrame::new(space, dims.0, dims.1);
        let output_ring = m4ps_memsim::SimBuf::zeroed(space, 64 * 1024);
        space.set_tag("untagged");
        Ok(SceneDecoder {
            layers,
            decoders,
            composite,
            output_ring,
            stats: SessionStats::default(),
            keep_output: false,
        })
    }

    /// Keep raw plane copies in the returned [`DecodedVop`]s.
    pub fn set_keep_output(&mut self, keep: bool) {
        self.keep_output = keep;
        for d in &mut self.decoders {
            d.set_keep_output(keep);
        }
    }

    /// Sets the slice-decoding worker thread count on every layer
    /// decoder (see [`VideoObjectDecoder::set_threads`] — a pure
    /// scheduling knob; output and counters never change).
    pub fn set_threads(&mut self, threads: usize) {
        for d in &mut self.decoders {
            d.set_threads(threads);
        }
    }

    /// Shares one persistent worker pool across every layer decoder, so
    /// a study spawns workers once instead of once per decoder.
    pub fn set_pool(&mut self, pool: std::sync::Arc<m4ps_pool::WorkerPool>) {
        for d in &mut self.decoders {
            d.set_pool(pool.clone());
        }
    }

    /// Selects the scheduling mode on every layer decoder (see
    /// [`crate::Scheduling`] — output is bit-identical across modes).
    pub fn set_scheduling(&mut self, sched: crate::Scheduling) {
        for d in &mut self.decoders {
            d.set_scheduling(sched);
        }
    }

    /// Session statistics so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Paints decoder `idx`'s latest reconstruction onto the composite
    /// (masked by its alpha plane when present) — the receiver's scene
    /// recomposition stage.
    fn compose_from(&mut self, mem: &mut impl MemModel, idx: usize) {
        let dec = &self.decoders[idx];
        let recon = dec.last_recon();
        let alpha = dec.last_alpha();
        let w = self.composite.y.width();
        let h = self.composite.y.height();
        if alpha.is_none() {
            // Rectangular single-VO display hand-off: stream the frame
            // through the reused staging buffer (no scene composition).
            let ring = self.output_ring.len();
            let mut off = 0usize;
            for y in 0..h as isize {
                recon.y.load_row(mem, 0, y, w);
                let end = (off + w).min(ring);
                self.output_ring.touch_write(mem, off, end - off);
                off = if end == ring { 0 } else { end };
            }
            let (cw, ch) = (w / 2, h / 2);
            for y in 0..ch as isize {
                recon.u.load_row(mem, 0, y, cw);
                recon.v.load_row(mem, 0, y, cw);
                let end = (off + cw).min(ring);
                self.output_ring.touch_write(mem, off, end - off);
                off = if end == ring { 0 } else { end };
            }
            return;
        }
        // Shaped VOs paint only their VOP bounding box (the object is
        // transparent everywhere else, and the reference pipeline works
        // with VOP-sized buffers).
        let (bx0, by0, bw, bh) = match (alpha, dec.last_bbox()) {
            (Some(_), Some(b)) => b,
            _ => (0, 0, w, h),
        };
        if let Some(a) = alpha {
            for y in by0 as isize..(by0 + bh) as isize {
                let src: Vec<u8> = recon.y.load_row(mem, bx0 as isize, y, bw).to_vec();
                let mask: Vec<u8> = a.load_row(mem, bx0 as isize, y, bw).to_vec();
                let mut line: Vec<u8> =
                    self.composite.y.load_row(mem, bx0 as isize, y, bw).to_vec();
                for x in 0..bw {
                    if mask[x] != 0 {
                        line[x] = src[x];
                    }
                }
                self.composite.y.store_row(mem, bx0 as isize, y, &line);
            }
            let (cx0, cw2) = (bx0 / 2, bw / 2);
            for y in (by0 / 2) as isize..((by0 + bh) / 2) as isize {
                let su: Vec<u8> = recon.u.load_row(mem, cx0 as isize, y, cw2).to_vec();
                let sv: Vec<u8> = recon.v.load_row(mem, cx0 as isize, y, cw2).to_vec();
                let mask: Vec<u8> = a.load_row(mem, bx0 as isize, y * 2, bw).to_vec();
                let mut lu: Vec<u8> = self
                    .composite
                    .u
                    .load_row(mem, cx0 as isize, y, cw2)
                    .to_vec();
                let mut lv: Vec<u8> = self
                    .composite
                    .v
                    .load_row(mem, cx0 as isize, y, cw2)
                    .to_vec();
                for x in 0..cw2 {
                    if mask[x * 2] != 0 {
                        lu[x] = su[x];
                        lv[x] = sv[x];
                    }
                }
                self.composite.u.store_row(mem, cx0 as isize, y, &lu);
                self.composite.v.store_row(mem, cx0 as isize, y, &lv);
            }
            return;
        }
        for y in 0..h as isize {
            let src: Vec<u8> = recon.y.load_row(mem, 0, y, w).to_vec();
            self.composite.y.store_row(mem, 0, y, &src);
        }
        let (cw, ch) = (w / 2, h / 2);
        for y in 0..ch as isize {
            let su: Vec<u8> = recon.u.load_row(mem, 0, y, cw).to_vec();
            let sv: Vec<u8> = recon.v.load_row(mem, 0, y, cw).to_vec();
            self.composite.u.store_row(mem, 0, y, &su);
            self.composite.v.store_row(mem, 0, y, &sv);
        }
    }

    /// Decodes every stream to exhaustion, composing each VOP into the
    /// scene as it arrives. Returns all decoded VOPs (with plane copies
    /// when output keeping is enabled).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on any corrupt stream.
    pub fn decode_all<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        streams: &[Vec<u8>],
    ) -> Result<Vec<DecodedVop>, CodecError> {
        if streams.len() != self.decoders.len() {
            return Err(CodecError::InvalidConfig("stream count mismatch"));
        }
        let mut out = Vec::new();
        let n_vos = self.decoders.len() / self.layers;
        for vo in 0..n_vos {
            let base_idx = vo * self.layers;
            let mut base_reader = BitReader::new(&streams[base_idx]);
            // Skip the VOL header (already consumed at construction).
            let _ = VolHeader::read(&mut base_reader)?;
            if self.layers == 2 {
                let enh_idx = base_idx + 1;
                let mut enh_reader = BitReader::new(&streams[enh_idx]);
                let _ = VolHeader::read(&mut enh_reader)?;
                loop {
                    let base_vop = self.decoders[base_idx].decode_next(mem, &mut base_reader)?;
                    let Some(vop) = base_vop else { break };
                    self.stats.absorb(&vop.stats, 0);
                    self.compose_from(mem, base_idx);
                    out.push(vop);
                    // One enhancement VOP per base VOP (odd frames).
                    let (head, tail) = self.decoders.split_at_mut(enh_idx);
                    let base_dec = &head[base_idx];
                    let enh_dec = &mut tail[0];
                    let ext = base_dec
                        .last_anchor()
                        .ok_or(CodecError::InvalidStream("missing base anchor"))?;
                    if let Some(vop) = enh_dec.decode_next_with_ref(mem, &mut enh_reader, ext)? {
                        self.stats.absorb(&vop.stats, 0);
                        self.compose_from(mem, enh_idx);
                        out.push(vop);
                    }
                }
            } else {
                while let Some(vop) = self.decoders[base_idx].decode_next(mem, &mut base_reader)? {
                    self.stats.absorb(&vop.stats, 0);
                    self.compose_from(mem, base_idx);
                    out.push(vop);
                }
            }
        }
        let n_vos = (self.decoders.len() / self.layers) as u64;
        self.stats.frames = self.stats.vops / n_vos.max(1);
        let total_bytes: u64 = streams.iter().map(|s| s.len() as u64).sum();
        self.stats.bytes = total_bytes;
        Ok(out)
    }

    /// Sum of all decoders' per-VOP windows
    /// (`DecodeVopCombMotionShapeTexture()` instrumentation).
    pub fn vop_window(&self) -> m4ps_memsim::Counters {
        let mut acc = m4ps_memsim::Counters::new();
        for d in &self.decoders {
            acc = acc.merged_with(&d.vop_window());
        }
        acc
    }

    /// Untraced copy of the current composite luma plane (testing aid).
    pub fn composite_luma(&self) -> Vec<u8> {
        let w = self.composite.y.width();
        let h = self.composite.y.height();
        let mut out = Vec::with_capacity(w * h);
        for y in 0..h as isize {
            out.extend_from_slice(self.composite.y.raw_row(0, y, w));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m4ps_memsim::NullModel;
    use m4ps_vidgen::{Resolution, Scene, SceneSpec};

    fn view(f: &m4ps_vidgen::YuvFrame) -> FrameView<'_> {
        FrameView {
            width: f.resolution.width,
            height: f.resolution.height,
            y: &f.y,
            u: &f.u,
            v: &f.v,
        }
    }

    #[test]
    fn layer_count_is_validated() {
        let mut space = AddressSpace::new();
        assert!(SceneEncoder::new(&mut space, 64, 48, 1, 0, EncoderConfig::fast_test()).is_err());
        assert!(SceneEncoder::new(&mut space, 64, 48, 1, 3, EncoderConfig::fast_test()).is_err());
        let enc = SceneEncoder::new(&mut space, 64, 48, 2, 2, EncoderConfig::fast_test()).unwrap();
        assert_eq!(enc.stream_count(), 4);
        assert_eq!(enc.layers(), 2);
    }

    #[test]
    fn mask_count_is_validated() {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let mut enc =
            SceneEncoder::new(&mut space, 64, 48, 2, 1, EncoderConfig::fast_test()).unwrap();
        let scene = Scene::new(SceneSpec {
            resolution: Resolution::new(64, 48),
            objects: 2,
            seed: 1,
        });
        let f = scene.frame(0);
        // Wrong number of masks must be rejected.
        let m0 = scene.alpha(0, 0).data;
        assert!(enc.encode_frame(&mut mem, &view(&f), &[&m0]).is_err());
    }

    #[test]
    fn decoder_rejects_mismatched_stream_arrangement() {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        // 3 streams with layers=2 is not divisible.
        let streams = vec![vec![0u8; 4]; 3];
        assert!(SceneDecoder::new(&mut space, &mut mem, &streams, 2).is_err());
        // Streams without VOL headers are rejected.
        let streams = vec![vec![0u8; 4]; 2];
        assert!(SceneDecoder::new(&mut space, &mut mem, &streams, 1).is_err());
    }

    #[test]
    fn session_stats_absorb_all_vop_fields() {
        let mut stats = SessionStats::default();
        let vop = VopStats {
            bits: 100,
            intra_mbs: 1,
            inter_mbs: 2,
            skipped_mbs: 3,
            transparent_mbs: 4,
            candidates: 5,
            concealed_mbs: 6,
        };
        stats.absorb(&vop, 13);
        stats.absorb(&vop, 7);
        assert_eq!(stats.vops, 2);
        assert_eq!(stats.bytes, 20);
        assert_eq!(stats.totals.intra_mbs, 2);
        assert_eq!(stats.totals.concealed_mbs, 12);
        assert_eq!(stats.totals.candidates, 10);
    }
}
