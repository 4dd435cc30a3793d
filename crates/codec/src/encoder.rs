//! The video-object encoder: GOP management, VOP reordering, and the
//! per-VOP coding loop (`vop_code` in MoMuSys terms — the function the
//! paper instruments for its burstiness study).

use crate::config::EncoderConfig;
use crate::error::CodecError;
use crate::header::{VolHeader, VopHeader, MAX_DIMENSION};
use crate::mbops::{
    add_prediction, chroma_mv, pred_subblock, read_block, residual, write_block, write_block_u8,
    IntraPredState, MvPredictor, StreamCharge,
};
use crate::mc::{average_predictions, motion_compensate_block};
use crate::me::{MotionSearch, SearchCharges};
use crate::plane::{FrameSink, RowSink, TracedFrame, TracedPlane};
use crate::rate::RateController;
use crate::shape::{classify_bab, encode_alpha_plane, BabClass};
use crate::slices::{partition_rows, run_row_chains, step_rows, Scheduling, SliceBody};
use crate::texture::TextureCoder;
use crate::types::{MacroblockKind, MotionVector, VopKind};
use crate::vlc::{put_se, put_ue};
use m4ps_bitstream::BitWriter;
use m4ps_memsim::{AddressSpace, MemModel, ParallelModel};
use m4ps_obs::{span, MetricId, Phase};
use m4ps_pool::WorkerPool;
use std::ops::Range;
use std::sync::Arc;

/// A borrowed view of one 4:2:0 input frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Luma plane (`width × height`).
    pub y: &'a [u8],
    /// Cb plane (`width/2 × height/2`).
    pub u: &'a [u8],
    /// Cr plane (`width/2 × height/2`).
    pub v: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Validates plane sizes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::DimensionMismatch`] when any plane has the
    /// wrong length.
    pub fn validate(&self) -> Result<(), CodecError> {
        let lp = self.width * self.height;
        let cp = (self.width / 2) * (self.height / 2);
        if self.y.len() != lp || self.u.len() != cp || self.v.len() != cp {
            return Err(CodecError::DimensionMismatch {
                expected: (self.width, self.height),
                found: (self.y.len() / self.height.max(1), self.height),
            });
        }
        Ok(())
    }
}

/// Per-VOP coding statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VopStats {
    /// Bits produced by this VOP.
    pub bits: u64,
    /// Intra-coded macroblocks.
    pub intra_mbs: u64,
    /// Inter-coded macroblocks (including B modes).
    pub inter_mbs: u64,
    /// Skipped macroblocks.
    pub skipped_mbs: u64,
    /// Fully transparent macroblocks (shape-coded VOPs only).
    pub transparent_mbs: u64,
    /// Motion-search candidates evaluated.
    pub candidates: u64,
    /// Macroblocks concealed after a bitstream error (decoder only).
    pub concealed_mbs: u64,
}

impl VopStats {
    /// Adds `other`'s tallies into `self` (slice-stitch accumulation).
    /// Plain element-wise addition, so the merged total is independent
    /// of the order slices finished in.
    pub fn merge(&mut self, other: &VopStats) {
        self.bits += other.bits;
        self.intra_mbs += other.intra_mbs;
        self.inter_mbs += other.inter_mbs;
        self.skipped_mbs += other.skipped_mbs;
        self.transparent_mbs += other.transparent_mbs;
        self.candidates += other.candidates;
        self.concealed_mbs += other.concealed_mbs;
    }
}

/// Raw copies of a reconstructed VOP (testing aid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconPlanes {
    /// Luma plane.
    pub y: Vec<u8>,
    /// Cb plane.
    pub u: Vec<u8>,
    /// Cr plane.
    pub v: Vec<u8>,
}

/// One encoded video object plane, in coding (decode) order.
#[derive(Debug, Clone)]
pub struct EncodedVop {
    /// Coding type.
    pub kind: VopKind,
    /// Display (temporal) index.
    pub display_index: usize,
    /// Quantizer used.
    pub qp: u8,
    /// Bitstream payload (startcode-prefixed, byte-aligned).
    pub bytes: Vec<u8>,
    /// Coding statistics.
    pub stats: VopStats,
    /// Reconstruction copies when the coder was asked to keep them.
    pub recon: Option<ReconPlanes>,
}

/// Macroblock-aligned bounding box `(x0, y0, w, h)` in pixels.
pub(crate) type Bbox = (usize, usize, usize, usize);

/// Queued B-frame awaiting its backward anchor.
#[derive(Debug)]
struct BSlot {
    frame: TracedFrame,
    alpha: Option<TracedPlane>,
    bbox: Bbox,
    display_index: usize,
}

/// Encoder for one video object layer.
///
/// Frames are submitted in display order via
/// [`VideoObjectCoder::encode_frame`]; encoded VOPs come back in coding
/// order (anchors before the B-VOPs that reference them), reproducing
/// the paper's Figure 1 semantics.
#[derive(Debug)]
pub struct VideoObjectCoder {
    vol: VolHeader,
    cur: TracedFrame,
    cur_alpha: Option<TracedPlane>,
    cur_bbox: Bbox,
    prev_alpha_bbox: Option<Bbox>,
    b_slots: Vec<BSlot>,
    queue_len: usize,
    anchors: [TracedFrame; 2],
    prev_anchor: usize,
    have_anchor: bool,
    b_recon: TracedFrame,
    next_display: usize,
    display_scale: usize,
    display_offset: usize,
    vop: VopCoder,
}

/// The state every VOP's coding shares, whichever frame buffers it
/// reads and writes. Kept apart from those buffers so
/// [`VopCoder::code`] can borrow a VOP's source, references and
/// reconstruction target straight from the [`VideoObjectCoder`].
#[derive(Debug)]
struct VopCoder {
    config: EncoderConfig,
    mb_cols: usize,
    mb_rows: usize,
    texture: TextureCoder,
    /// Reusable per-slice coding state (texture scratch clones and MV
    /// predictors), grown on first use and recycled every VOP so the
    /// steady-state encode loop performs no per-slice heap allocation.
    slice_scratch: Vec<SliceScratch>,
    search: MotionSearch,
    rate: RateController,
    stream_base: u64,
    stream_bits: u64,
    keep_recon: bool,
    /// Worker pool, created lazily on first encode (or shared via
    /// [`VideoObjectCoder::set_pool`]). Lazy so that constructing many
    /// session coders — the multi-session service holds hundreds, all
    /// sharing one pool — spawns no per-coder OS threads.
    pool: Option<Arc<WorkerPool>>,
    /// Thread count for the lazily created pool; 0 = resolve from the
    /// environment at creation time.
    threads_hint: usize,
    sched: Scheduling,
    /// Accumulated counter deltas over the `encode_vop` windows — the
    /// paper's `VopCode()` instrumentation (Table 8).
    vop_window: m4ps_memsim::Counters,
}

impl VideoObjectCoder {
    /// Creates a rectangular-VOP coder for `width × height` frames.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidConfig`] for bad configuration,
    /// non-macroblock-aligned dimensions, or dimensions above
    /// [`MAX_DIMENSION`].
    pub fn new(
        space: &mut AddressSpace,
        width: usize,
        height: usize,
        config: EncoderConfig,
    ) -> Result<Self, CodecError> {
        Self::with_vol(
            space,
            VolHeader {
                vo_id: 0,
                vol_id: 0,
                width,
                height,
                binary_shape: false,
                enhancement: false,
            },
            config,
        )
    }

    /// Creates a coder with an explicit VOL header (arbitrary shape,
    /// multi-object and scalability callers).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidConfig`] for bad configuration,
    /// non-macroblock-aligned dimensions, or dimensions above
    /// [`MAX_DIMENSION`].
    pub fn with_vol(
        space: &mut AddressSpace,
        vol: VolHeader,
        config: EncoderConfig,
    ) -> Result<Self, CodecError> {
        config.validate()?;
        let (width, height) = (vol.width, vol.height);
        if width % 16 != 0 || height % 16 != 0 {
            return Err(CodecError::InvalidConfig(
                "frame dimensions must be multiples of 16",
            ));
        }
        if width > MAX_DIMENSION || height > MAX_DIMENSION {
            return Err(CodecError::InvalidConfig(
                "frame dimensions exceed MAX_DIMENSION",
            ));
        }
        let alpha_for = |space: &mut AddressSpace| {
            vol.binary_shape
                .then(|| TracedPlane::new(space, width, height))
        };
        space.set_tag("enc.b_queue");
        let b_slots = (0..config.gop.b_frames)
            .map(|_| BSlot {
                frame: TracedFrame::new(space, width, height),
                alpha: alpha_for(space),
                bbox: (0, 0, 0, 0),
                display_index: 0,
            })
            .collect();
        space.set_tag("enc.input_frame");
        let cur = TracedFrame::new(space, width, height);
        space.set_tag("enc.alpha");
        let cur_alpha = alpha_for(space);
        space.set_tag("enc.reference_frames");
        let anchors = [
            TracedFrame::new(space, width, height),
            TracedFrame::new(space, width, height),
        ];
        space.set_tag("enc.b_recon");
        let b_recon = TracedFrame::new(space, width, height);
        space.set_tag("enc.scratch");
        let texture = TextureCoder::new(space);
        let stream_base = {
            space.set_tag("enc.bitstream");
            let base = space.alloc(16 * 1024 * 1024);
            space.set_tag("untagged");
            base
        };
        Ok(VideoObjectCoder {
            vol,
            cur,
            cur_alpha,
            cur_bbox: (0, 0, 0, 0),
            prev_alpha_bbox: None,
            b_slots,
            queue_len: 0,
            anchors,
            prev_anchor: 0,
            have_anchor: false,
            b_recon,
            next_display: 0,
            display_scale: 1,
            display_offset: 0,
            vop: VopCoder {
                mb_cols: width / 16,
                mb_rows: height / 16,
                texture,
                slice_scratch: Vec::new(),
                search: MotionSearch::new(config.search, config.search_range, config.half_pel),
                rate: RateController::new(config.initial_qp, config.bitrate, config.frame_rate),
                stream_base,
                stream_bits: 0,
                keep_recon: false,
                pool: None,
                threads_hint: 0,
                sched: Scheduling::from_env(),
                vop_window: m4ps_memsim::Counters::new(),
                config,
            },
        })
    }

    /// Sets the number of worker threads used to encode a VOP's slices.
    ///
    /// Purely a scheduling knob: any thread count produces bit-identical
    /// output (the slice partition is fixed by
    /// [`EncoderConfig::slices`](crate::EncoderConfig), which is what
    /// changes the bitstream). Defaults to the `M4PS_THREADS`
    /// environment override, falling back to the machine's available
    /// parallelism.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.clamp(1, 256);
        self.vop.threads_hint = threads;
        if self
            .vop
            .pool
            .as_ref()
            .is_some_and(|p| p.threads() != threads)
        {
            self.vop.pool = None;
        }
    }

    /// Shares a persistent worker pool with this coder. The study
    /// lifecycle (`m4ps-core`) spawns one pool per study and hands it
    /// to every layer's coder — and the multi-session service hands
    /// one pool to every session — so workers are spawned once and
    /// parked between VOPs instead of re-created per coder.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.vop.threads_hint = pool.threads();
        self.vop.pool = Some(pool);
    }

    /// The worker thread count slices are scheduled onto.
    pub fn threads(&self) -> usize {
        match (&self.vop.pool, self.vop.threads_hint) {
            (Some(p), _) => p.threads(),
            (None, 0) => {
                m4ps_pool::resolve_threads(std::env::var(m4ps_pool::THREADS_ENV).ok().as_deref())
            }
            (None, hint) => hint,
        }
    }

    /// Selects how VOP work is decomposed onto the pool (see
    /// [`Scheduling`]). Output is bit-identical across modes.
    pub fn set_scheduling(&mut self, sched: Scheduling) {
        self.vop.sched = sched;
    }

    /// The active scheduling mode.
    pub fn scheduling(&self) -> Scheduling {
        self.vop.sched
    }

    /// The VOL header describing this layer.
    pub fn vol(&self) -> &VolHeader {
        &self.vol
    }

    /// Serialized VOL header (place once at the start of the stream).
    pub fn header_bytes(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        self.vol.write(&mut w);
        w.into_bytes()
    }

    /// Keep raw reconstruction copies in every [`EncodedVop`] (testing).
    pub fn set_keep_recon(&mut self, keep: bool) {
        self.vop.keep_recon = keep;
    }

    /// Maps internal frame numbering to stream display indices as
    /// `offset + scale * n`. Temporal-scalability sessions use this so
    /// the base layer labels frames 0, 2, 4, … and the enhancement
    /// layer 1, 3, 5, … while each coder still sees a dense sequence.
    pub fn set_display_mapping(&mut self, scale: usize, offset: usize) {
        assert!(scale >= 1);
        self.display_scale = scale;
        self.display_offset = offset;
    }

    /// Counter deltas accumulated over every `encode_vop` window so far
    /// — the paper's `VopCode()` burstiness instrumentation.
    pub fn vop_window(&self) -> m4ps_memsim::Counters {
        self.vop.vop_window
    }

    /// Reconstruction of the most recent anchor (reference for temporal
    /// enhancement layers).
    pub fn last_anchor(&self) -> Option<&TracedFrame> {
        self.have_anchor.then(|| &self.anchors[self.prev_anchor])
    }

    /// Coding type of display index `idx` under the configured GOP.
    fn kind_for(&self, idx: usize) -> VopKind {
        let gop = self.vop.config.gop;
        if idx.is_multiple_of(gop.intra_period) {
            VopKind::I
        } else if idx.is_multiple_of(gop.b_frames + 1) {
            VopKind::P
        } else {
            VopKind::B
        }
    }

    /// Submits the next display-order frame. Returns the VOPs that became
    /// encodable (possibly none while B-frames queue up).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::DimensionMismatch`] for wrong plane sizes
    /// or a frame whose size is not the VOL's,
    /// [`CodecError::InvalidConfig`] when a shape layer is not given an
    /// alpha mask (or vice versa) or the mask is not `width × height`,
    /// and [`CodecError::SliceTaskPanicked`] when a slice task panicked.
    pub fn encode_frame<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        frame: &FrameView<'_>,
        alpha: Option<&[u8]>,
    ) -> Result<Vec<EncodedVop>, CodecError> {
        self.check_input(frame, alpha)?;
        let idx = self.next_display;
        self.next_display += 1;
        let kind = self.kind_for(idx);
        let idx = self.display_offset + self.display_scale * idx;

        if kind == VopKind::B && self.have_anchor && self.queue_len < self.b_slots.len() {
            let slot = &mut self.b_slots[self.queue_len];
            span!(mem, Phase::FrameIo, {
                if let Some(mask) = alpha {
                    let bbox = mask_bbox(mask, self.vol.width, self.vol.height);
                    slot.frame
                        .copy_region_from_yuv(mem, frame.y, frame.u, frame.v, bbox);
                } else {
                    slot.frame.copy_from_yuv(
                        mem,
                        frame.y,
                        frame.u,
                        frame.v,
                        self.vop.config.software_prefetch,
                    );
                }
                if let (Some(plane), Some(mask)) = (slot.alpha.as_mut(), alpha) {
                    let bbox = mask_bbox(mask, plane.width(), plane.height());
                    // Clear the slot's previous object region, then load the
                    // new VOP-sized alpha region (as the reference codec
                    // loads per-VOP segmentation buffers).
                    let (px, py, pw, ph) = slot.bbox;
                    if pw > 0 {
                        plane.clear_region(mem, px, py, pw, ph);
                    }
                    plane.copy_region_from(mem, mask, bbox);
                    slot.bbox = bbox;
                }
            });
            slot.display_index = idx;
            self.queue_len += 1;
            return Ok(Vec::new());
        }

        // Anchor path (also handles a B that could not queue: encode as P).
        let kind = if kind == VopKind::B { VopKind::P } else { kind };
        self.load_cur(mem, frame, alpha);
        let mut out = Vec::with_capacity(1 + self.queue_len);
        out.push(self.encode_anchor(mem, kind, idx, None)?);
        self.drain_b_queue(mem, &mut out)?;
        Ok(out)
    }

    /// Checks a submitted frame, and a shape layer's mask, against the
    /// VOL before any of it is loaded.
    fn check_input(&self, frame: &FrameView<'_>, alpha: Option<&[u8]>) -> Result<(), CodecError> {
        frame.validate()?;
        let (width, height) = (self.vol.width, self.vol.height);
        if (frame.width, frame.height) != (width, height) {
            return Err(CodecError::DimensionMismatch {
                expected: (width, height),
                found: (frame.width, frame.height),
            });
        }
        if self.vol.binary_shape != alpha.is_some() {
            return Err(CodecError::InvalidConfig(
                "alpha mask must be supplied exactly for binary-shape layers",
            ));
        }
        if alpha.is_some_and(|mask| mask.len() != width * height) {
            return Err(CodecError::InvalidConfig(
                "alpha mask must hold width × height bytes",
            ));
        }
        Ok(())
    }

    /// Loads `frame`, and a shape layer's mask, into `self.cur`.
    fn load_cur<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        frame: &FrameView<'_>,
        alpha: Option<&[u8]>,
    ) {
        span!(mem, Phase::FrameIo, {
            if let Some(mask) = alpha {
                // Shaped objects load only their VOP-sized region.
                let bbox = mask_bbox(mask, self.vol.width, self.vol.height);
                self.cur
                    .copy_region_from_yuv(mem, frame.y, frame.u, frame.v, bbox);
            } else {
                self.cur.copy_from_yuv(
                    mem,
                    frame.y,
                    frame.u,
                    frame.v,
                    self.vop.config.software_prefetch,
                );
            }
            if let (Some(plane), Some(mask)) = (self.cur_alpha.as_mut(), alpha) {
                let bbox = mask_bbox(mask, plane.width(), plane.height());
                if let Some((px, py, pw, ph)) = self.prev_alpha_bbox {
                    plane.clear_region(mem, px, py, pw, ph);
                }
                plane.copy_region_from(mem, mask, bbox);
                self.prev_alpha_bbox = Some(bbox);
                self.cur_bbox = bbox;
            }
        });
    }

    /// Encodes an anchor from `self.cur`, or from B slot `q` when
    /// `queued` is `Some(q)`, into the anchor buffer that does not hold
    /// the newest reference, and makes it the newest reference.
    fn encode_anchor<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        kind: VopKind,
        display_index: usize,
        queued: Option<usize>,
    ) -> Result<EncodedVop, CodecError> {
        let kind = if self.have_anchor { kind } else { VopKind::I };
        let new_idx = if self.have_anchor {
            1 - self.prev_anchor
        } else {
            0
        };
        let (cur, alpha) = match queued {
            Some(q) => {
                let slot = &self.b_slots[q];
                (&slot.frame, slot.alpha.as_ref().map(|a| (a, slot.bbox)))
            }
            None => (
                &self.cur,
                self.cur_alpha.as_ref().map(|a| (a, self.cur_bbox)),
            ),
        };
        let [a0, a1] = &mut self.anchors;
        let (recon, prev) = if new_idx == 0 { (a0, &*a1) } else { (a1, &*a0) };
        // Rectangular VOPs pad the whole reference frame; shaped VOPs
        // are padded VOP-locally (the grey ring around the bounding
        // box), as the reference codec pads VOP buffers.
        let vop = self.vop.code(
            mem,
            kind,
            display_index,
            cur,
            alpha,
            (kind != VopKind::I).then_some(prev),
            None,
            recon,
            !self.vol.binary_shape,
        )?;
        self.prev_anchor = new_idx;
        self.have_anchor = true;
        Ok(vop)
    }

    /// Encodes every queued B-frame into `out`, one VOP after another,
    /// against the two live anchors: forward from the older, backward
    /// from the newer. Under rate control each VOP's bit count sets the
    /// next one's quantizer.
    fn drain_b_queue<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        out: &mut Vec<EncodedVop>,
    ) -> Result<(), CodecError> {
        let older = 1 - self.prev_anchor;
        let (fwd, bwd) = (&self.anchors[older], &self.anchors[1 - older]);
        let queued = std::mem::take(&mut self.queue_len);
        for slot in &self.b_slots[..queued] {
            out.push(self.vop.code(
                mem,
                VopKind::B,
                slot.display_index,
                &slot.frame,
                slot.alpha.as_ref().map(|a| (a, slot.bbox)),
                Some(fwd),
                Some(bwd),
                &mut self.b_recon,
                false,
            )?);
        }
        Ok(())
    }

    /// Encodes any still-queued B-frames as trailing P-VOPs and ends the
    /// stream. Call once after the last [`VideoObjectCoder::encode_frame`].
    ///
    /// # Errors
    ///
    /// [`CodecError::SliceTaskPanicked`] when a slice task panicked.
    pub fn flush<M: ParallelModel>(&mut self, mem: &mut M) -> Result<Vec<EncodedVop>, CodecError> {
        let queued = std::mem::take(&mut self.queue_len);
        let mut out = Vec::with_capacity(queued);
        for q in 0..queued {
            let idx = self.b_slots[q].display_index;
            out.push(self.encode_anchor(mem, VopKind::P, idx, Some(q))?);
        }
        Ok(out)
    }

    /// Encodes one frame as a P-VOP predicted from an external reference
    /// (the temporal-scalability enhancement path: `ext` is the base
    /// layer's latest anchor reconstruction).
    ///
    /// # Errors
    ///
    /// Same conditions as [`VideoObjectCoder::encode_frame`].
    pub fn encode_p_with_ref<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        frame: &FrameView<'_>,
        alpha: Option<&[u8]>,
        ext: &TracedFrame,
    ) -> Result<EncodedVop, CodecError> {
        self.check_input(frame, alpha)?;
        let idx = self.next_display;
        self.next_display += 1;
        let idx = self.display_offset + self.display_scale * idx;
        self.load_cur(mem, frame, alpha);
        self.vop.code(
            mem,
            VopKind::P,
            idx,
            &self.cur,
            self.cur_alpha.as_ref().map(|a| (a, self.cur_bbox)),
            Some(ext),
            None,
            &mut self.b_recon,
            false,
        )
    }
}

impl VopCoder {
    /// The pool VOP work is scheduled onto, created on first use.
    fn pool_handle(&mut self) -> Arc<WorkerPool> {
        if self.pool.is_none() {
            let pool = if self.threads_hint > 0 {
                WorkerPool::new(self.threads_hint)
            } else {
                WorkerPool::from_env()
            };
            self.pool = Some(Arc::new(pool));
        }
        Arc::clone(self.pool.as_ref().expect("pool just created"))
    }

    /// Codes one VOP of `kind` from `cur` (and its shape) into `recon`,
    /// inside one `VopCode()` counter window that also bounds the
    /// `VopEncode` span. `pad` pads `recon`'s borders inside that window.
    /// Keeps the reconstruction copy when asked and feeds the VOP's bits
    /// to the stream cursor and the rate controller.
    #[allow(clippy::too_many_arguments)]
    fn code<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        kind: VopKind,
        display_index: usize,
        cur: &TracedFrame,
        alpha: Option<(&TracedPlane, Bbox)>,
        fwd: Option<&TracedFrame>,
        bwd: Option<&TracedFrame>,
        recon: &mut TracedFrame,
        pad: bool,
    ) -> Result<EncodedVop, CodecError> {
        let qp = self.rate.qp_for(kind);
        let header = VopHeader {
            kind,
            display_index: display_index as u32,
            qp,
            bbox: None, // filled inside encode_vop for shape layers
            resync_interval: self.config.resync_mb_interval,
            slices: self.config.slices,
        };
        let pool = self.pool_handle();
        let window_start = *mem.counters();
        // The VopEncode span reuses the paper's `VopCode()` counter
        // window: enter on the snapshot already taken for `vop_window`.
        let obs_on = m4ps_obs::enabled();
        if obs_on {
            m4ps_obs::enter(Phase::VopEncode, window_start);
        }
        let body = encode_vop(
            mem,
            header,
            cur,
            alpha,
            fwd,
            bwd,
            recon,
            &self.texture,
            &mut self.slice_scratch,
            &self.search,
            self.stream_base + self.stream_bits / 8,
            self.mb_cols,
            self.mb_rows,
            self.config.four_mv,
            &pool,
            self.sched,
        );
        if pad && body.is_ok() {
            recon.pad_borders(mem);
        }
        if obs_on {
            m4ps_obs::exit(Phase::VopEncode, *mem.counters());
        }
        let (bytes, stats) = body?;
        self.vop_window = self
            .vop_window
            .merged_with(&mem.counters().delta_since(&window_start));
        let recon_copy = self.keep_recon.then(|| ReconPlanes {
            y: recon.y.copy_out(mem),
            u: recon.u.copy_out(mem),
            v: recon.v.copy_out(mem),
        });
        self.stream_bits += stats.bits;
        self.rate.update(kind, stats.bits);
        Ok(EncodedVop {
            kind,
            display_index,
            qp,
            bytes,
            stats,
            recon: recon_copy,
        })
    }
}

/// Intra/inter decision bias (H.263 Annex: intra when block deviation is
/// clearly below the best SAD).
const INTRA_BIAS: u32 = 512;

/// Byte-aligned resynchronization-marker word.
pub(crate) const RESYNC_MARKER: u16 = 0x5a3c;

/// Macroblock-aligned bounding box of a raw segmentation mask. This is
/// *untraced*: the reference codec reads each VOP's geometry from its
/// pre-segmented input file header, so the box is workload metadata, not
/// codec memory traffic.
pub(crate) fn mask_bbox(mask: &[u8], width: usize, height: usize) -> Bbox {
    let (mut x0, mut y0, mut x1, mut y1) = (width, height, 0usize, 0usize);
    for y in 0..height {
        for x in 0..width {
            if mask[y * width + x] != 0 {
                x0 = x0.min(x);
                y0 = y0.min(y);
                x1 = x1.max(x + 1);
                y1 = y1.max(y + 1);
            }
        }
    }
    if x0 >= x1 {
        return (0, 0, 16, 16); // empty mask: one transparent BAB
    }
    let ax0 = x0 / 16 * 16;
    let ay0 = y0 / 16 * 16;
    let ax1 = x1.div_ceil(16) * 16;
    let ay1 = y1.div_ceil(16) * 16;
    (ax0, ay0, ax1.min(width) - ax0, ay1.min(height) - ay0)
}

/// Fills one macroblock of `recon` with mid-grey (deterministic extended
/// padding — keeps encoder and decoder references bit-identical around
/// and inside transparent regions).
pub(crate) fn fill_grey_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    recon: &mut F,
    mbx: usize,
    mby: usize,
) {
    let (ry, ru, rv) = recon.planes_mut();
    // Luma rows are consecutive: one rectangular store. The chroma loop
    // interleaves the U and V planes and must keep that charge order.
    ry.store_rect(
        mem,
        (mbx * 16) as isize,
        (mby * 16) as isize,
        16,
        &[128u8; 256],
    );
    let grey8 = [128u8; 8];
    for r in 0..8 {
        ru.store_row(mem, (mbx * 8) as isize, (mby * 8 + r) as isize, &grey8);
        rv.store_row(mem, (mbx * 8) as isize, (mby * 8 + r) as isize, &grey8);
    }
}

/// Extends grey fill to a ring of macroblocks around the bounding box so
/// motion search windows that spill past the box read deterministic data.
pub(crate) fn fill_bbox_ring<M: MemModel, F: FrameSink>(
    mem: &mut M,
    recon: &mut F,
    bbox: (usize, usize, usize, usize),
    mb_cols: usize,
    mb_rows: usize,
) {
    const RING_MBS: usize = 2;
    let (bx0, by0, bw, bh) = bbox;
    let mbx0 = (bx0 / 16).saturating_sub(RING_MBS);
    let mby0 = (by0 / 16).saturating_sub(RING_MBS);
    let mbx1 = ((bx0 + bw) / 16 + RING_MBS).min(mb_cols);
    let mby1 = ((by0 + bh) / 16 + RING_MBS).min(mb_rows);
    for mby in mby0..mby1 {
        for mbx in mbx0..mbx1 {
            let inside =
                mbx * 16 >= bx0 && mbx * 16 < bx0 + bw && mby * 16 >= by0 && mby * 16 < by0 + bh;
            if !inside {
                fill_grey_mb(mem, recon, mbx, mby);
            }
        }
    }
}

/// Simulated-address stride between the per-slice bitstream staging
/// buffers. Each slice charges its bitstream traffic to its own 64 KiB
/// window past the parent's write position, so the charge addresses are
/// a function of the slice index alone — never of which thread ran the
/// slice — keeping merged counters scheduling-independent.
pub(crate) const SLICE_CHARGE_SPAN: u64 = 64 * 1024;

/// Reusable per-slice coding state: the texture pipeline's traced
/// scratch buffers, the slice's motion-vector predictors and the motion
/// search's charge batch. Cloned from the coder's template once per
/// slice index and recycled every VOP — texture clones keep their
/// simulated base addresses, so reuse charges exactly the traffic a
/// fresh clone would.
#[derive(Debug)]
pub(crate) struct SliceScratch {
    pub(crate) texture: TextureCoder,
    pub(crate) fwd_pred: MvPredictor,
    pub(crate) bwd_pred: MvPredictor,
    pub(crate) me_charges: SearchCharges,
}

impl SliceScratch {
    pub(crate) fn new(template: &TextureCoder, mb_cols: usize) -> Self {
        SliceScratch {
            texture: template.clone(),
            fwd_pred: MvPredictor::new(mb_cols),
            bwd_pred: MvPredictor::new(mb_cols),
            me_charges: SearchCharges::default(),
        }
    }
}

/// Encodes one VOP. Returns the byte payload and statistics.
///
/// A single-slice VOP (the paper configuration) codes its rows straight
/// into the header's writer and charge window on the caller's model.
/// When `header.slices > 1` the macroblock rows are partitioned with
/// [`partition_rows`] and the slices run as row chains on `pool`
/// ([`run_row_chains`]). Each slice encodes into its own [`BitWriter`]
/// against a forked memory model ([`ParallelModel::fork`]), reads the
/// shared reference frames by `&`, and writes the reconstruction *in
/// place* through a disjoint [`FrameViewMut`](crate::FrameViewMut) over
/// its macroblock rows — no frame clone, no stitch-back copy. Because the
/// partition, per-slice prediction resets and charge addresses depend
/// only on the *slice count* (a bitstream parameter), the output is
/// bit-exact for any thread count.
///
/// # Errors
///
/// [`CodecError::SliceTaskPanicked`] when a slice task panicked.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_vop<M: ParallelModel>(
    mem: &mut M,
    mut header: VopHeader,
    cur: &TracedFrame,
    alpha: Option<(&TracedPlane, Bbox)>,
    fwd: Option<&TracedFrame>,
    bwd: Option<&TracedFrame>,
    recon: &mut TracedFrame,
    texture: &TextureCoder,
    scratch: &mut Vec<SliceScratch>,
    search: &MotionSearch,
    stream_base: u64,
    mb_cols: usize,
    mb_rows: usize,
    four_mv: bool,
    pool: &WorkerPool,
    sched: Scheduling,
) -> Result<(Vec<u8>, VopStats), CodecError> {
    let mut w = BitWriter::new();
    let mut charge = StreamCharge::writer(stream_base);

    let bbox = alpha.map(|(_, b)| b);
    header.bbox = bbox;

    let (mbx_range, mby_range) = match bbox {
        Some((x0, y0, bw, bh)) => (x0 / 16..(x0 + bw) / 16, y0 / 16..(y0 + bh) / 16),
        None => (0..mb_cols, 0..mb_rows),
    };
    let slice_rows = partition_rows(mby_range.clone(), header.slices);
    header.slices = slice_rows.len();
    while scratch.len() < slice_rows.len() {
        scratch.push(SliceScratch::new(texture, mb_cols));
    }

    header.write(&mut w);
    if let Some((a, b)) = alpha {
        span!(mem, Phase::Shape, encode_alpha_plane(mem, a, b, &mut w));
    }
    let ctx = SliceCtx {
        hdr: header,
        cur,
        alpha,
        fwd,
        bwd,
        search,
        mbx_range,
        four_mv,
    };

    if header.slices == 1 {
        // Unsliced: code straight into the header's writer (the legacy
        // single-threaded layout — no alignment between header and MBs).
        charge.charge_to(mem, w.bit_len());
        let mut slice = EncodeSlice::new(&ctx, recon, &mut scratch[0], w, charge, 0, 0);
        span!(
            mem,
            Phase::Slice,
            step_rows(&mut slice, mem, mby_range.clone(), mby_range.start)
        )?;
        let EncodeSlice {
            mut w,
            mut charge,
            mut stats,
            ..
        } = slice;
        if let Some(bbox) = bbox {
            fill_bbox_ring(mem, recon, bbox, mb_cols, mb_rows);
        }
        w.stuff_to_alignment();
        charge.charge_to(mem, w.bit_len());
        stats.bits = w.bit_len();
        return Ok((w.into_bytes(), stats));
    }

    // Sliced: the header segment ends byte-aligned so every slice
    // segment starts and ends on a byte boundary and concatenates
    // without bit-shifting. Each slice gets a fresh segment with its own
    // charge window.
    w.stuff_to_alignment();
    charge.charge_to(mem, w.bit_len());
    let mut stats = VopStats {
        bits: w.bit_len(),
        ..VopStats::default()
    };
    let mut bytes = w.into_bytes();
    let mut views = recon.split_mb_rows_mut(&slice_rows);
    let slices = slice_rows
        .iter()
        .zip(&mut views)
        .zip(scratch.iter_mut())
        .enumerate()
        .map(|(s, ((rows, view), sc))| {
            let mbs = ctx.mbx_range.len();
            let first_mb = (rows.start - mby_range.start) * mbs;
            let w = BitWriter::with_capacity(rows.len() * mbs * 32 + 64);
            let charge = StreamCharge::writer(stream_base + (s as u64 + 1) * SLICE_CHARGE_SPAN);
            let slice = EncodeSlice::new(&ctx, view, sc, w, charge, s, first_mb);
            (rows.clone(), slice)
        });
    run_row_chains(mem, pool, sched, slices, |(sbytes, sstats)| {
        stats.merge(&sstats);
        bytes.extend_from_slice(&sbytes);
    })?;
    drop(views);
    if let Some(bbox) = bbox {
        fill_bbox_ring(mem, recon, bbox, mb_cols, mb_rows);
    }
    Ok((bytes, stats))
}

/// Read-shared context for one VOP's slices.
struct SliceCtx<'a> {
    hdr: VopHeader,
    cur: &'a TracedFrame,
    alpha: Option<(&'a TracedPlane, Bbox)>,
    fwd: Option<&'a TracedFrame>,
    bwd: Option<&'a TracedFrame>,
    search: &'a MotionSearch,
    mbx_range: Range<usize>,
    four_mv: bool,
}

/// One slice of a VOP as the encoder codes it: its reconstruction rows,
/// recycled scratch, writer, charge window and statistics, and the
/// macroblock counter for resync markers. A single-slice VOP runs it on
/// the caller's writer and window; a slice chain on its own segment.
struct EncodeSlice<'a, F> {
    ctx: &'a SliceCtx<'a>,
    recon: &'a mut F,
    scratch: &'a mut SliceScratch,
    w: BitWriter,
    charge: StreamCharge,
    stats: VopStats,
    slice_index: usize,
    /// VOP-wide index of the slice's first macroblock. The in-slice
    /// counter starts there so resynchronization markers keep their
    /// absolute indices, and the `> first_mb` guard keeps a marker off
    /// the slice's first macroblock (the slice header already is one).
    first_mb: usize,
    mb_counter: usize,
}

impl<'a, F> EncodeSlice<'a, F> {
    fn new(
        ctx: &'a SliceCtx<'a>,
        recon: &'a mut F,
        scratch: &'a mut SliceScratch,
        w: BitWriter,
        charge: StreamCharge,
        slice_index: usize,
        first_mb: usize,
    ) -> Self {
        EncodeSlice {
            ctx,
            recon,
            scratch,
            w,
            charge,
            stats: VopStats::default(),
            slice_index,
            first_mb,
            mb_counter: first_mb,
        }
    }
}

impl<M: MemModel, F: FrameSink> SliceBody<M> for EncodeSlice<'_, F> {
    const PHASE: Phase = Phase::Slice;
    /// The slice's byte-aligned bitstream segment and its statistics.
    type Out = (Vec<u8>, VopStats);

    /// Encodes one macroblock row — the wavefront task granule. All
    /// state that crosses row boundaries within a slice (the MV
    /// predictors' row window, the macroblock counter for resync
    /// markers, the bit position) lives in the slice. Prediction state
    /// starts from reset on the first row, exactly as after a resync
    /// marker, so no prediction crosses a slice boundary.
    fn step(&mut self, mem: &mut M, mby: usize, first: bool) -> Result<(), CodecError> {
        let EncodeSlice {
            ctx,
            recon,
            scratch,
            w,
            charge,
            stats,
            slice_index,
            first_mb,
            mb_counter,
        } = self;
        let (header, recon, first_mb) = (&ctx.hdr, &mut **recon, *first_mb);
        let qp = header.qp;
        let SliceScratch {
            texture,
            fwd_pred,
            bwd_pred,
            me_charges,
        } = &mut **scratch;
        if first {
            if *slice_index > 0 {
                // Slice header: the resync word, the index of the slice's
                // first macroblock, and the quantizer.
                let before = w.bit_len();
                w.put_bits(u32::from(RESYNC_MARKER), 16);
                put_ue(w, first_mb as u32);
                w.put_bits(u32::from(qp), 5);
                m4ps_obs::counter_add(
                    MetricId::ResyncMarkerBytes,
                    (w.bit_len() - before).div_ceil(8),
                );
            }
            // Recycled predictors start from reset — the same state a
            // fresh `MvPredictor::new` carries, as pinned by the
            // parallel tests.
            fwd_pred.reset();
            bwd_pred.reset();
        }
        fwd_pred.start_row();
        bwd_pred.start_row();
        let mut ips = IntraPredState::reset();
        for mbx in ctx.mbx_range.clone() {
            if let Some(interval) = header.resync_interval {
                if *mb_counter > first_mb && mb_counter.is_multiple_of(interval) {
                    // Resynchronization point: byte-aligned marker, the
                    // macroblock index, the quantizer, and a full
                    // prediction reset (no prediction crosses a marker).
                    let before = w.bit_len();
                    w.stuff_to_alignment();
                    w.put_bits(u32::from(RESYNC_MARKER), 16);
                    put_ue(w, *mb_counter as u32);
                    w.put_bits(u32::from(qp), 5);
                    m4ps_obs::counter_add(
                        MetricId::ResyncMarkerBytes,
                        (w.bit_len() - before).div_ceil(8),
                    );
                    fwd_pred.reset();
                    bwd_pred.reset();
                    ips = IntraPredState::reset();
                }
            }
            *mb_counter += 1;
            let transparent = match ctx.alpha {
                Some((a, _)) => span!(
                    mem,
                    Phase::Shape,
                    classify_bab(mem, a, mbx, mby) == BabClass::Transparent
                ),
                None => false,
            };
            if transparent {
                stats.transparent_mbs += 1;
                fill_grey_mb(mem, recon, mbx, mby);
                fwd_pred.commit(mbx, MotionVector::ZERO);
                bwd_pred.commit(mbx, MotionVector::ZERO);
                ips = IntraPredState::reset();
                continue;
            }
            texture.charge_mb_overhead(mem);
            match header.kind {
                VopKind::I => {
                    // One span covers the whole intra texture pipeline
                    // (DCT + quant + VLC + recon): intra MBs would cost
                    // 18+ span pairs each at block granularity.
                    span!(
                        mem,
                        Phase::DctQuant,
                        encode_intra_mb(mem, ctx.cur, recon, texture, qp, mbx, mby, &mut ips, w)
                    );
                    stats.intra_mbs += 1;
                    fwd_pred.commit(mbx, MotionVector::ZERO);
                }
                VopKind::P => {
                    let reference = ctx.fwd.expect("P-VOP requires a forward reference");
                    encode_p_mb(
                        mem,
                        ctx.cur,
                        reference,
                        recon,
                        texture,
                        me_charges,
                        ctx.search,
                        qp,
                        mbx,
                        mby,
                        &mut ips,
                        fwd_pred,
                        w,
                        stats,
                        ctx.four_mv,
                    );
                }
                VopKind::B => {
                    let f = ctx.fwd.expect("B-VOP requires a forward reference");
                    let b = ctx.bwd.expect("B-VOP requires a backward reference");
                    encode_b_mb(
                        mem, ctx.cur, f, b, recon, texture, me_charges, ctx.search, qp, mbx, mby,
                        fwd_pred, bwd_pred, w, stats,
                    );
                    ips = IntraPredState::reset();
                }
            }
            charge.charge_to(mem, w.bit_len());
        }
        Ok(())
    }

    /// Stuffs the segment to a byte boundary, charges its last bytes and
    /// returns it with the slice's statistics.
    fn finish(&mut self, mem: &mut M) -> Self::Out {
        self.w.stuff_to_alignment();
        self.charge.charge_to(mem, self.w.bit_len());
        self.stats.bits = self.w.bit_len();
        (std::mem::take(&mut self.w).into_bytes(), self.stats)
    }
}

/// Encodes the six blocks of an intra macroblock.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_intra_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    cur: &TracedFrame,
    recon: &mut F,
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
    ips: &mut IntraPredState,
    w: &mut BitWriter,
) {
    let (ry, ru, rv) = recon.planes_mut();
    let px = (mbx * 16) as isize;
    let py = (mby * 16) as isize;
    for blk in 0..4 {
        let bx = px + ((blk % 2) * 8) as isize;
        let by = py + ((blk / 2) * 8) as isize;
        let samples = read_block(mem, &cur.y, bx, by);
        let qb = texture.transform_quant(mem, &samples, true, qp);
        texture.entropy_encode(mem, &qb, ips.y, w);
        ips.y = qb.qdc();
        let rec = texture.reconstruct(mem, &qb, qp);
        write_block(mem, ry, bx, by, &rec);
    }
    let cx = (mbx * 8) as isize;
    let cy = (mby * 8) as isize;
    for (plane_idx, (src, dst)) in [(&cur.u, ru), (&cur.v, rv)].into_iter().enumerate() {
        let samples = read_block(mem, src, cx, cy);
        let qb = texture.transform_quant(mem, &samples, true, qp);
        let pred = if plane_idx == 0 { ips.u } else { ips.v };
        texture.entropy_encode(mem, &qb, pred, w);
        if plane_idx == 0 {
            ips.u = qb.qdc();
        } else {
            ips.v = qb.qdc();
        }
        let rec = texture.reconstruct(mem, &qb, qp);
        write_block(mem, dst, cx, cy, &rec);
    }
}

/// Motion-compensates the full macroblock (luma 16×16 + both chroma 8×8)
/// from `reference` and returns the three prediction buffers.
fn predict_mb<M: MemModel>(
    mem: &mut M,
    reference: &TracedFrame,
    texture: &TextureCoder,
    mv: MotionVector,
    mbx: usize,
    mby: usize,
) -> ([u8; 256], [u8; 64], [u8; 64]) {
    span!(mem, Phase::McPredict, {
        let mut pred_y = [0u8; 256];
        motion_compensate_block(
            mem,
            &reference.y,
            mv,
            (mbx * 16) as isize,
            (mby * 16) as isize,
            16,
            16,
            &mut pred_y,
        );
        let cmv = chroma_mv(mv);
        let mut pred_u = [0u8; 64];
        let mut pred_v = [0u8; 64];
        motion_compensate_block(
            mem,
            &reference.u,
            cmv,
            (mbx * 8) as isize,
            (mby * 8) as isize,
            8,
            8,
            &mut pred_u,
        );
        motion_compensate_block(
            mem,
            &reference.v,
            cmv,
            (mbx * 8) as isize,
            (mby * 8) as isize,
            8,
            8,
            &mut pred_v,
        );
        texture.charge_pred_store(mem, 384);
        (pred_y, pred_u, pred_v)
    })
}

/// Builds the prediction buffers for a four-vector (advanced
/// prediction) macroblock: each luma quadrant is compensated with its
/// own vector; chroma uses the truncated average of the four.
pub(crate) fn predict_mb_4mv<M: MemModel>(
    mem: &mut M,
    reference: &TracedFrame,
    texture: &TextureCoder,
    mvs: &[MotionVector; 4],
    mbx: usize,
    mby: usize,
) -> ([u8; 256], [u8; 64], [u8; 64]) {
    span!(mem, Phase::McPredict, {
        let mut pred_y = [0u8; 256];
        for (blk, mv) in mvs.iter().enumerate() {
            let bx = (mbx * 16 + (blk % 2) * 8) as isize;
            let by = (mby * 16 + (blk / 2) * 8) as isize;
            let mut quad = [0u8; 64];
            motion_compensate_block(mem, &reference.y, *mv, bx, by, 8, 8, &mut quad);
            let (qx, qy) = ((blk % 2) * 8, (blk / 2) * 8);
            for r in 0..8 {
                for c in 0..8 {
                    pred_y[(qy + r) * 16 + qx + c] = quad[r * 8 + c];
                }
            }
        }
        let sum_x: i32 = mvs.iter().map(|v| i32::from(v.x)).sum();
        let sum_y: i32 = mvs.iter().map(|v| i32::from(v.y)).sum();
        let avg = MotionVector::new((sum_x / 4) as i16, (sum_y / 4) as i16);
        let cmv = chroma_mv(avg);
        let mut pred_u = [0u8; 64];
        let mut pred_v = [0u8; 64];
        motion_compensate_block(
            mem,
            &reference.u,
            cmv,
            (mbx * 8) as isize,
            (mby * 8) as isize,
            8,
            8,
            &mut pred_u,
        );
        motion_compensate_block(
            mem,
            &reference.v,
            cmv,
            (mbx * 8) as isize,
            (mby * 8) as isize,
            8,
            8,
            &mut pred_v,
        );
        texture.charge_pred_store(mem, 384);
        (pred_y, pred_u, pred_v)
    })
}

/// Quantizes the six residual blocks of an inter MB against the given
/// prediction; returns the per-block levels and the cbp mask.
#[allow(clippy::too_many_arguments)]
fn quantize_inter_mb<M: MemModel>(
    mem: &mut M,
    cur: &TracedFrame,
    pred_y: &[u8; 256],
    pred_u: &[u8; 64],
    pred_v: &[u8; 64],
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
) -> ([crate::texture::QuantizedBlock; 6], [bool; 6]) {
    span!(mem, Phase::DctQuant, {
        texture.charge_pred_load(mem, 384);
        let mut blocks = [crate::texture::QuantizedBlock {
            levels: m4ps_dsp::CoefBlock::default(),
            intra: false,
        }; 6];
        let mut cbp = [false; 6];
        for (blk, coded) in cbp.iter_mut().enumerate().take(4) {
            let bx = (mbx * 16 + (blk % 2) * 8) as isize;
            let by = (mby * 16 + (blk / 2) * 8) as isize;
            let samples = read_block(mem, &cur.y, bx, by);
            let res = residual(&samples, &pred_subblock(pred_y, blk));
            let qb = texture.transform_quant(mem, &res, false, qp);
            *coded = !qb.is_empty_inter();
            blocks[blk] = qb;
        }
        let cx = (mbx * 8) as isize;
        let cy = (mby * 8) as isize;
        for (i, (src, pred)) in [(&cur.u, pred_u), (&cur.v, pred_v)].into_iter().enumerate() {
            let samples = read_block(mem, src, cx, cy);
            let res = residual(&samples, pred);
            let qb = texture.transform_quant(mem, &res, false, qp);
            cbp[4 + i] = !qb.is_empty_inter();
            blocks[4 + i] = qb;
        }
        (blocks, cbp)
    })
}

/// Reconstructs an inter MB from levels + prediction and stores it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reconstruct_inter_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    recon: &mut F,
    blocks: &[crate::texture::QuantizedBlock; 6],
    cbp: &[bool; 6],
    pred_y: &[u8; 256],
    pred_u: &[u8; 64],
    pred_v: &[u8; 64],
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
) {
    span!(mem, Phase::Recon, {
        texture.charge_pred_load(mem, 384);
        let (ry, ru, rv) = recon.planes_mut();
        for blk in 0..4 {
            let bx = (mbx * 16 + (blk % 2) * 8) as isize;
            let by = (mby * 16 + (blk / 2) * 8) as isize;
            let pred = pred_subblock(pred_y, blk);
            if cbp[blk] {
                let res = texture.reconstruct(mem, &blocks[blk], qp);
                write_block(mem, ry, bx, by, &add_prediction(&res, &pred));
            } else {
                // Uncoded block: the reconstruction is the prediction
                // itself (zero residual, clamp is the identity on u8).
                write_block_u8(mem, ry, bx, by, &pred);
            }
        }
        let cx = (mbx * 8) as isize;
        let cy = (mby * 8) as isize;
        for (i, (dst, pred)) in [(ru, pred_u), (rv, pred_v)].into_iter().enumerate() {
            if cbp[4 + i] {
                let res = texture.reconstruct(mem, &blocks[4 + i], qp);
                write_block(mem, dst, cx, cy, &add_prediction(&res, pred));
            } else {
                write_block_u8(mem, dst, cx, cy, pred);
            }
        }
    });
}

/// Sum of absolute deviations from the block mean (the H.263 intra/inter
/// decision statistic), with one traced pass over the macroblock.
fn mb_deviation<M: MemModel>(mem: &mut M, plane: &TracedPlane, px: isize, py: isize) -> u32 {
    plane.touch_rect_read(mem, px, py, 16, 16);
    mem.add_ops(2 * 256);
    let mut sum = 0u32;
    for r in 0..16 {
        let src = plane.raw_row(px, py + r, 16);
        sum += src.iter().map(|&v| u32::from(v)).sum::<u32>();
    }
    let mean = (sum / 256) as i32;
    let mut dev = 0u32;
    for r in 0..16 {
        let src = plane.raw_row(px, py + r, 16);
        for &v in src {
            dev += (i32::from(v) - mean).unsigned_abs();
        }
    }
    dev
}

/// Bit-cost bias an Inter4V macroblock must overcome (three extra
/// vector differences).
const FOUR_MV_BIAS: u32 = 300;

/// Encodes one macroblock of a P-VOP.
#[allow(clippy::too_many_arguments)]
fn encode_p_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    cur: &TracedFrame,
    reference: &TracedFrame,
    recon: &mut F,
    texture: &mut TextureCoder,
    me_charges: &mut SearchCharges,
    search: &MotionSearch,
    qp: u8,
    mbx: usize,
    mby: usize,
    ips: &mut IntraPredState,
    mv_pred: &mut MvPredictor,
    w: &mut BitWriter,
    stats: &mut VopStats,
    four_mv: bool,
) {
    let outcome = search.search_with(mem, me_charges, &cur.y, &reference.y, mbx, mby);
    stats.candidates += u64::from(outcome.candidates);

    // Advanced prediction: refine each 8x8 quadrant around the MB winner.
    let mut mvs4 = [outcome.mv; 4];
    let mut sad4 = u32::MAX;
    if four_mv {
        let mut total = 0u32;
        for (blk, mv) in mvs4.iter_mut().enumerate() {
            let bx = (mbx * 16 + (blk % 2) * 8) as isize;
            let by = (mby * 16 + (blk / 2) * 8) as isize;
            let o = search.refine_block8_with(
                mem,
                me_charges,
                &cur.y,
                &reference.y,
                bx,
                by,
                outcome.mv,
            );
            stats.candidates += u64::from(o.candidates);
            *mv = o.mv;
            total = total.saturating_add(o.sad);
        }
        sad4 = total;
    }
    let use_4mv = four_mv && sad4.saturating_add(FOUR_MV_BIAS) < outcome.sad;
    let best_sad = if use_4mv { sad4 } else { outcome.sad };

    let deviation = mb_deviation(mem, &cur.y, (mbx * 16) as isize, (mby * 16) as isize);

    if deviation + INTRA_BIAS < best_sad {
        // Intra wins.
        w.put_bit(false); // coded
        put_ue(w, MacroblockKind::Intra.code());
        span!(
            mem,
            Phase::DctQuant,
            encode_intra_mb(mem, cur, recon, texture, qp, mbx, mby, ips, w)
        );
        stats.intra_mbs += 1;
        mv_pred.commit(mbx, MotionVector::ZERO);
        return;
    }
    *ips = IntraPredState::reset();

    if use_4mv {
        let (pred_y, pred_u, pred_v) = predict_mb_4mv(mem, reference, texture, &mvs4, mbx, mby);
        let (blocks, cbp) =
            quantize_inter_mb(mem, cur, &pred_y, &pred_u, &pred_v, texture, qp, mbx, mby);
        span!(mem, Phase::Vlc, {
            w.put_bit(false); // coded
            put_ue(w, MacroblockKind::Inter4V.code());
            // Block 0 predicted from the neighbour median, blocks 1-3 chained
            // from the previous block of the same macroblock.
            let mut pred = mv_pred.predict(mbx);
            for mv in &mvs4 {
                put_se(w, i32::from(mv.x) - i32::from(pred.x));
                put_se(w, i32::from(mv.y) - i32::from(pred.y));
                pred = *mv;
            }
            for &b in &cbp {
                w.put_bit(b);
            }
            for (i, qb) in blocks.iter().enumerate() {
                if cbp[i] {
                    texture.entropy_encode(mem, qb, 0, w);
                }
            }
        });
        reconstruct_inter_mb(
            mem, recon, &blocks, &cbp, &pred_y, &pred_u, &pred_v, texture, qp, mbx, mby,
        );
        stats.inter_mbs += 1;
        mv_pred.commit(mbx, MotionVector::median3(mvs4[0], mvs4[1], mvs4[2]));
        return;
    }

    let (pred_y, pred_u, pred_v) = predict_mb(mem, reference, texture, outcome.mv, mbx, mby);
    let (blocks, cbp) =
        quantize_inter_mb(mem, cur, &pred_y, &pred_u, &pred_v, texture, qp, mbx, mby);

    if outcome.mv == MotionVector::ZERO && cbp.iter().all(|&b| !b) {
        w.put_bit(true); // skipped
        reconstruct_inter_mb(
            mem, recon, &blocks, &cbp, &pred_y, &pred_u, &pred_v, texture, qp, mbx, mby,
        );
        stats.skipped_mbs += 1;
        mv_pred.commit(mbx, MotionVector::ZERO);
        return;
    }

    span!(mem, Phase::Vlc, {
        w.put_bit(false); // coded
        put_ue(w, MacroblockKind::Inter.code());
        let pred = mv_pred.predict(mbx);
        put_se(w, i32::from(outcome.mv.x) - i32::from(pred.x));
        put_se(w, i32::from(outcome.mv.y) - i32::from(pred.y));
        for &b in &cbp {
            w.put_bit(b);
        }
        for (i, qb) in blocks.iter().enumerate() {
            if cbp[i] {
                texture.entropy_encode(mem, qb, 0, w);
            }
        }
    });
    reconstruct_inter_mb(
        mem, recon, &blocks, &cbp, &pred_y, &pred_u, &pred_v, texture, qp, mbx, mby,
    );
    stats.inter_mbs += 1;
    mv_pred.commit(mbx, outcome.mv);
}

/// SAD of the current MB against an arbitrary prediction buffer (used to
/// evaluate the bidirectional mode), with traced current reads.
fn sad_against_pred<M: MemModel>(
    mem: &mut M,
    cur: &TracedPlane,
    pred: &[u8; 256],
    mbx: usize,
    mby: usize,
) -> u32 {
    let (px, py) = ((mbx * 16) as isize, (mby * 16) as isize);
    cur.touch_rect_read(mem, px, py, 16, 16);
    mem.add_ops(16 * 48);
    let mut acc = 0u32;
    for r in 0..16 {
        let c = cur.raw_row(px, py + r as isize, 16);
        for i in 0..16 {
            acc += u32::from(c[i].abs_diff(pred[r * 16 + i]));
        }
    }
    acc
}

/// Encodes one macroblock of a B-VOP.
#[allow(clippy::too_many_arguments)]
fn encode_b_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    cur: &TracedFrame,
    fwd: &TracedFrame,
    bwd: &TracedFrame,
    recon: &mut F,
    texture: &mut TextureCoder,
    me_charges: &mut SearchCharges,
    search: &MotionSearch,
    qp: u8,
    mbx: usize,
    mby: usize,
    fwd_pred: &mut MvPredictor,
    bwd_pred: &mut MvPredictor,
    w: &mut BitWriter,
    stats: &mut VopStats,
) {
    let of = search.search_with(mem, me_charges, &cur.y, &fwd.y, mbx, mby);
    let ob = search.search_with(mem, me_charges, &cur.y, &bwd.y, mbx, mby);
    stats.candidates += u64::from(of.candidates + ob.candidates);

    // Evaluate the interpolated mode with the two winners.
    let (fy, fu, fv) = predict_mb(mem, fwd, texture, of.mv, mbx, mby);
    let (by_, bu, bv) = predict_mb(mem, bwd, texture, ob.mv, mbx, mby);
    let mut bi_y = [0u8; 256];
    average_predictions(&fy, &by_, &mut bi_y);
    let sad_bi = sad_against_pred(mem, &cur.y, &bi_y, mbx, mby);

    let kind = if sad_bi <= of.sad.min(ob.sad) {
        MacroblockKind::Bidirectional
    } else if of.sad <= ob.sad {
        MacroblockKind::Forward
    } else {
        MacroblockKind::Backward
    };

    let (pred_y, pred_u, pred_v) = match kind {
        MacroblockKind::Forward => (fy, fu, fv),
        MacroblockKind::Backward => (by_, bu, bv),
        _ => {
            let mut u = [0u8; 64];
            let mut v = [0u8; 64];
            average_predictions(&fu, &bu, &mut u);
            average_predictions(&fv, &bv, &mut v);
            (bi_y, u, v)
        }
    };

    // One Vlc span wraps the macroblock's whole entropy section; the
    // nested DctQuant span inside `quantize_inter_mb` subtracts itself
    // back out (exclusive attribution), so no Vlc/DctQuant bleed-over.
    let (blocks, cbp) = span!(mem, Phase::Vlc, {
        put_ue(w, kind.code());
        if kind != MacroblockKind::Backward {
            let p = fwd_pred.predict(mbx);
            put_se(w, i32::from(of.mv.x) - i32::from(p.x));
            put_se(w, i32::from(of.mv.y) - i32::from(p.y));
        }
        if kind != MacroblockKind::Forward {
            let p = bwd_pred.predict(mbx);
            put_se(w, i32::from(ob.mv.x) - i32::from(p.x));
            put_se(w, i32::from(ob.mv.y) - i32::from(p.y));
        }
        fwd_pred.commit(
            mbx,
            if kind != MacroblockKind::Backward {
                of.mv
            } else {
                MotionVector::ZERO
            },
        );
        bwd_pred.commit(
            mbx,
            if kind != MacroblockKind::Forward {
                ob.mv
            } else {
                MotionVector::ZERO
            },
        );

        let (blocks, cbp) =
            quantize_inter_mb(mem, cur, &pred_y, &pred_u, &pred_v, texture, qp, mbx, mby);
        for &b in &cbp {
            w.put_bit(b);
        }
        for (i, qb) in blocks.iter().enumerate() {
            if cbp[i] {
                texture.entropy_encode(mem, qb, 0, w);
            }
        }
        (blocks, cbp)
    });
    reconstruct_inter_mb(
        mem, recon, &blocks, &cbp, &pred_y, &pred_u, &pred_v, texture, qp, mbx, mby,
    );
    stats.inter_mbs += 1;
}
