//! The video-object decoder
//! (`DecodeVopCombMotionShapeTexture` in MoMuSys terms — the function
//! the paper instruments for its burstiness study).

use crate::encoder::{
    fill_bbox_ring, fill_grey_mb, predict_mb_4mv, reconstruct_inter_mb, SliceScratch, VopStats,
    RESYNC_MARKER, SLICE_CHARGE_SPAN,
};
use crate::error::CodecError;
use crate::header::{VolHeader, VopHeader, MAX_DIMENSION};
use crate::mbops::{
    chroma_mv, write_block, write_block_u8, IntraPredState, MvPredictor, StreamCharge,
};
use crate::mc::{average_predictions, motion_compensate_block};
use crate::plane::{FrameSink, TracedFrame, TracedPlane};
use crate::shape::{classify_bab, decode_alpha_plane, BabClass};
use crate::slices::{partition_rows, run_row_chains, step_rows, Scheduling, SliceBody};
use crate::texture::TextureCoder;
use crate::types::{MacroblockKind, MotionVector, VopKind};
use crate::vlc::{get_se, get_ue};
use m4ps_bitstream::{BitReader, BitstreamError, StartCode};
use m4ps_memsim::{AddressSpace, MemModel, ParallelModel};
use m4ps_obs::{span, Phase};
use m4ps_pool::WorkerPool;
use std::ops::Range;
use std::sync::Arc;

/// Largest legal motion-vector component in half-pels: the search range
/// plus half-pel refinement can never leave the [`crate::PAD`]-pixel
/// border, so anything larger marks a corrupt stream.
const MV_LIMIT: i32 = 2 * (crate::plane::PAD as i32 - 1);

/// Reconstructs a motion vector from its predictor and decoded
/// differences, validating the result against the padded surface.
fn checked_mv(pred: MotionVector, dx: i32, dy: i32) -> Result<MotionVector, CodecError> {
    let x = i32::from(pred.x) + dx;
    let y = i32::from(pred.y) + dy;
    if x.abs() > MV_LIMIT || y.abs() > MV_LIMIT {
        return Err(CodecError::InvalidStream("motion vector out of range"));
    }
    Ok(MotionVector::new(x as i16, y as i16))
}

/// One decoded VOP, in decode order.
#[derive(Debug, Clone)]
pub struct DecodedVop {
    /// Coding type.
    pub kind: VopKind,
    /// Display (temporal) index from the VOP header.
    pub display_index: usize,
    /// Quantizer used.
    pub qp: u8,
    /// Decode statistics.
    pub stats: VopStats,
    /// Raw copies of the reconstruction when requested via
    /// [`VideoObjectDecoder::set_keep_output`].
    pub planes: Option<crate::encoder::ReconPlanes>,
    /// Raw copy of the decoded alpha plane (binary-shape layers, when
    /// output keeping is on).
    pub alpha: Option<Vec<u8>>,
}

/// Decoder for one video object layer.
#[derive(Debug)]
pub struct VideoObjectDecoder {
    vol: VolHeader,
    mb_cols: usize,
    mb_rows: usize,
    anchors: [TracedFrame; 2],
    latest: usize,
    anchor_count: usize,
    b_recon: TracedFrame,
    alpha: Option<TracedPlane>,
    texture: TextureCoder,
    stream_base: u64,
    stream_bits: u64,
    keep_output: bool,
    /// Bounding box of the previous shaped VOP (cleared before each new
    /// alpha decode) and of the latest one (for the compositor).
    prev_bbox: Option<(usize, usize, usize, usize)>,
    /// Accumulated counter deltas over the VOP-decode windows — the
    /// paper's `DecodeVopCombMotionShapeTexture()` instrumentation.
    vop_window: m4ps_memsim::Counters,
    /// Worker pool multi-slice VOPs decode on, attached via
    /// [`VideoObjectDecoder::set_pool`] or created lazily on the first
    /// multi-slice VOP. Single-slice VOPs never touch it.
    pool: Option<Arc<WorkerPool>>,
    /// Thread count for a lazily created pool; 0 = one worker on the
    /// caller.
    threads_hint: usize,
    sched: Scheduling,
    /// Reusable per-slice decode state (texture scratch clones and MV
    /// predictors), grown on first use and recycled every VOP.
    slice_scratch: Vec<SliceScratch>,
}

impl VideoObjectDecoder {
    /// Creates a decoder by reading the VOL header from the start of the
    /// stream in `r`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when no valid VOL header is present.
    pub fn from_stream<M: MemModel>(
        space: &mut AddressSpace,
        mem: &mut M,
        r: &mut BitReader<'_>,
    ) -> Result<Self, CodecError> {
        let vol = VolHeader::read(r)?;
        let _ = mem;
        Self::with_vol(space, vol)
    }

    /// Creates a decoder for a known VOL header.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidStream`] for non-MB-aligned
    /// dimensions or dimensions above [`MAX_DIMENSION`].
    pub fn with_vol(space: &mut AddressSpace, vol: VolHeader) -> Result<Self, CodecError> {
        if !vol.width.is_multiple_of(16) || !vol.height.is_multiple_of(16) {
            return Err(CodecError::InvalidStream(
                "VOL dimensions must be multiples of 16",
            ));
        }
        if vol.width > MAX_DIMENSION || vol.height > MAX_DIMENSION {
            return Err(CodecError::InvalidStream(
                "VOL dimensions exceed MAX_DIMENSION",
            ));
        }
        space.set_tag("dec.reference_frames");
        let anchors = [
            TracedFrame::new(space, vol.width, vol.height),
            TracedFrame::new(space, vol.width, vol.height),
        ];
        space.set_tag("dec.b_recon");
        let b_recon = TracedFrame::new(space, vol.width, vol.height);
        space.set_tag("dec.alpha");
        let alpha = vol
            .binary_shape
            .then(|| TracedPlane::new(space, vol.width, vol.height));
        space.set_tag("dec.scratch");
        let texture = TextureCoder::new(space);
        space.set_tag("dec.bitstream");
        let stream_base = space.alloc(16 * 1024 * 1024);
        space.set_tag("untagged");
        Ok(VideoObjectDecoder {
            mb_cols: vol.width / 16,
            mb_rows: vol.height / 16,
            anchors,
            latest: 0,
            anchor_count: 0,
            b_recon,
            alpha,
            texture,
            stream_base,
            stream_bits: 0,
            keep_output: false,
            prev_bbox: None,
            vop_window: m4ps_memsim::Counters::new(),
            pool: None,
            threads_hint: 0,
            sched: Scheduling::from_env(),
            slice_scratch: Vec::new(),
            vol,
        })
    }

    /// Shares a persistent worker pool with this decoder; multi-slice
    /// VOPs decode their slices on it. Reconstruction, stats and merged
    /// counters are bit-identical at any thread count: the slice
    /// partition, per-slice forks and charge windows depend only on the
    /// bitstream's slice count, never on which thread runs a slice.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.threads_hint = pool.threads();
        self.pool = Some(pool);
    }

    /// Decodes multi-slice VOPs on a lazily created `threads`-wide pool
    /// (0 = one worker: every slice runs inline on the caller). Purely a
    /// scheduling knob: output is bit-identical across thread counts.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.min(256);
        self.threads_hint = threads;
        match (&self.pool, threads) {
            (Some(_), 0) => self.pool = None,
            (Some(p), t) if p.threads() != t => self.pool = None,
            _ => {}
        }
    }

    /// Selects how a VOP's slice work is decomposed onto the pool (see
    /// [`Scheduling`]). Output is bit-identical across modes.
    pub fn set_scheduling(&mut self, sched: Scheduling) {
        self.sched = sched;
    }

    /// The worker thread count slices are decoded on (0 = one worker on
    /// the caller).
    pub fn threads(&self) -> usize {
        match (&self.pool, self.threads_hint) {
            (Some(p), _) => p.threads(),
            (None, hint) => hint,
        }
    }

    /// The VOL header of this layer.
    pub fn vol(&self) -> &VolHeader {
        &self.vol
    }

    /// Keep raw plane copies in every [`DecodedVop`] (testing aid; the
    /// composition stage consumes planes directly otherwise).
    pub fn set_keep_output(&mut self, keep: bool) {
        self.keep_output = keep;
    }

    /// Reconstruction of the most recently decoded VOP.
    pub fn last_recon(&self) -> &TracedFrame {
        if self.anchor_count > 0 {
            &self.anchors[self.latest]
        } else {
            &self.b_recon
        }
    }

    /// Reconstruction of the most recently decoded anchor.
    pub fn last_anchor(&self) -> Option<&TracedFrame> {
        (self.anchor_count > 0).then(|| &self.anchors[self.latest])
    }

    /// Frame the last VOP was reconstructed into (B → `b_recon`).
    fn recon_of(&self, kind: VopKind) -> &TracedFrame {
        if kind.is_anchor() {
            &self.anchors[self.latest]
        } else {
            &self.b_recon
        }
    }

    /// Counter deltas accumulated over every VOP-decode window so far —
    /// the paper's `DecodeVopCombMotionShapeTexture()` instrumentation.
    pub fn vop_window(&self) -> m4ps_memsim::Counters {
        self.vop_window
    }

    /// Decoded alpha plane of the last VOP (binary-shape layers).
    pub fn last_alpha(&self) -> Option<&TracedPlane> {
        self.alpha.as_ref()
    }

    /// Bounding box of the last shaped VOP.
    pub fn last_bbox(&self) -> Option<(usize, usize, usize, usize)> {
        self.prev_bbox
    }

    /// Decodes the next VOP from `r`, or returns `Ok(None)` at end of
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on corrupt or truncated input, including a
    /// B- or P-VOP arriving before its reference anchors.
    pub fn decode_next<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        r: &mut BitReader<'_>,
    ) -> Result<Option<DecodedVop>, CodecError> {
        self.decode_next_inner(mem, r, None)
    }

    /// Like [`VideoObjectDecoder::decode_next`], but predicts P-VOPs from
    /// the external reference `ext` (temporal-scalability enhancement
    /// layers predict from the base layer).
    ///
    /// # Errors
    ///
    /// Same conditions as [`VideoObjectDecoder::decode_next`].
    pub fn decode_next_with_ref<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        r: &mut BitReader<'_>,
        ext: &TracedFrame,
    ) -> Result<Option<DecodedVop>, CodecError> {
        self.decode_next_inner(mem, r, Some(ext))
    }

    fn decode_next_inner<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        r: &mut BitReader<'_>,
        ext: Option<&TracedFrame>,
    ) -> Result<Option<DecodedVop>, CodecError> {
        let header = match r.next_start_code() {
            Err(BitstreamError::StartCodeNotFound) => return Ok(None),
            Err(e) => return Err(e.into()),
            Ok(code) if code == StartCode::VideoObjectPlane.value() => VopHeader::parse_fields(r)?,
            Ok(code) if code == StartCode::VideoObjectLayer.value() => {
                // Tolerate a repeated VOL header mid-stream.
                let _ = VolHeader::parse_fields(r)?;
                return self.decode_next_inner(mem, r, ext);
            }
            Ok(_) => return Err(CodecError::InvalidStream("unexpected startcode")),
        };

        let window_start = *mem.counters();
        let bit_start = r.bit_pos();
        // The paper's `VopDecode()` counter window doubles as the coarse
        // `vop.decode` span; the body is split out so the span closes on
        // error returns too.
        let obs_on = m4ps_obs::enabled();
        if obs_on {
            m4ps_obs::enter(Phase::VopDecode, window_start);
        }
        let body = self.decode_window(mem, r, ext, &header, bit_start);
        if obs_on {
            m4ps_obs::exit(Phase::VopDecode, *mem.counters());
        }
        let (stats, ext_is_ref) = body?;

        self.vop_window = self
            .vop_window
            .merged_with(&mem.counters().delta_since(&window_start));
        self.stream_bits += r.bit_pos() - bit_start;

        let target_kind = if ext_is_ref { VopKind::B } else { header.kind };
        let planes = self.keep_output.then(|| {
            let f = self.recon_of(target_kind);
            crate::encoder::ReconPlanes {
                y: f.y.copy_out(mem),
                u: f.u.copy_out(mem),
                v: f.v.copy_out(mem),
            }
        });
        let alpha_copy = if self.keep_output {
            self.alpha.as_ref().map(|a| a.copy_out(mem))
        } else {
            None
        };

        Ok(Some(DecodedVop {
            kind: header.kind,
            display_index: header.display_index as usize,
            qp: header.qp,
            stats,
            planes,
            alpha: alpha_copy,
        }))
    }

    /// Shape, reference selection, macroblock layer, and anchor
    /// bookkeeping for one VOP — everything inside the per-VOP counter
    /// window. Returns the layer stats and whether the external
    /// reference was used (the output then lands in the B slot).
    fn decode_window<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        r: &mut BitReader<'_>,
        ext: Option<&TracedFrame>,
        header: &VopHeader,
        bit_start: u64,
    ) -> Result<(VopStats, bool), CodecError> {
        if header.kind == VopKind::P && self.anchor_count == 0 && ext.is_none() {
            return Err(CodecError::InvalidStream("P-VOP before first anchor"));
        }
        if header.kind == VopKind::B && self.anchor_count < 2 {
            return Err(CodecError::InvalidStream("B-VOP before two anchors"));
        }

        let mut charge = StreamCharge::reader(self.stream_base + self.stream_bits / 8);

        // Shape first (DecodeVopCombMotionShapeTexture order).
        if self.vol.binary_shape {
            let bbox = header.bbox.ok_or(CodecError::InvalidStream(
                "shaped VOP without a bounding box",
            ))?;
            if bbox.0 + bbox.2 > self.vol.width || bbox.1 + bbox.3 > self.vol.height {
                return Err(CodecError::InvalidStream("bounding box out of frame"));
            }
            let alpha = self
                .alpha
                .as_mut()
                .expect("binary-shape decoder has an alpha plane");
            if let Some((px, py, pw, ph)) = self.prev_bbox {
                alpha.clear_region(mem, px, py, pw, ph);
            }
            span!(mem, Phase::Shape, decode_alpha_plane(mem, alpha, bbox, r))?;
            self.prev_bbox = Some(bbox);
        } else if header.bbox.is_some() {
            return Err(CodecError::InvalidStream(
                "bounding box on a rectangular layer",
            ));
        }
        // Stream-byte traffic for the consumed header/shape bits is the
        // decoder's parse cost.
        span!(
            mem,
            Phase::Parse,
            charge.charge_to(mem, r.bit_pos() - bit_start)
        );

        // Pick references and the reconstruction target.
        let ext_is_ref = ext.is_some() && header.kind == VopKind::P;
        let into_anchor = header.kind.is_anchor() && !ext_is_ref;
        let new_idx = if self.anchor_count == 0 {
            0
        } else {
            1 - self.latest
        };

        let (recon, fwd, bwd): (&mut TracedFrame, Option<&TracedFrame>, Option<&TracedFrame>) =
            if header.kind == VopKind::B {
                let (fwd, bwd) = (&self.anchors[1 - self.latest], &self.anchors[self.latest]);
                (&mut self.b_recon, Some(fwd), Some(bwd))
            } else if ext_is_ref {
                (&mut self.b_recon, ext, None)
            } else {
                // Anchor decode: target is the non-latest slot; a P-VOP
                // references the latest slot.
                let is_p = header.kind == VopKind::P;
                let (left, right) = self.anchors.split_at_mut(1);
                let (recon, reference) = if new_idx == 0 {
                    (&mut left[0], &right[0])
                } else {
                    (&mut right[0], &left[0])
                };
                (recon, is_p.then_some(reference), None)
            };
        let stats = decode_mb_layer(
            mem,
            r,
            header,
            self.alpha.as_ref(),
            fwd,
            bwd,
            recon,
            &self.texture,
            &mut self.slice_scratch,
            &mut self.pool,
            self.threads_hint,
            self.sched,
            &mut charge,
            bit_start,
            self.stream_base,
            self.mb_cols,
            self.mb_rows,
        )?;

        if into_anchor {
            if !self.vol.binary_shape {
                let recon = if new_idx == 0 {
                    &mut self.anchors[0]
                } else {
                    &mut self.anchors[1]
                };
                recon.pad_borders(mem);
            }
            self.latest = new_idx;
            self.anchor_count = (self.anchor_count + 1).min(2);
        }

        Ok((stats, ext_is_ref))
    }
}

/// Decodes one VOP's macroblock layer (after shape) — the decoder's one
/// construction, the mirror of the encoder's `encode_vop`.
///
/// A single-slice VOP (the paper configuration) steps its one
/// [`DecodeSlice`] directly on the caller's model, reader and charge
/// window: no pre-scan, no fork. A multi-slice VOP always takes the
/// row-chain construction: a cheap untraced pre-scan locates every slice
/// header (byte-aligned resync marker carrying the slice's first
/// macroblock index), then [`run_row_chains`] decodes each slice as an
/// independent task chain on a forked memory model — reader clone
/// bounded to its own segment (up to the next located slice header, or
/// the VOP's closing startcode), recycled [`SliceScratch`], disjoint
/// reconstruction row band, and a per-slice-index charge window at
/// `stream_base + (s+1) * SLICE_CHARGE_SPAN`. The chains run on the
/// attached pool, or on a lazily created one-worker pool (no background
/// threads: every task runs inline on the caller), so reconstruction,
/// stats and merged counters are identical at every thread count.
///
/// Both paths share [`decode_slice_row`], which owns the concealment
/// state machine: a corrupt slice conceals up to its next valid resync
/// marker, never past its own end. A slice whose header the pre-scan
/// cannot locate is concealed whole when the VOP carries resync
/// markers, and fails the VOP otherwise.
#[allow(clippy::too_many_arguments)]
fn decode_mb_layer<M: ParallelModel>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    header: &VopHeader,
    alpha: Option<&TracedPlane>,
    fwd: Option<&TracedFrame>,
    bwd: Option<&TracedFrame>,
    recon: &mut TracedFrame,
    texture: &TextureCoder,
    scratch: &mut Vec<SliceScratch>,
    pool: &mut Option<Arc<WorkerPool>>,
    threads: usize,
    sched: Scheduling,
    charge: &mut StreamCharge,
    bit_start: u64,
    stream_base: u64,
    mb_cols: usize,
    mb_rows: usize,
) -> Result<VopStats, CodecError> {
    let (mbx_range, mby_range) = match header.bbox {
        Some((x0, y0, bw, bh)) => (x0 / 16..(x0 + bw) / 16, y0 / 16..(y0 + bh) / 16),
        None => (0..mb_cols, 0..mb_rows),
    };
    let slice_rows = partition_rows(mby_range.clone(), header.slices);
    while scratch.len() < slice_rows.len() {
        scratch.push(SliceScratch::new(texture, mb_cols));
    }
    let ctx = DecodeCtx {
        hdr: header,
        alpha,
        fwd,
        bwd,
        mbx_range: mbx_range.clone(),
    };
    let total_mbs = mbx_range.len() * mby_range.len();

    let stats = if slice_rows.len() == 1 {
        // Unsliced: the macroblocks follow the header bits directly.
        let mut slice = DecodeSlice {
            ctx: &ctx,
            recon: &mut *recon,
            scratch: &mut scratch[0],
            cur: SliceCursor::new(r.clone(), charge.clone(), bit_start, 0, total_mbs),
            last: true,
        };
        let res = step_rows(&mut slice, mem, mby_range.clone(), mby_range.start);
        *r = slice.cur.r;
        *charge = slice.cur.charge;
        res?;
        slice.cur.stats
    } else {
        // Sliced: consume the header segment's stuffing (slice 0 starts
        // byte-aligned) and charge it in the parent window — the decode
        // mirror of the encoder charging its aligned header segment.
        r.skip_stuffing();
        span!(
            mem,
            Phase::Parse,
            charge.charge_to(mem, r.bit_pos() - bit_start)
        );
        // The VOP ends at the next startcode: no slice reads or scans
        // past it, so damage never spills into the next VOP.
        let mut probe = r.clone();
        let vop_end = match probe.next_start_code() {
            Ok(_) => probe.bit_pos() - 32,
            Err(_) => probe.total_bits(),
        };
        let vop = r.bounded(vop_end);
        let starts = prescan_slice_starts(&vop, &slice_rows, mbx_range.len(), mby_range.start);
        #[cfg(test)]
        tests::check_prescan(&vop, &slice_rows, mbx_range.len(), mby_range.start, &starts);
        if header.resync_interval.is_none() && starts.contains(&None) {
            return Err(CodecError::InvalidStream("slice header mismatch"));
        }
        let n_slices = slice_rows.len();
        let mut views = recon.split_mb_rows_mut(&slice_rows);
        let slices = slice_rows
            .iter()
            .zip(&mut views)
            .zip(scratch.iter_mut())
            .enumerate()
            .map(|(s, ((rows, view), sc))| {
                let first_mb = (rows.start - mby_range.start) * mbx_range.len();
                let end_mb = first_mb + rows.len() * mbx_range.len();
                let window = StreamCharge::reader(stream_base + (s as u64 + 1) * SLICE_CHARGE_SPAN);
                let cur = match starts[s] {
                    Some((start, payload)) => {
                        // Bound the slice's reads and recovery scans to
                        // its own segment: up to the next located header.
                        let mut sr = match starts[s + 1..].iter().flatten().next() {
                            Some(&(next, _)) => vop.bounded(next),
                            None => vop.clone(),
                        };
                        sr.seek_to(payload);
                        SliceCursor::new(sr, window, start, first_mb, end_mb)
                    }
                    None => {
                        // No header: conceal the whole slice, reading
                        // (and charging) nothing.
                        let pos = r.bit_pos();
                        let mut cur =
                            SliceCursor::new(r.bounded(pos), window, pos, first_mb, end_mb);
                        cur.conceal_until = Some(usize::MAX);
                        cur
                    }
                };
                let slice = DecodeSlice {
                    ctx: &ctx,
                    recon: view,
                    scratch: sc,
                    cur,
                    last: s + 1 == n_slices,
                };
                (rows.clone(), slice)
            });

        let pool = pool.get_or_insert_with(|| Arc::new(WorkerPool::new(threads)));
        let mut stats = VopStats::default();
        let mut end_pos = r.bit_pos();
        run_row_chains(mem, pool, sched, slices, |(sstats, end)| {
            stats.merge(&sstats);
            end_pos = end_pos.max(end);
        })?;
        drop(views);
        // Leave the reader after the furthest macroblock read (the next
        // startcode scan handles the final stuffing).
        r.seek_to(end_pos);
        stats
    };

    if let Some(bbox) = header.bbox {
        fill_bbox_ring(mem, recon, bbox, mb_cols, mb_rows);
    }
    Ok(stats)
}

/// Locates every slice's byte-aligned header. Slice 0 begins at the
/// reader's (aligned) position; slice `s > 0` begins at the first
/// byte-aligned resync marker after the previous located header whose
/// following fields parse as slice `s`'s first macroblock index.
/// In-slice resync markers always carry a *smaller* index, so the first
/// match is the true header unless the payload aliases one. Returns
/// `(header start, payload start)` per slice, `None` where no header
/// was found (the next slice is then searched from the last located
/// header).
///
/// Work is bounded per input byte: one pass collects every marker whose
/// fields parse as *some* slice's first macroblock, then each slice
/// takes the first of its own markers past the previous located header
/// by binary search. The marker word cannot overlap itself (its two
/// bytes differ), so the one pass finds exactly the markers a scan
/// started at any later position would, and a marker's fields parse the
/// same whichever scan finds it.
///
/// The scan reads raw bytes through reader clones and charges nothing:
/// like the encoder's slice partition it is scheduling metadata, not
/// modelled codec traffic (the slice tasks charge every stream byte
/// through their own windows).
fn prescan_slice_starts(
    r: &BitReader<'_>,
    slice_rows: &[Range<usize>],
    mbx_len: usize,
    mby_start: usize,
) -> Vec<Option<(u64, u64)>> {
    let expected: Vec<usize> = slice_rows[1..]
        .iter()
        .map(|rows| (rows.start - mby_start) * mbx_len)
        .collect();
    // `(first macroblock, header start, payload start)`.
    let mut markers = Vec::new();
    let mut probe = r.clone();
    while probe.scan_aligned_u16(RESYNC_MARKER) {
        let mut fields = probe.clone();
        let Ok(idx) = get_ue(&mut fields).map(|v| v as usize) else {
            continue;
        };
        if expected.binary_search(&idx).is_ok() && fields.get_bits(5).is_ok() {
            markers.push((idx, probe.bit_pos() - 16, fields.bit_pos()));
        }
    }
    #[cfg(test)]
    tests::count_marker_pass(r.bit_pos(), probe.bit_pos());
    // Group by index, in stream order within each index.
    markers.sort_unstable();

    let mut starts = Vec::with_capacity(slice_rows.len());
    starts.push(Some((r.bit_pos(), r.bit_pos())));
    let mut from = r.bit_pos();
    for &idx in &expected {
        let lo = markers.partition_point(|m| m.0 < idx);
        let own = &markers[lo..markers.partition_point(|m| m.0 <= idx)];
        let found = own.get(own.partition_point(|m| m.1 < from));
        starts.push(found.map(|&(_, header, payload)| {
            // The next header lies past this one's fields, so every
            // slice's payload precedes the next slice's start.
            from = payload;
            (header, payload)
        }));
    }
    starts
}

/// Read-shared context for one VOP's slice decodes.
struct DecodeCtx<'a> {
    hdr: &'a VopHeader,
    alpha: Option<&'a TracedPlane>,
    fwd: Option<&'a TracedFrame>,
    bwd: Option<&'a TracedFrame>,
    mbx_range: Range<usize>,
}

/// One slice's decode cursor: its reader and charge window, stats, the
/// macroblock counter for resync markers, and the concealment state.
/// The same state drives the unsliced path (on the caller's reader and
/// window) and each slice chain (on its bounded clone and own window).
struct SliceCursor<'a> {
    r: BitReader<'a>,
    charge: StreamCharge,
    stats: VopStats,
    /// Absolute bit position of the slice's first bit (the slice header
    /// for slices after the first); per-macroblock charges are relative
    /// to it.
    slice_start: u64,
    first_mb: usize,
    /// One past the slice's last macroblock index: recovery never
    /// resumes beyond the slice.
    end_mb: usize,
    mb_counter: usize,
    /// `Some(target)` while concealing up to (but excluding) macroblock
    /// `target`; `usize::MAX` conceals to the end of the slice.
    conceal_until: Option<usize>,
}

impl<'a> SliceCursor<'a> {
    fn new(
        r: BitReader<'a>,
        charge: StreamCharge,
        slice_start: u64,
        first_mb: usize,
        end_mb: usize,
    ) -> Self {
        SliceCursor {
            r,
            charge,
            stats: VopStats::default(),
            slice_start,
            first_mb,
            end_mb,
            mb_counter: first_mb,
            conceal_until: None,
        }
    }
}

/// One slice of a VOP as the decoder decodes it: its reconstruction
/// rows, recycled scratch and cursor. A single-slice VOP runs it on the
/// caller's reader and charge window; a slice chain on its own segment.
/// The cursor keeps the stream's own lifetime `'r`, so the single-slice
/// path can hand its reader back to the caller.
struct DecodeSlice<'a, 'r, F> {
    ctx: &'a DecodeCtx<'a>,
    recon: &'a mut F,
    scratch: &'a mut SliceScratch,
    cur: SliceCursor<'r>,
    /// Whether this is the VOP's last slice.
    last: bool,
}

impl<M: MemModel, F: FrameSink> SliceBody<M> for DecodeSlice<'_, '_, F> {
    const PHASE: Phase = Phase::DecodeSlice;
    /// The slice's statistics and the reader position after its last
    /// macroblock read.
    type Out = (VopStats, u64);

    fn step(&mut self, mem: &mut M, mby: usize, first: bool) -> Result<(), CodecError> {
        if first {
            // Recycled predictors start from reset — the same state a
            // fresh `MvPredictor::new` carries.
            self.scratch.fwd_pred.reset();
            self.scratch.bwd_pred.reset();
        }
        decode_slice_row(mem, self.recon, self.scratch, &mut self.cur, self.ctx, mby)
    }

    /// Charges the slice's trailing stuffing, up to the next slice's
    /// header. The last slice's stuffing is the one tail no slice reads
    /// (decoding stops right after the final macroblock), so it stops
    /// there too.
    fn finish(&mut self, mem: &mut M) -> Self::Out {
        let cur = &mut self.cur;
        let end_pos = cur.r.bit_pos();
        cur.r.skip_stuffing();
        let charge_end = if self.last { end_pos } else { cur.r.bit_pos() };
        cur.charge.charge_to(mem, charge_end - cur.slice_start);
        (cur.stats, end_pos)
    }
}

/// Reads a resynchronization marker header — stuffing, the resync
/// word, the macroblock index, the quantizer — and reports whether it
/// is the marker for macroblock `expected`.
fn read_marker(r: &mut BitReader<'_>, expected: usize) -> bool {
    (|| -> Result<bool, CodecError> {
        r.skip_stuffing();
        let m = r.get_bits(16)?;
        let idx = get_ue(r)? as usize;
        let _qp = r.get_bits(5)?;
        Ok(m == u32::from(RESYNC_MARKER) && idx == expected)
    })()
    .unwrap_or(false)
}

/// Decodes one macroblock row of a slice — the unit of both decode
/// paths. Owns the error-resilience state machine: a bad resync marker
/// or a macroblock error (when the VOP carries markers) conceals up to
/// the slice's next valid marker; without markers the error is fatal.
fn decode_slice_row<M: MemModel, F: FrameSink>(
    mem: &mut M,
    recon: &mut F,
    scratch: &mut SliceScratch,
    cur: &mut SliceCursor<'_>,
    ctx: &DecodeCtx<'_>,
    mby: usize,
) -> Result<(), CodecError> {
    let header = ctx.hdr;
    let qp = header.qp;
    let SliceScratch {
        texture,
        fwd_pred,
        bwd_pred,
        ..
    } = scratch;
    fwd_pred.start_row();
    bwd_pred.start_row();
    let mut ips = IntraPredState::reset();
    for mbx in ctx.mbx_range.clone() {
        if let Some(interval) = header.resync_interval {
            if cur.mb_counter > cur.first_mb && cur.mb_counter.is_multiple_of(interval) {
                match cur.conceal_until {
                    None => {
                        // Clean path: consume the expected marker.
                        if read_marker(&mut cur.r, cur.mb_counter) {
                            fwd_pred.reset();
                            bwd_pred.reset();
                            ips = IntraPredState::reset();
                        } else {
                            cur.conceal_until = Some(scan_to_marker(
                                &mut cur.r,
                                cur.mb_counter,
                                cur.end_mb,
                                interval,
                            ));
                        }
                    }
                    Some(target) if cur.mb_counter >= target => {
                        // Resumption point: the scan already consumed
                        // the marker header.
                        cur.conceal_until = None;
                        fwd_pred.reset();
                        bwd_pred.reset();
                        ips = IntraPredState::reset();
                    }
                    Some(_) => {}
                }
            }
        }
        let counter = cur.mb_counter;
        cur.mb_counter += 1;

        let transparent = match ctx.alpha {
            Some(a) => span!(
                mem,
                Phase::Shape,
                classify_bab(mem, a, mbx, mby) == BabClass::Transparent
            ),
            None => false,
        };
        if transparent {
            cur.stats.transparent_mbs += 1;
            fill_grey_mb(mem, recon, mbx, mby);
            fwd_pred.commit(mbx, MotionVector::ZERO);
            bwd_pred.commit(mbx, MotionVector::ZERO);
            ips = IntraPredState::reset();
            continue;
        }
        texture.charge_mb_overhead(mem);

        if cur.conceal_until.is_some() {
            conceal_mb(mem, ctx.fwd, recon, texture, mbx, mby);
            cur.stats.concealed_mbs += 1;
            fwd_pred.commit(mbx, MotionVector::ZERO);
            bwd_pred.commit(mbx, MotionVector::ZERO);
            ips = IntraPredState::reset();
            continue;
        }

        let r = &mut cur.r;
        let stats = &mut cur.stats;
        let result = match header.kind {
            VopKind::I => {
                decode_intra_mb(mem, r, recon, texture, qp, mbx, mby, &mut ips).map(|()| {
                    stats.intra_mbs += 1;
                    fwd_pred.commit(mbx, MotionVector::ZERO);
                })
            }
            VopKind::P => ctx
                .fwd
                .ok_or(CodecError::InvalidStream("P-VOP without reference"))
                .and_then(|reference| {
                    decode_p_mb(
                        mem, r, reference, recon, texture, qp, mbx, mby, &mut ips, fwd_pred, stats,
                    )
                }),
            VopKind::B => {
                ips = IntraPredState::reset();
                match (ctx.fwd, ctx.bwd) {
                    (Some(f), Some(b)) => decode_b_mb(
                        mem, r, f, b, recon, texture, qp, mbx, mby, fwd_pred, bwd_pred, stats,
                    ),
                    _ => Err(CodecError::InvalidStream("B-VOP without references")),
                }
            }
        };
        if let Err(e) = result {
            let Some(interval) = header.resync_interval else {
                return Err(e);
            };
            // Error resilience: conceal this macroblock and everything
            // up to the slice's next valid marker.
            cur.conceal_until = Some(scan_to_marker(&mut cur.r, counter, cur.end_mb, interval));
            conceal_mb(mem, ctx.fwd, recon, texture, mbx, mby);
            cur.stats.concealed_mbs += 1;
            fwd_pred.commit(mbx, MotionVector::ZERO);
            bwd_pred.commit(mbx, MotionVector::ZERO);
            ips = IntraPredState::reset();
        }
        span!(
            mem,
            Phase::Parse,
            cur.charge.charge_to(mem, cur.r.bit_pos() - cur.slice_start)
        );
    }
    Ok(())
}

/// Scans forward for the next valid resynchronization marker before
/// macroblock `end_mb` and returns the macroblock index at which
/// decoding may resume (leaving the reader positioned after the marker
/// header), or `usize::MAX` when no such marker exists before the end
/// of the reader's stream.
fn scan_to_marker(r: &mut BitReader<'_>, after: usize, end_mb: usize, interval: usize) -> usize {
    loop {
        if !r.scan_aligned_u16(RESYNC_MARKER) {
            return usize::MAX;
        }
        let mut probe = r.clone();
        let parsed = (|| -> Result<usize, CodecError> {
            let idx = get_ue(&mut probe)? as usize;
            let _qp = probe.get_bits(5)?;
            Ok(idx)
        })();
        if let Ok(idx) = parsed {
            if idx > after && idx < end_mb && idx % interval == 0 {
                *r = probe;
                return idx;
            }
        }
        // False positive inside payload: keep scanning after the match.
    }
}

/// Conceals one macroblock: zero-motion copy from the forward reference
/// when one exists, mid-grey otherwise.
fn conceal_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    fwd: Option<&TracedFrame>,
    recon: &mut F,
    texture: &TextureCoder,
    mbx: usize,
    mby: usize,
) {
    match fwd {
        Some(reference) => {
            let (py, pu, pv) = predict_mb(mem, reference, texture, MotionVector::ZERO, mbx, mby);
            store_prediction(mem, recon, texture, &py, &pu, &pv, mbx, mby);
        }
        None => fill_grey_mb(mem, recon, mbx, mby),
    }
}

/// Decodes the six blocks of an intra macroblock.
///
/// Like the encoder's intra path, the whole entropy-decode + dequant +
/// IDCT pipeline is one `texture.dctq` span per macroblock.
#[allow(clippy::too_many_arguments)]
fn decode_intra_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    recon: &mut F,
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
    ips: &mut IntraPredState,
) -> Result<(), CodecError> {
    span!(
        mem,
        Phase::DctQuant,
        decode_intra_mb_blocks(mem, r, recon, texture, qp, mbx, mby, ips)
    )
}

/// The fallible body of [`decode_intra_mb`] (split out so `?` cannot
/// skip the span exit).
#[allow(clippy::too_many_arguments)]
fn decode_intra_mb_blocks<M: MemModel, F: FrameSink>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    recon: &mut F,
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
    ips: &mut IntraPredState,
) -> Result<(), CodecError> {
    let (ry, ru, rv) = recon.planes_mut();
    let px = (mbx * 16) as isize;
    let py = (mby * 16) as isize;
    for blk in 0..4 {
        let bx = px + ((blk % 2) * 8) as isize;
        let by = py + ((blk / 2) * 8) as isize;
        let qb = texture.entropy_decode(mem, true, ips.y, r)?;
        ips.y = qb.qdc();
        let rec = texture.reconstruct(mem, &qb, qp);
        write_block(mem, ry, bx, by, &rec);
    }
    let cx = (mbx * 8) as isize;
    let cy = (mby * 8) as isize;
    for plane_idx in 0..2 {
        let pred = if plane_idx == 0 { ips.u } else { ips.v };
        let qb = texture.entropy_decode(mem, true, pred, r)?;
        if plane_idx == 0 {
            ips.u = qb.qdc();
        } else {
            ips.v = qb.qdc();
        }
        let rec = texture.reconstruct(mem, &qb, qp);
        let dst: &mut F::Plane = if plane_idx == 0 { &mut *ru } else { &mut *rv };
        write_block(mem, dst, cx, cy, &rec);
    }
    Ok(())
}

/// Builds the three prediction buffers for an inter MB.
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

/// Parses the cbp flags and the flagged residual blocks — the Vlc
/// section of an inter macroblock, split out so `?` cannot skip the
/// span exit.
fn parse_inter_residual<M: MemModel>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    texture: &mut TextureCoder,
    cbp: &mut [bool; 6],
    blocks: &mut [crate::texture::QuantizedBlock; 6],
) -> Result<(), CodecError> {
    for b in cbp.iter_mut() {
        *b = r.get_bit().map_err(CodecError::from)?;
    }
    for i in 0..6 {
        if cbp[i] {
            blocks[i] = texture.entropy_decode(mem, false, 0, r)?;
        }
    }
    Ok(())
}

/// Decodes cbp flags and the flagged residual blocks, then reconstructs.
#[allow(clippy::too_many_arguments)]
fn decode_inter_residual_and_reconstruct<M: MemModel, F: FrameSink>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    recon: &mut F,
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
    pred_y: &[u8; 256],
    pred_u: &[u8; 64],
    pred_v: &[u8; 64],
) -> Result<(), CodecError> {
    let mut cbp = [false; 6];
    let empty = crate::texture::QuantizedBlock {
        levels: m4ps_dsp::CoefBlock::default(),
        intra: false,
    };
    let mut blocks = [empty; 6];
    span!(
        mem,
        Phase::Vlc,
        parse_inter_residual(mem, r, texture, &mut cbp, &mut blocks)
    )?;
    reconstruct_inter_mb(
        mem, recon, &blocks, &cbp, pred_y, pred_u, pred_v, texture, qp, mbx, mby,
    );
    Ok(())
}

/// Decodes one macroblock of a P-VOP.
#[allow(clippy::too_many_arguments)]
fn decode_p_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    reference: &TracedFrame,
    recon: &mut F,
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
    ips: &mut IntraPredState,
    mv_pred: &mut MvPredictor,
    stats: &mut VopStats,
) -> Result<(), CodecError> {
    let skipped = r.get_bit().map_err(CodecError::from)?;
    if skipped {
        let (pred_y, pred_u, pred_v) =
            predict_mb(mem, reference, texture, MotionVector::ZERO, mbx, mby);
        // Zero residue: reconstruction is the prediction itself.
        store_prediction(mem, recon, texture, &pred_y, &pred_u, &pred_v, mbx, mby);
        stats.skipped_mbs += 1;
        mv_pred.commit(mbx, MotionVector::ZERO);
        *ips = IntraPredState::reset();
        return Ok(());
    }
    let kind = MacroblockKind::from_code(get_ue(r)?)
        .ok_or(CodecError::InvalidStream("bad macroblock type"))?;
    match kind {
        MacroblockKind::Intra => {
            decode_intra_mb(mem, r, recon, texture, qp, mbx, mby, ips)?;
            stats.intra_mbs += 1;
            mv_pred.commit(mbx, MotionVector::ZERO);
        }
        MacroblockKind::Inter => {
            *ips = IntraPredState::reset();
            let pred = mv_pred.predict(mbx);
            let dx = get_se(r)?;
            let dy = get_se(r)?;
            let mv = checked_mv(pred, dx, dy)?;
            let (pred_y, pred_u, pred_v) = predict_mb(mem, reference, texture, mv, mbx, mby);
            decode_inter_residual_and_reconstruct(
                mem, r, recon, texture, qp, mbx, mby, &pred_y, &pred_u, &pred_v,
            )?;
            stats.inter_mbs += 1;
            mv_pred.commit(mbx, mv);
        }
        MacroblockKind::Inter4V => {
            *ips = IntraPredState::reset();
            let mut mvs4 = [MotionVector::ZERO; 4];
            let mut pred = mv_pred.predict(mbx);
            for mv in mvs4.iter_mut() {
                let dx = get_se(r)?;
                let dy = get_se(r)?;
                *mv = checked_mv(pred, dx, dy)?;
                pred = *mv;
            }
            let (pred_y, pred_u, pred_v) = predict_mb_4mv(mem, reference, texture, &mvs4, mbx, mby);
            decode_inter_residual_and_reconstruct(
                mem, r, recon, texture, qp, mbx, mby, &pred_y, &pred_u, &pred_v,
            )?;
            stats.inter_mbs += 1;
            mv_pred.commit(mbx, MotionVector::median3(mvs4[0], mvs4[1], mvs4[2]));
        }
        _ => return Err(CodecError::InvalidStream("illegal MB type in P-VOP")),
    }
    Ok(())
}

/// Stores a pure prediction (no residue) into the reconstruction.
#[allow(clippy::too_many_arguments)]
fn store_prediction<M: MemModel, F: FrameSink>(
    mem: &mut M,
    recon: &mut F,
    texture: &TextureCoder,
    pred_y: &[u8; 256],
    pred_u: &[u8; 64],
    pred_v: &[u8; 64],
    mbx: usize,
    mby: usize,
) {
    let (ry, ru, rv) = recon.planes_mut();
    texture.charge_pred_load(mem, 384);
    for blk in 0..4 {
        let bx = (mbx * 16 + (blk % 2) * 8) as isize;
        let by = (mby * 16 + (blk / 2) * 8) as isize;
        let pred = crate::mbops::pred_subblock(pred_y, blk);
        write_block_u8(mem, ry, bx, by, &pred);
    }
    let cx = (mbx * 8) as isize;
    let cy = (mby * 8) as isize;
    write_block_u8(mem, ru, cx, cy, pred_u);
    write_block_u8(mem, rv, cx, cy, pred_v);
}

/// Decodes one macroblock of a B-VOP.
#[allow(clippy::too_many_arguments)]
fn decode_b_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    fwd: &TracedFrame,
    bwd: &TracedFrame,
    recon: &mut F,
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
    fwd_pred: &mut MvPredictor,
    bwd_pred: &mut MvPredictor,
    stats: &mut VopStats,
) -> Result<(), CodecError> {
    let kind = MacroblockKind::from_code(get_ue(r)?)
        .ok_or(CodecError::InvalidStream("bad macroblock type"))?;
    if !matches!(
        kind,
        MacroblockKind::Forward | MacroblockKind::Backward | MacroblockKind::Bidirectional
    ) {
        return Err(CodecError::InvalidStream("illegal MB type in B-VOP"));
    }
    let mut mvf = MotionVector::ZERO;
    let mut mvb = MotionVector::ZERO;
    if kind != MacroblockKind::Backward {
        let p = fwd_pred.predict(mbx);
        let dx = get_se(r)?;
        let dy = get_se(r)?;
        mvf = checked_mv(p, dx, dy)?;
    }
    if kind != MacroblockKind::Forward {
        let p = bwd_pred.predict(mbx);
        let dx = get_se(r)?;
        let dy = get_se(r)?;
        mvb = checked_mv(p, dx, dy)?;
    }
    fwd_pred.commit(mbx, mvf);
    bwd_pred.commit(mbx, mvb);

    let (pred_y, pred_u, pred_v) = match kind {
        MacroblockKind::Forward => predict_mb(mem, fwd, texture, mvf, mbx, mby),
        MacroblockKind::Backward => predict_mb(mem, bwd, texture, mvb, mbx, mby),
        _ => {
            let (fy, fu, fv) = predict_mb(mem, fwd, texture, mvf, mbx, mby);
            let (by_, bu, bv) = predict_mb(mem, bwd, texture, mvb, mbx, mby);
            let mut y = [0u8; 256];
            let mut u = [0u8; 64];
            let mut v = [0u8; 64];
            average_predictions(&fy, &by_, &mut y);
            average_predictions(&fu, &bu, &mut u);
            average_predictions(&fv, &bv, &mut v);
            (y, u, v)
        }
    };
    decode_inter_residual_and_reconstruct(
        mem, r, recon, texture, qp, mbx, mby, &pred_y, &pred_u, &pred_v,
    )?;
    stats.inter_mbs += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncoderConfig, FrameView, VideoObjectCoder};
    use m4ps_memsim::NullModel;
    use m4ps_testkit::Rng;
    use m4ps_vidgen::{Resolution, Scene, SceneSpec};
    use std::cell::Cell;

    thread_local! {
        /// `(marker passes, bytes they scanned)` on this thread.
        static MARKER_PASSES: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    /// Records one marker pass of the pre-scan over bits `from..to`.
    pub(super) fn count_marker_pass(from: u64, to: u64) {
        MARKER_PASSES.with(|p| {
            let (n, bytes) = p.get();
            p.set((n + 1, bytes + (to - from) / 8));
        });
    }

    /// The pre-scan as it was first written, kept as the reference: for
    /// each slice, scan forward from the last located header, one marker
    /// at a time. O(slices × VOP bytes) when headers are missing.
    fn prescan_rescan(
        r: &BitReader<'_>,
        slice_rows: &[Range<usize>],
        mbx_len: usize,
        mby_start: usize,
    ) -> Vec<Option<(u64, u64)>> {
        let mut starts = Vec::with_capacity(slice_rows.len());
        starts.push(Some((r.bit_pos(), r.bit_pos())));
        let mut from = r.clone();
        for rows in &slice_rows[1..] {
            let expected = (rows.start - mby_start) * mbx_len;
            let mut probe = from.clone();
            let found = loop {
                if !probe.scan_aligned_u16(RESYNC_MARKER) {
                    break None;
                }
                let mut fields = probe.clone();
                let idx = get_ue(&mut fields).ok().map(|v| v as usize);
                if idx == Some(expected) && fields.get_bits(5).is_ok() {
                    break Some(fields);
                }
            };
            starts.push(found.map(|payload| {
                let start = (probe.bit_pos() - 16, payload.bit_pos());
                from = payload;
                start
            }));
        }
        starts
    }

    /// Called by every pre-scan in test builds: the starts must equal
    /// the reference algorithm's.
    pub(super) fn check_prescan(
        r: &BitReader<'_>,
        slice_rows: &[Range<usize>],
        mbx_len: usize,
        mby_start: usize,
        starts: &[Option<(u64, u64)>],
    ) {
        let reference = prescan_rescan(r, slice_rows, mbx_len, mby_start);
        assert_eq!(starts, &reference[..], "pre-scan diverged from the rescan");
    }

    /// Encodes `frames` frames of `res` (a synthetic scene) into one
    /// elementary stream, returning it and each VOP's byte range.
    fn encode(
        res: Resolution,
        config: EncoderConfig,
        frames: usize,
    ) -> (Vec<u8>, Vec<Range<usize>>) {
        let scene = Scene::new(SceneSpec {
            resolution: res,
            objects: 1,
            seed: 77,
        });
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let mut coder = VideoObjectCoder::new(&mut space, res.width, res.height, config).unwrap();
        let mut stream = coder.header_bytes();
        let mut vops = Vec::new();
        for t in 0..frames {
            let f = scene.frame(t);
            let view = FrameView {
                width: res.width,
                height: res.height,
                y: &f.y,
                u: &f.u,
                v: &f.v,
            };
            for vop in coder.encode_frame(&mut mem, &view, None).unwrap() {
                vops.push(stream.len()..stream.len() + vop.bytes.len());
                stream.extend_from_slice(&vop.bytes);
            }
        }
        (stream, vops)
    }

    /// Decodes as much of `stream` as decodes; returns the stats of each
    /// decoded VOP.
    fn decode(stream: &[u8]) -> Vec<VopStats> {
        let mut mem = NullModel::new();
        let mut space = AddressSpace::new();
        let mut r = BitReader::new(stream);
        let Ok(mut dec) = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while let Ok(Some(v)) = dec.decode_next(&mut mem, &mut r) {
            out.push(v.stats);
        }
        out
    }

    fn resync_config(slices: usize) -> EncoderConfig {
        let mut c = EncoderConfig::fast_test().with_slices(slices);
        c.resync_mb_interval = Some(23);
        c
    }

    #[test]
    fn prescan_matches_the_rescan_on_the_corrupt_corpus() {
        // The damaged-stream corpus of the resilience suite: random
        // truncations, 1–4 bit flips, and short garbage buffers, over a
        // 3-slice QCIF stream. Every pre-scan the decodes make is
        // checked against the rescan (`check_prescan`).
        let (stream, _) = encode(Resolution::QCIF, resync_config(3), 4);
        let mut corpus = vec![stream.clone()];
        let mut rng = Rng::new(0xc0ffee);
        for _ in 0..24 {
            corpus.push(stream[..rng.gen_range(0..stream.len())].to_vec());
        }
        for _ in 0..30 {
            let mut damaged = stream.clone();
            for _ in 0..rng.gen_range(1usize..=4) {
                let byte = rng.gen_range(0..damaged.len());
                damaged[byte] ^= 1 << rng.gen_range(0u32..8);
            }
            corpus.push(damaged);
        }
        let mut rng = Rng::new(0x9a5ba9e);
        for _ in 0..16 {
            let len = rng.gen_range(0usize..512);
            corpus.push((0..len).map(|_| rng.gen_range(0u32..256) as u8).collect());
        }
        MARKER_PASSES.with(|p| p.set((0, 0)));
        for case in &corpus {
            decode(case);
        }
        let (passes, _) = MARKER_PASSES.with(Cell::get);
        assert!(passes > 4 * 20, "the corpus ran only {passes} pre-scans");
    }

    #[test]
    fn prescan_work_is_one_pass_with_every_slice_header_damaged() {
        // 64 slices of one macroblock row each, every slice header's
        // marker broken: no slice after the first can be located. The
        // rescan would scan the VOP once per slice; the pre-scan makes
        // one pass over it (and agrees with the rescan).
        let res = Resolution {
            width: 64,
            height: 64 * 16,
        };
        let (mut stream, vops) = encode(res, resync_config(64), 1);
        let vop = vops[0].clone();
        let slice_mbs = 4;
        let headers: Vec<usize> = (vop.start..vop.end - 2)
            .filter(|&p| {
                stream[p] == 0x5a && stream[p + 1] == 0x3c && {
                    let mut r = BitReader::new(&stream[p + 2..]);
                    matches!(get_ue(&mut r), Ok(i) if i > 0 && (i as usize).is_multiple_of(slice_mbs))
                }
            })
            .collect();
        assert_eq!(headers.len(), 63);
        for &p in &headers {
            stream[p] ^= 0xff;
        }
        MARKER_PASSES.with(|p| p.set((0, 0)));
        let stats = decode(&stream);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].concealed_mbs, 63 * slice_mbs as u64);
        let (passes, bytes) = MARKER_PASSES.with(Cell::get);
        assert_eq!(passes, 1, "one multi-slice VOP, one marker pass");
        assert!(
            bytes <= vop.len() as u64,
            "the pass scanned {bytes} bytes of a {}-byte VOP",
            vop.len()
        );
    }
}
