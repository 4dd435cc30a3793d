//! Traced pixel planes with motion-search padding.
//!
//! Reference planes are stored with a [`PAD`]-pixel border on every side
//! (edge-replicated, as MoMuSys pads reconstructed VOPs) so that motion
//! search and compensation may address candidates that spill over the
//! frame edge without bounds branches in the inner loops.

use m4ps_memsim::{AccessKind, AddressSpace, MemModel, SimBuf};
use std::ops::Range;

/// Border width in pixels around every plane.
pub const PAD: usize = 16;

/// A mutable row-range destination for traced pixel writes.
///
/// Implemented by whole planes ([`TracedPlane`]) and by borrowed slice
/// regions ([`PlaneViewMut`]), so the macroblock write path is shared
/// between whole-frame (unsliced) coding and the zero-copy slice bands.
pub(crate) trait RowSink {
    /// Traced write of a row of pixels at `(x, y)`.
    fn store_row<M: MemModel>(&mut self, mem: &mut M, x: isize, y: isize, src: &[u8]);

    /// Traced write of a row-major `w`-wide rectangle of pixels with its
    /// top-left at `(x, y)`. The default issues one [`RowSink::store_row`]
    /// per row; traced sinks override it with a single rectangular
    /// charge producing identical counters in identical order.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` is not a multiple of `w`.
    fn store_rect<M: MemModel>(&mut self, mem: &mut M, x: isize, y: isize, w: usize, src: &[u8]) {
        assert_eq!(src.len() % w, 0);
        for (r, row) in src.chunks_exact(w).enumerate() {
            self.store_row(mem, x, y + r as isize, row);
        }
    }
}

/// A mutable 4:2:0 destination (three [`RowSink`] planes).
pub(crate) trait FrameSink {
    /// Plane type of the three components.
    type Plane: RowSink;
    /// Mutable access to `(y, u, v)` at once.
    fn planes_mut(&mut self) -> (&mut Self::Plane, &mut Self::Plane, &mut Self::Plane);
}

/// One traced 8-bit pixel plane.
#[derive(Debug, Clone)]
pub struct TracedPlane {
    width: usize,
    height: usize,
    stride: usize,
    buf: SimBuf<u8>,
}

impl TracedPlane {
    /// Allocates a zeroed plane of `width × height` visible pixels in
    /// `space`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(space: &mut AddressSpace, width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0);
        let stride = width + 2 * PAD;
        let rows = height + 2 * PAD;
        TracedPlane {
            width,
            height,
            stride,
            buf: SimBuf::zeroed(space, stride * rows),
        }
    }

    /// Visible width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Visible height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Linear index of signed coordinates (may address the pad border).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate falls outside the padded surface.
    fn index(&self, x: isize, y: isize) -> usize {
        let px = x + PAD as isize;
        let py = y + PAD as isize;
        assert!(
            px >= 0 && (px as usize) < self.stride,
            "x {x} out of padded range"
        );
        assert!(
            py >= 0 && (py as usize) < self.height + 2 * PAD,
            "y {y} out of padded range"
        );
        py as usize * self.stride + px as usize
    }

    /// Traced read of `len` pixels of row `y` starting at `x`
    /// (coordinates may be negative into the pad).
    pub fn load_row<M: MemModel>(&self, mem: &mut M, x: isize, y: isize, len: usize) -> &[u8] {
        let i = self.index(x, y);
        self.buf.load_run(mem, i, len)
    }

    /// Traced write of a row of pixels at `(x, y)`.
    pub fn store_row<M: MemModel>(&mut self, mem: &mut M, x: isize, y: isize, src: &[u8]) {
        let i = self.index(x, y);
        self.buf.store_run(mem, i, src)
    }

    /// Untraced view of the whole padded surface plus its stride, for
    /// compute kernels that account their traffic separately
    /// (compute-then-charge). Coordinate `(x, y)` lives at linear index
    /// `(y + PAD) * stride + (x + PAD)`.
    pub(crate) fn raw_surface(&self) -> (&[u8], usize) {
        (self.buf.raw(), self.stride)
    }

    /// Address of the first of `rows` non-empty rows of `len` pixels
    /// from `(x, y)` downward, for a caller that charges them later in a
    /// [`MemModel::access_candidates`] batch. Applies, once, the bounds
    /// checks a traced read of each row would make: each row starts
    /// inside the padded surface and ends inside the buffer.
    /// The rows share `x`, and their start indices grow with `y`, so
    /// checking the first and the last row covers every row between.
    ///
    /// # Panics
    ///
    /// Panics if `len` or `rows` is zero or any row falls outside.
    pub(crate) fn rows_addr(&self, x: isize, y: isize, len: usize, rows: usize) -> u64 {
        assert!(len > 0 && rows > 0);
        let first = self.index(x, y);
        let last = self.index(x, y + rows as isize - 1);
        assert!(last + len <= self.buf.len());
        self.buf.addr_of(first)
    }

    /// Bytes from one row to the next.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Charges traced reads of a `w × h` pixel window at `(x, y)` as one
    /// rectangular charge: identical counters, in identical order, to
    /// issuing [`TracedPlane::load_row`] for each row `y..y+h`.
    pub(crate) fn touch_rect_read<M: MemModel>(
        &self,
        mem: &mut M,
        x: isize,
        y: isize,
        w: usize,
        h: usize,
    ) {
        if w == 0 || h == 0 {
            return;
        }
        let first = self.index(x, y);
        // Validate the far corner so the rect obeys the same padded
        // bounds as the per-row path would.
        let _ = self.index(x + w as isize - 1, y + h as isize - 1);
        mem.access_rect(
            self.buf.addr_of(first),
            self.stride as u64,
            h as u64,
            w as u64,
            AccessKind::Load,
            w as u64,
        );
    }

    /// Charges traced writes of a `w × h` pixel window at `(x, y)` as
    /// one rectangular charge (the store dual of
    /// [`TracedPlane::touch_rect_read`]).
    pub(crate) fn touch_rect_write<M: MemModel>(
        &self,
        mem: &mut M,
        x: isize,
        y: isize,
        w: usize,
        h: usize,
    ) {
        if w == 0 || h == 0 {
            return;
        }
        let first = self.index(x, y);
        let _ = self.index(x + w as isize - 1, y + h as isize - 1);
        mem.access_rect(
            self.buf.addr_of(first),
            self.stride as u64,
            h as u64,
            w as u64,
            AccessKind::Store,
            w as u64,
        );
    }

    /// Traced single-pixel read.
    pub fn load_pixel<M: MemModel>(&self, mem: &mut M, x: isize, y: isize) -> u8 {
        let i = self.index(x, y);
        self.buf.load(mem, i)
    }

    /// Traced single-pixel write.
    pub fn store_pixel<M: MemModel>(&mut self, mem: &mut M, x: isize, y: isize, v: u8) {
        let i = self.index(x, y);
        self.buf.store(mem, i, v)
    }

    /// Untraced single-pixel write, for making partial state visible to
    /// causal context computations whose traffic is charged at row
    /// granularity elsewhere.
    pub fn poke_untraced(&mut self, x: isize, y: isize, v: u8) {
        let i = self.index(x, y);
        self.buf.raw_mut()[i] = v;
    }

    /// Untraced row view (for assertions and boundary I/O only).
    pub fn raw_row(&self, x: isize, y: isize, len: usize) -> &[u8] {
        let i = self.index(x, y);
        &self.buf.raw()[i..i + len]
    }

    /// Simulated address of the pixel at `(x, y)` — used to aim software
    /// prefetches.
    pub fn addr_of(&self, x: isize, y: isize) -> u64 {
        self.buf.addr_of(self.index(x, y))
    }

    /// Splits the plane into disjoint mutable views over the visible
    /// row ranges `parts` (ascending, non-overlapping). Each view owns
    /// the full padded width of its rows and charges its stores to the
    /// same simulated addresses the whole plane would, so slice workers
    /// write the reconstruction in place — no private clone, no
    /// stitch-back copy — while the traced reference stream stays
    /// byte-identical to the sequential path.
    ///
    /// # Panics
    ///
    /// Panics if the ranges overlap, run out of order, or exceed the
    /// visible height.
    pub fn split_rows_mut(&mut self, parts: &[Range<usize>]) -> Vec<PlaneViewMut<'_>> {
        let (width, height, stride) = (self.width, self.height, self.stride);
        let base = self.buf.base_addr();
        let mut rest: &mut [u8] = self.buf.raw_mut();
        let mut consumed = 0usize; // bytes already split off the front
        let mut prev_end = 0usize;
        let mut out = Vec::with_capacity(parts.len());
        for r in parts {
            assert!(
                r.start >= prev_end && r.start <= r.end && r.end <= height,
                "row ranges must be ascending, disjoint and within 0..{height}"
            );
            prev_end = r.end;
            let first = (r.start + PAD) * stride;
            let last = (r.end + PAD) * stride;
            let tail = std::mem::take(&mut rest);
            let (_, tail) = tail.split_at_mut(first - consumed);
            let (mid, tail) = tail.split_at_mut(last - first);
            rest = tail;
            consumed = last;
            out.push(PlaneViewMut {
                data: mid,
                base: base + first as u64,
                stride,
                width,
                y0: r.start as isize,
                y1: r.end as isize,
            });
        }
        out
    }

    /// Copies an untraced source plane (e.g. generator output) into the
    /// visible area, issuing traced stores row by row — this is the
    /// "frame input" stage of the application pipeline. When
    /// `prefetch` is true a software prefetch is issued one line ahead,
    /// mimicking the compiler's conservative streaming-loop insertion.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not exactly `width × height` samples.
    pub fn copy_from<M: MemModel>(&mut self, mem: &mut M, src: &[u8], prefetch: bool) {
        assert_eq!(src.len(), self.width * self.height, "source size mismatch");
        if !prefetch {
            // No interleaved prefetches: the rows form one rectangle.
            RowSink::store_rect(self, mem, 0, 0, self.width, src);
            return;
        }
        for y in 0..self.height {
            if y + 1 < self.height {
                // One prefetch pair per row (streaming-loop insertion).
                mem.prefetch_pair(self.addr_of(0, (y + 1) as isize));
            }
            let row = &src[y * self.width..][..self.width];
            self.store_row(mem, 0, y as isize, row);
        }
    }

    /// Traced clear (zero-fill) of a pixel region.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the visible area.
    pub fn clear_region<M: MemModel>(
        &mut self,
        mem: &mut M,
        x0: usize,
        y0: usize,
        w: usize,
        h: usize,
    ) {
        assert!(x0 + w <= self.width && y0 + h <= self.height);
        self.touch_rect_write(mem, x0 as isize, y0 as isize, w, h);
        for y in y0..y0 + h {
            let i = self.index(x0 as isize, y as isize);
            self.buf.raw_mut()[i..i + w].fill(0);
        }
    }

    /// Copies the `bbox = (x0, y0, w, h)` region of a full-frame source
    /// slice into the same region of this plane, with traced stores.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a full `width × height` plane or the
    /// region exceeds it.
    pub fn copy_region_from<M: MemModel>(
        &mut self,
        mem: &mut M,
        src: &[u8],
        bbox: (usize, usize, usize, usize),
    ) {
        let (x0, y0, w, h) = bbox;
        assert_eq!(src.len(), self.width * self.height);
        assert!(x0 + w <= self.width && y0 + h <= self.height);
        self.touch_rect_write(mem, x0 as isize, y0 as isize, w, h);
        for y in y0..y0 + h {
            let row = &src[y * self.width + x0..][..w];
            let i = self.index(x0 as isize, y as isize);
            self.buf.raw_mut()[i..i + w].copy_from_slice(row);
        }
    }

    /// Reads the visible area back into a `Vec` with traced loads
    /// (the "frame output" stage).
    pub fn copy_out<M: MemModel>(&self, mem: &mut M) -> Vec<u8> {
        self.touch_rect_read(mem, 0, 0, self.width, self.height);
        let mut out = Vec::with_capacity(self.width * self.height);
        for y in 0..self.height {
            out.extend_from_slice(self.raw_row(0, y as isize, self.width));
        }
        out
    }

    /// Edge-replicates the visible area into the pad border (traced):
    /// MoMuSys pads every reconstructed VOP before it becomes a
    /// reference.
    pub fn pad_borders<M: MemModel>(&mut self, mem: &mut M) {
        let w = self.width;
        let h = self.height;
        // Left/right columns.
        for y in 0..h as isize {
            let left = self.load_pixel(mem, 0, y);
            let right = self.load_pixel(mem, w as isize - 1, y);
            self.store_row(mem, -(PAD as isize), y, &[left; PAD]);
            self.store_row(mem, w as isize, y, &[right; PAD]);
        }
        // Top/bottom rows (including corners, now that side pads exist).
        let full = self.stride;
        let top: Vec<u8> = self.raw_row(-(PAD as isize), 0, full).to_vec();
        let bottom: Vec<u8> = self.raw_row(-(PAD as isize), h as isize - 1, full).to_vec();
        self.buf
            .touch_read(mem, self.index(-(PAD as isize), 0), full);
        self.buf
            .touch_read(mem, self.index(-(PAD as isize), h as isize - 1), full);
        for p in 1..=PAD as isize {
            self.store_row(mem, -(PAD as isize), -p, &top);
            self.store_row(mem, -(PAD as isize), h as isize - 1 + p, &bottom);
        }
    }
}

/// A traced 4:2:0 frame (full-size Y, half-size U and V).
#[derive(Debug, Clone)]
pub struct TracedFrame {
    /// Luminance plane.
    pub y: TracedPlane,
    /// Cb plane.
    pub u: TracedPlane,
    /// Cr plane.
    pub v: TracedPlane,
}

impl TracedFrame {
    /// Allocates all three planes for a `width × height` frame.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is odd or zero.
    pub fn new(space: &mut AddressSpace, width: usize, height: usize) -> Self {
        assert!(width.is_multiple_of(2) && height.is_multiple_of(2));
        TracedFrame {
            y: TracedPlane::new(space, width, height),
            u: TracedPlane::new(space, width / 2, height / 2),
            v: TracedPlane::new(space, width / 2, height / 2),
        }
    }

    /// Loads a YUV 4:2:0 triple of raw planes (e.g. a generator frame).
    pub fn copy_from_yuv<M: MemModel>(
        &mut self,
        mem: &mut M,
        y: &[u8],
        u: &[u8],
        v: &[u8],
        prefetch: bool,
    ) {
        self.y.copy_from(mem, y, prefetch);
        self.u.copy_from(mem, u, prefetch);
        self.v.copy_from(mem, v, prefetch);
    }

    /// Loads only the macroblock-aligned `bbox` region of a 4:2:0 frame
    /// (the reference codec reads VOP-sized buffers for shaped objects).
    ///
    /// # Panics
    ///
    /// Panics if the box is unaligned or out of range.
    pub fn copy_region_from_yuv<M: MemModel>(
        &mut self,
        mem: &mut M,
        y: &[u8],
        u: &[u8],
        v: &[u8],
        bbox: (usize, usize, usize, usize),
    ) {
        let (x0, y0, w, h) = bbox;
        assert!(x0 % 2 == 0 && y0 % 2 == 0 && w % 2 == 0 && h % 2 == 0);
        self.y.copy_region_from(mem, y, bbox);
        self.u
            .copy_region_from(mem, u, (x0 / 2, y0 / 2, w / 2, h / 2));
        self.v
            .copy_region_from(mem, v, (x0 / 2, y0 / 2, w / 2, h / 2));
    }

    /// Pads all three planes.
    pub fn pad_borders<M: MemModel>(&mut self, mem: &mut M) {
        self.y.pad_borders(mem);
        self.u.pad_borders(mem);
        self.v.pad_borders(mem);
    }

    /// Splits the frame into disjoint mutable views over the given
    /// macroblock-row ranges (16-pixel luma rows, 8-pixel chroma rows)
    /// — the zero-copy slice regions of the parallel encoder; see
    /// [`TracedPlane::split_rows_mut`].
    ///
    /// # Panics
    ///
    /// Panics if the ranges overlap, run out of order, or exceed the
    /// frame's macroblock rows.
    pub fn split_mb_rows_mut(&mut self, mb_rows: &[Range<usize>]) -> Vec<FrameViewMut<'_>> {
        let luma: Vec<Range<usize>> = mb_rows.iter().map(|r| r.start * 16..r.end * 16).collect();
        let chroma: Vec<Range<usize>> = mb_rows.iter().map(|r| r.start * 8..r.end * 8).collect();
        let ys = self.y.split_rows_mut(&luma);
        let us = self.u.split_rows_mut(&chroma);
        let vs = self.v.split_rows_mut(&chroma);
        ys.into_iter()
            .zip(us)
            .zip(vs)
            .map(|((y, u), v)| FrameViewMut { y, u, v })
            .collect()
    }
}

/// A mutable borrowed window of a [`TracedPlane`] covering the visible
/// rows `[y0, y1)`, with the plane's padded-access semantics: `x` may
/// address the side pads, addresses and store tracing are identical to
/// writing the parent plane directly. Disjoint views of one plane can
/// be written from different threads (`split_at_mut`-style borrowing).
#[derive(Debug)]
pub struct PlaneViewMut<'a> {
    data: &'a mut [u8],
    /// Simulated address of `data[0]`.
    base: u64,
    stride: usize,
    width: usize,
    y0: isize,
    y1: isize,
}

impl PlaneViewMut<'_> {
    /// Visible width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The visible row range this view may write.
    pub fn rows(&self) -> Range<isize> {
        self.y0..self.y1
    }

    /// Linear index of signed coordinates within the view.
    ///
    /// # Panics
    ///
    /// Panics if `y` falls outside the view's rows or `x` outside the
    /// padded width.
    fn index(&self, x: isize, y: isize) -> usize {
        let px = x + PAD as isize;
        assert!(
            px >= 0 && (px as usize) < self.stride,
            "x {x} out of padded range"
        );
        assert!(
            y >= self.y0 && y < self.y1,
            "y {y} outside view rows {}..{}",
            self.y0,
            self.y1
        );
        (y - self.y0) as usize * self.stride + px as usize
    }

    /// Traced write of a row of pixels at `(x, y)` — same charge stream
    /// as [`TracedPlane::store_row`] on the parent plane.
    pub fn store_row<M: MemModel>(&mut self, mem: &mut M, x: isize, y: isize, src: &[u8]) {
        let i = self.index(x, y);
        if !src.is_empty() {
            mem.access_range(
                self.base + i as u64,
                src.len() as u64,
                AccessKind::Store,
                src.len() as u64,
            );
        }
        self.data[i..i + src.len()].copy_from_slice(src);
    }
}

/// Disjoint mutable views of a [`TracedFrame`]'s three planes over one
/// slice's macroblock rows.
#[derive(Debug)]
pub struct FrameViewMut<'a> {
    /// Luminance rows.
    pub y: PlaneViewMut<'a>,
    /// Cb rows.
    pub u: PlaneViewMut<'a>,
    /// Cr rows.
    pub v: PlaneViewMut<'a>,
}

impl RowSink for TracedPlane {
    fn store_row<M: MemModel>(&mut self, mem: &mut M, x: isize, y: isize, src: &[u8]) {
        TracedPlane::store_row(self, mem, x, y, src);
    }

    fn store_rect<M: MemModel>(&mut self, mem: &mut M, x: isize, y: isize, w: usize, src: &[u8]) {
        assert_eq!(src.len() % w, 0);
        let h = src.len() / w;
        self.touch_rect_write(mem, x, y, w, h);
        for (r, row) in src.chunks_exact(w).enumerate() {
            let i = self.index(x, y + r as isize);
            self.buf.raw_mut()[i..i + w].copy_from_slice(row);
        }
    }
}

impl RowSink for PlaneViewMut<'_> {
    fn store_row<M: MemModel>(&mut self, mem: &mut M, x: isize, y: isize, src: &[u8]) {
        PlaneViewMut::store_row(self, mem, x, y, src);
    }

    fn store_rect<M: MemModel>(&mut self, mem: &mut M, x: isize, y: isize, w: usize, src: &[u8]) {
        assert_eq!(src.len() % w, 0);
        let h = src.len() / w;
        if w == 0 || h == 0 {
            return;
        }
        let first = self.index(x, y);
        let _ = self.index(x + w as isize - 1, y + h as isize - 1);
        mem.access_rect(
            self.base + first as u64,
            self.stride as u64,
            h as u64,
            w as u64,
            AccessKind::Store,
            w as u64,
        );
        for (r, row) in src.chunks_exact(w).enumerate() {
            let i = self.index(x, y + r as isize);
            self.data[i..i + w].copy_from_slice(row);
        }
    }
}

impl FrameSink for TracedFrame {
    type Plane = TracedPlane;
    fn planes_mut(&mut self) -> (&mut TracedPlane, &mut TracedPlane, &mut TracedPlane) {
        (&mut self.y, &mut self.u, &mut self.v)
    }
}

impl<'a> FrameSink for FrameViewMut<'a> {
    type Plane = PlaneViewMut<'a>;
    fn planes_mut(
        &mut self,
    ) -> (
        &mut PlaneViewMut<'a>,
        &mut PlaneViewMut<'a>,
        &mut PlaneViewMut<'a>,
    ) {
        (&mut self.y, &mut self.u, &mut self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m4ps_memsim::NullModel;

    fn setup() -> (AddressSpace, NullModel) {
        (AddressSpace::new(), NullModel::new())
    }

    #[test]
    fn rows_roundtrip() {
        let (mut space, mut mem) = setup();
        let mut p = TracedPlane::new(&mut space, 32, 16);
        p.store_row(&mut mem, 0, 3, &[7; 32]);
        assert_eq!(p.load_row(&mut mem, 0, 3, 32), &[7; 32]);
        assert_eq!(p.load_pixel(&mut mem, 31, 3), 7);
        assert_eq!(p.load_pixel(&mut mem, 0, 2), 0);
    }

    #[test]
    fn negative_coordinates_address_pad() {
        let (mut space, mut mem) = setup();
        let mut p = TracedPlane::new(&mut space, 32, 16);
        p.store_pixel(&mut mem, -1, -1, 99);
        assert_eq!(p.load_pixel(&mut mem, -1, -1), 99);
    }

    #[test]
    #[should_panic(expected = "out of padded range")]
    fn beyond_pad_panics() {
        let (mut space, mut mem) = setup();
        let p = TracedPlane::new(&mut space, 32, 16);
        p.load_pixel(&mut mem, -(PAD as isize) - 1, 0);
    }

    #[test]
    fn copy_in_then_out_preserves_data() {
        let (mut space, mut mem) = setup();
        let mut p = TracedPlane::new(&mut space, 8, 4);
        let src: Vec<u8> = (0..32).collect();
        p.copy_from(&mut mem, &src, false);
        assert_eq!(p.copy_out(&mut mem), src);
    }

    #[test]
    fn padding_replicates_edges() {
        let (mut space, mut mem) = setup();
        let mut p = TracedPlane::new(&mut space, 8, 4);
        let mut src = vec![50u8; 32];
        src[0] = 10; // top-left pixel
        src[7] = 20; // top-right
        src[24] = 30; // bottom-left
        src[31] = 40; // bottom-right
        p.copy_from(&mut mem, &src, false);
        p.pad_borders(&mut mem);
        assert_eq!(p.load_pixel(&mut mem, -1, 0), 10);
        assert_eq!(p.load_pixel(&mut mem, -5, -7), 10);
        assert_eq!(p.load_pixel(&mut mem, 8, 0), 20);
        assert_eq!(p.load_pixel(&mut mem, 12, -3), 20);
        assert_eq!(p.load_pixel(&mut mem, -2, 5), 30);
        assert_eq!(p.load_pixel(&mut mem, 9, 3), 40);
        assert_eq!(p.load_pixel(&mut mem, 10, 10), 40);
    }

    #[test]
    fn copy_from_issues_prefetches_when_asked() {
        use m4ps_memsim::{Hierarchy, MachineSpec};
        let mut space = AddressSpace::new();
        let mut mem = Hierarchy::new(MachineSpec::o2());
        let mut p = TracedPlane::new(&mut space, 64, 8);
        p.copy_from(&mut mem, &vec![1u8; 64 * 8], true);
        assert_eq!(mem.counters().prefetches, 14); // 7 rows x 1 pair
        let mut mem2 = Hierarchy::new(MachineSpec::o2());
        let mut p2 = TracedPlane::new(&mut space, 64, 8);
        p2.copy_from(&mut mem2, &vec![1u8; 64 * 8], false);
        assert_eq!(mem2.counters().prefetches, 0);
    }

    #[test]
    fn frame_chroma_planes_are_half_size() {
        let (mut space, _) = setup();
        let f = TracedFrame::new(&mut space, 32, 16);
        assert_eq!(f.y.width(), 32);
        assert_eq!(f.u.width(), 16);
        assert_eq!(f.v.height(), 8);
    }

    #[test]
    fn distinct_planes_have_distinct_addresses() {
        let (mut space, _) = setup();
        let f = TracedFrame::new(&mut space, 32, 16);
        assert_ne!(f.y.addr_of(0, 0), f.u.addr_of(0, 0));
        assert_ne!(f.u.addr_of(0, 0), f.v.addr_of(0, 0));
    }

    #[test]
    fn view_stores_land_in_parent_plane() {
        let (mut space, mut mem) = setup();
        let mut p = TracedPlane::new(&mut space, 32, 32);
        {
            let mut views = p.split_rows_mut(&[0..16, 16..32]);
            views[0].store_row(&mut mem, 0, 3, &[7; 32]);
            views[1].store_row(&mut mem, -2, 20, &[9; 36]);
            assert_eq!(views[0].rows(), 0..16);
            assert_eq!(views[1].rows(), 16..32);
        }
        assert_eq!(p.load_row(&mut mem, 0, 3, 32), &[7; 32]);
        assert_eq!(p.load_row(&mut mem, -2, 20, 36), &[9; 36]);
        assert_eq!(p.load_pixel(&mut mem, 0, 4), 0);
    }

    #[test]
    fn view_stores_charge_the_same_traced_addresses() {
        use m4ps_memsim::{Hierarchy, MachineSpec};
        let mut space = AddressSpace::new();
        let mut a = TracedPlane::new(&mut space, 48, 32);
        // A second plane at *the same simulated addresses* is what a
        // per-slice clone used to be: clones preserve the base address.
        let mut b = a.clone();

        let mut mem_direct = Hierarchy::new(MachineSpec::o2());
        for y in 0..32 {
            a.store_row(&mut mem_direct, 0, y, &[y as u8; 48]);
        }

        let mut mem_view = Hierarchy::new(MachineSpec::o2());
        let mut views = b.split_rows_mut(&[0..16, 16..32]);
        for v in &mut views {
            for y in v.rows() {
                v.store_row(&mut mem_view, 0, y, &[y as u8; 48]);
            }
        }
        assert_eq!(mem_direct.counters(), mem_view.counters());
    }

    #[test]
    #[should_panic(expected = "ascending, disjoint")]
    fn overlapping_split_ranges_panic() {
        let (mut space, _) = setup();
        let mut p = TracedPlane::new(&mut space, 32, 32);
        let _ = p.split_rows_mut(&[0..16, 8..32]);
    }

    #[test]
    #[should_panic(expected = "outside view rows")]
    // One deliberate half-height part, not a range-to-Vec typo.
    #[allow(clippy::single_range_in_vec_init)]
    fn view_rejects_rows_outside_its_range() {
        let (mut space, mut mem) = setup();
        let mut p = TracedPlane::new(&mut space, 32, 32);
        let mut views = p.split_rows_mut(&[0..16]);
        views[0].store_row(&mut mem, 0, 16, &[1; 32]);
    }

    #[test]
    fn frame_split_covers_luma_and_chroma_rows() {
        let (mut space, mut mem) = setup();
        let mut f = TracedFrame::new(&mut space, 32, 32);
        {
            let mut views = f.split_mb_rows_mut(&[0..1, 1..2]);
            assert_eq!(views[0].y.rows(), 0..16);
            assert_eq!(views[0].u.rows(), 0..8);
            assert_eq!(views[1].y.rows(), 16..32);
            assert_eq!(views[1].v.rows(), 8..16);
            views[1].u.store_row(&mut mem, 0, 12, &[5; 16]);
        }
        assert_eq!(f.u.load_pixel(&mut mem, 0, 12), 5);
    }
}
