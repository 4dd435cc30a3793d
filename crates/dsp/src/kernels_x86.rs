//! SSE2 and AVX2 kernel tiers for the dispatch table.
//!
//! Every function here is **bit-identical** to its scalar reference in
//! `sad.rs`/`interp.rs`/`quant.rs`: the kernels are pure integer
//! arithmetic, and each vector construction reproduces the scalar
//! rounding exactly — `pavgb` *is* `(a+b+1)>>1`, the 4-term diagonal
//! average widens to u16 before `(a+b+c+d+2)>>2` (nesting `pavgb` would
//! bias the rounding), and the quantizers run the same
//! Granlund–Montgomery magic multiply as `StepDiv` in 64-bit lane
//! pairs. The cutoff SAD variants test the cutoff after every row, like
//! scalar, and the row-group SAD computes the same rows and running
//! sums as scalar, so each candidate's `(sum, rows_visited)` — which the
//! codec replays into the simulated memory hierarchy — cannot diverge
//! across tiers.
//!
//! All plane loads go through slice indexing first, so out-of-bounds
//! windows panic exactly where the scalar kernels panic; the raw
//! pointer reads that follow are over freshly bounds-checked slices.
//! The AVX2 row group's dead lanes read past the live window, never
//! past the buffer: near the buffer's end it scores a zero-padded copy
//! of the window instead.
//!
//! Tier layering mirrors the `SIMD_DO`/libmpeg2 exemplars: a tier only
//! overrides the pointers it can beat. SSE2 keeps the scalar
//! quantizers (`pmulld` is SSE4.1 and the magic divide needs 64-bit
//! products); AVX2 keeps the SSE2 per-candidate cutoff and half-pel
//! SADs (one candidate's per-row cutoff pins work to one 16-pixel row,
//! exactly one XMM `psadbw`) but scores a row of 16 adjacent
//! candidates with four `vmpsadbw` in the row-group SAD.

#![allow(clippy::too_many_arguments)]

use crate::dct::CoefBlock;
use crate::dispatch::{KernelTier, Kernels};
use crate::interp::HalfPel;
use crate::quant::{check_qp, StepDiv};
use crate::sad::{RowGroup, RowSums, ROW_GROUP_LANES};
use std::arch::x86_64::*;

/// The SSE2 tier: vector SAD/interp/avg/copy, scalar quantizers.
pub(crate) static SSE2: Kernels = Kernels {
    tier: KernelTier::Sse2,
    sad16: sse2::sad_16x16,
    sad8: sse2::sad_8x8,
    sad16_cutoff: sse2::sad_16x16_with_cutoff,
    sad8_cutoff: sse2::sad_8x8_with_cutoff,
    sad16_row_group: sse2::sad_16x16_row_group,
    sad16_half_pel: sse2::sad_half_pel_16,
    sad8_half_pel: sse2::sad_half_pel_8,
    interp: sse2::interpolate_half_pel,
    avg: sse2::average_pixels,
    copy_block: sse2::copy_block,
    quant_intra: crate::quant::quantize_intra,
    quant_inter: crate::quant::quantize_inter,
    dequant_intra: crate::quant::dequantize_intra,
    dequant_inter: crate::quant::dequantize_inter,
};

/// The AVX2 tier: 256-bit SAD/interp/avg/copy/quant; SSE2 pointers
/// retained where a 16-pixel row already fills one XMM register.
pub(crate) static AVX2: Kernels = Kernels {
    tier: KernelTier::Avx2,
    sad16: avx2::sad_16x16,
    sad8: sse2::sad_8x8,
    sad16_cutoff: sse2::sad_16x16_with_cutoff,
    sad8_cutoff: sse2::sad_8x8_with_cutoff,
    sad16_row_group: avx2::sad_16x16_row_group,
    sad16_half_pel: sse2::sad_half_pel_16,
    sad8_half_pel: sse2::sad_half_pel_8,
    interp: avx2::interpolate_half_pel,
    avg: avx2::average_pixels,
    copy_block: avx2::copy_block,
    quant_intra: avx2::quantize_intra,
    quant_inter: avx2::quantize_inter,
    dequant_intra: avx2::dequantize_intra,
    dequant_inter: avx2::dequantize_inter,
};

/// The `N`-pixel row of `plane` at `(x, y)` in the low `N` bytes of an
/// XMM register (upper bytes zero when `N == 8`). Bounds-checked by the
/// slice index, so invalid windows panic like the scalar `row_n`.
#[inline]
unsafe fn loadn<const N: usize>(plane: &[u8], stride: usize, x: usize, y: usize) -> __m128i {
    debug_assert!(N == 8 || N == 16);
    let row = &plane[y * stride + x..][..N];
    if N == 16 {
        _mm_loadu_si128(row.as_ptr().cast())
    } else {
        _mm_loadl_epi64(row.as_ptr().cast())
    }
}

/// Sum of the two 16-bit `psadbw` partials of a single row (each lane's
/// sum is zero-extended into its 64-bit half).
#[inline]
unsafe fn hsum_sad_row(v: __m128i) -> u32 {
    (_mm_cvtsi128_si32(v) as u32) + (_mm_extract_epi16::<4>(v) as u32)
}

/// Sum of two accumulated 64-bit SAD lanes.
#[inline]
unsafe fn hsum_sad_acc(v: __m128i) -> u32 {
    let hi = _mm_unpackhi_epi64(v, v);
    _mm_cvtsi128_si64(_mm_add_epi64(v, hi)) as u32
}

/// Byte mask of the row-group lanes whose running sum (16 u16 lanes,
/// `lo` holding lanes 0–7) is at or below `cut`, two bits per lane —
/// the layout of `RowGroup::test_bits`. `cut` is the group cutoff
/// saturated to u16, which decides every lane exactly because no sum
/// exceeds 65,280.
#[inline]
unsafe fn lanes_at_or_below(lo: __m128i, hi: __m128i, cut: __m128i) -> u32 {
    let z = _mm_setzero_si128();
    let lo = _mm_movemask_epi8(_mm_cmpeq_epi16(_mm_subs_epu16(lo, cut), z)) as u32;
    let hi = _mm_movemask_epi8(_mm_cmpeq_epi16(_mm_subs_epu16(hi, cut), z)) as u32;
    lo | hi << 16
}

/// The group cutoff saturated to u16 (see [`lanes_at_or_below`]).
#[inline]
fn row_group_cut(group: &RowGroup) -> i16 {
    group.cutoff.min(u32::from(u16::MAX)) as u16 as i16
}

/// Exact `(a+b+c+d+2)>>2` over u8 lanes via u16 widening. Nested
/// `pavgb` would round intermediate sums and drift from the scalar
/// bilinear average, so both halves widen, add, and shift instead.
#[inline]
unsafe fn diag_avg(a: __m128i, b: __m128i, c: __m128i, d: __m128i) -> __m128i {
    let z = _mm_setzero_si128();
    let two = _mm_set1_epi16(2);
    let lo = _mm_add_epi16(
        _mm_add_epi16(_mm_unpacklo_epi8(a, z), _mm_unpacklo_epi8(b, z)),
        _mm_add_epi16(
            _mm_add_epi16(_mm_unpacklo_epi8(c, z), _mm_unpacklo_epi8(d, z)),
            two,
        ),
    );
    let hi = _mm_add_epi16(
        _mm_add_epi16(_mm_unpackhi_epi8(a, z), _mm_unpackhi_epi8(b, z)),
        _mm_add_epi16(
            _mm_add_epi16(_mm_unpackhi_epi8(c, z), _mm_unpackhi_epi8(d, z)),
            two,
        ),
    );
    _mm_packus_epi16(_mm_srli_epi16::<2>(lo), _mm_srli_epi16::<2>(hi))
}

/// The half-pel prediction row for one `(FX, FY)` variant: `pavgb` for
/// the single-axis phases (exact `(a+b+1)>>1`), widened 4-term average
/// for the diagonal.
#[inline]
unsafe fn pred_row<const N: usize, const FX: bool, const FY: bool>(
    reference: &[u8],
    stride: usize,
    x: usize,
    y: usize,
) -> __m128i {
    match (FX, FY) {
        (false, false) => loadn::<N>(reference, stride, x, y),
        (true, false) => _mm_avg_epu8(
            loadn::<N>(reference, stride, x, y),
            loadn::<N>(reference, stride, x + 1, y),
        ),
        (false, true) => _mm_avg_epu8(
            loadn::<N>(reference, stride, x, y),
            loadn::<N>(reference, stride, x, y + 1),
        ),
        (true, true) => diag_avg(
            loadn::<N>(reference, stride, x, y),
            loadn::<N>(reference, stride, x + 1, y),
            loadn::<N>(reference, stride, x, y + 1),
            loadn::<N>(reference, stride, x + 1, y + 1),
        ),
    }
}

/// 128-bit SSE2 kernels. SSE2 is part of the x86-64 baseline, so these
/// are unconditionally sound on this architecture; the wrappers stay
/// behind the dispatch table for uniformity.
mod sse2 {
    use super::*;

    unsafe fn sad_kernel<const N: usize>(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
    ) -> u32 {
        let mut acc = _mm_setzero_si128();
        for row in 0..N {
            let c = loadn::<N>(cur, cur_stride, cx, cy + row);
            let r = loadn::<N>(reference, ref_stride, rx, ry + row);
            acc = _mm_add_epi64(acc, _mm_sad_epu8(c, r));
        }
        hsum_sad_acc(acc)
    }

    pub(crate) fn sad_16x16(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
    ) -> u32 {
        // SAFETY: SSE2 is the x86-64 baseline; loads are bounds-checked.
        unsafe { sad_kernel::<16>(cur, cur_stride, cx, cy, reference, ref_stride, rx, ry) }
    }

    pub(crate) fn sad_8x8(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
    ) -> u32 {
        // SAFETY: as in `sad_16x16`.
        unsafe { sad_kernel::<8>(cur, cur_stride, cx, cy, reference, ref_stride, rx, ry) }
    }

    /// The cutoff is evaluated after every row — the vector win is
    /// within the row (`psadbw`), never across rows, so `rows_visited`
    /// matches the scalar kernel on every input.
    unsafe fn sad_cutoff_kernel<const N: usize>(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        cutoff: u32,
    ) -> (u32, usize) {
        let mut acc = 0u32;
        for row in 0..N {
            let c = loadn::<N>(cur, cur_stride, cx, cy + row);
            let r = loadn::<N>(reference, ref_stride, rx, ry + row);
            acc += hsum_sad_row(_mm_sad_epu8(c, r));
            if acc > cutoff {
                return (acc, row + 1);
            }
        }
        (acc, N)
    }

    pub(crate) fn sad_16x16_with_cutoff(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        cutoff: u32,
    ) -> (u32, usize) {
        // SAFETY: as in `sad_16x16`.
        unsafe {
            sad_cutoff_kernel::<16>(
                cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
            )
        }
    }

    pub(crate) fn sad_8x8_with_cutoff(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        cutoff: u32,
    ) -> (u32, usize) {
        // SAFETY: as in `sad_16x16`.
        unsafe {
            sad_cutoff_kernel::<8>(
                cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
            )
        }
    }

    /// One `psadbw` per live lane per row; dead lanes stay zero.
    unsafe fn row_group_kernel(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        group: RowGroup,
        sums: &mut RowSums,
    ) -> usize {
        let tested = group.test_bits();
        let cut = _mm_set1_epi16(row_group_cut(&group));
        let mut acc = [0u16; ROW_GROUP_LANES];
        for (row, out) in sums.iter_mut().enumerate() {
            let c = loadn::<16>(cur, cur_stride, cx, cy + row);
            for (lane, a) in acc[..group.lanes].iter_mut().enumerate() {
                let r = loadn::<16>(reference, ref_stride, rx + lane, ry + row);
                *a += hsum_sad_row(_mm_sad_epu8(c, r)) as u16;
            }
            *out = acc;
            let lo = _mm_loadu_si128(acc.as_ptr().cast());
            let hi = _mm_loadu_si128(acc[8..].as_ptr().cast());
            if lanes_at_or_below(lo, hi, cut) & tested == 0 {
                return row + 1;
            }
        }
        16
    }

    pub(crate) fn sad_16x16_row_group(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        group: RowGroup,
        sums: &mut RowSums,
    ) -> usize {
        // SAFETY: as in `sad_16x16`; `acc` is exactly 16 u16 lanes.
        unsafe {
            row_group_kernel(
                cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, group, sums,
            )
        }
    }

    unsafe fn sad_half_pel_kernel<const N: usize, const FX: bool, const FY: bool>(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        cutoff: u32,
    ) -> (u32, usize) {
        let mut acc = 0u32;
        for row in 0..N {
            let c = loadn::<N>(cur, cur_stride, cx, cy + row);
            let p = pred_row::<N, FX, FY>(reference, ref_stride, rx, ry + row);
            acc += hsum_sad_row(_mm_sad_epu8(c, p));
            if acc > cutoff {
                return (acc, row + 1);
            }
        }
        (acc, N)
    }

    fn sad_half_pel<const N: usize>(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        frac_x: bool,
        frac_y: bool,
        cutoff: u32,
    ) -> (u32, usize) {
        // SAFETY: as in `sad_16x16`.
        unsafe {
            match (frac_x, frac_y) {
                (false, false) => sad_half_pel_kernel::<N, false, false>(
                    cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
                ),
                (true, false) => sad_half_pel_kernel::<N, true, false>(
                    cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
                ),
                (false, true) => sad_half_pel_kernel::<N, false, true>(
                    cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
                ),
                (true, true) => sad_half_pel_kernel::<N, true, true>(
                    cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
                ),
            }
        }
    }

    pub(crate) fn sad_half_pel_16(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        frac_x: bool,
        frac_y: bool,
        cutoff: u32,
    ) -> (u32, usize) {
        sad_half_pel::<16>(
            cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, frac_x, frac_y, cutoff,
        )
    }

    pub(crate) fn sad_half_pel_8(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        frac_x: bool,
        frac_y: bool,
        cutoff: u32,
    ) -> (u32, usize) {
        sad_half_pel::<8>(
            cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, frac_x, frac_y, cutoff,
        )
    }

    /// One interpolated output row: 16- then 8-pixel vector chunks,
    /// scalar tail for the remaining `w mod 8` pixels.
    unsafe fn interp_row<const FX: bool, const FY: bool>(
        reference: &[u8],
        stride: usize,
        rx: usize,
        y: usize,
        w: usize,
        out: &mut [u8],
    ) {
        let mut x = 0;
        while x + 16 <= w {
            let p = pred_row::<16, FX, FY>(reference, stride, rx + x, y);
            _mm_storeu_si128(out[x..x + 16].as_mut_ptr().cast(), p);
            x += 16;
        }
        if x + 8 <= w {
            let p = pred_row::<8, FX, FY>(reference, stride, rx + x, y);
            _mm_storel_epi64(out[x..x + 8].as_mut_ptr().cast(), p);
            x += 8;
        }
        let px = |px_x: usize, px_y: usize| u16::from(reference[px_y * stride + px_x]);
        for (x, o) in out.iter_mut().enumerate().skip(x) {
            let v = match (FX, FY) {
                (false, false) => px(rx + x, y),
                (true, false) => (px(rx + x, y) + px(rx + x + 1, y) + 1) >> 1,
                (false, true) => (px(rx + x, y) + px(rx + x, y + 1) + 1) >> 1,
                (true, true) => {
                    (px(rx + x, y)
                        + px(rx + x + 1, y)
                        + px(rx + x, y + 1)
                        + px(rx + x + 1, y + 1)
                        + 2)
                        >> 2
                }
            };
            *o = v as u8;
        }
    }

    pub(crate) fn interpolate_half_pel(
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        phase: HalfPel,
        w: usize,
        h: usize,
        out: &mut [u8],
    ) {
        assert!(out.len() >= w * h);
        if phase == HalfPel::Full {
            copy_block(reference, ref_stride, rx, ry, w, h, out);
            return;
        }
        // SAFETY: as in `sad_16x16`; fractional-phase loads at `+1` are
        // covered by the kernel contract (one pixel of slack right and
        // below), enforced by the bounds-checked slices inside.
        unsafe {
            for y in 0..h {
                let orow = &mut out[y * w..][..w];
                match phase {
                    HalfPel::Full => unreachable!("handled above"),
                    HalfPel::Horizontal => {
                        interp_row::<true, false>(reference, ref_stride, rx, ry + y, w, orow)
                    }
                    HalfPel::Vertical => {
                        interp_row::<false, true>(reference, ref_stride, rx, ry + y, w, orow)
                    }
                    HalfPel::Diagonal => {
                        interp_row::<true, true>(reference, ref_stride, rx, ry + y, w, orow)
                    }
                }
            }
        }
    }

    pub(crate) fn average_pixels(a: &[u8], b: &[u8], out: &mut [u8]) {
        assert_eq!(a.len(), b.len());
        assert!(out.len() >= a.len());
        let n = a.len();
        let mut i = 0;
        // SAFETY: as in `sad_16x16`; every load/store covers a
        // just-bounds-checked 16-byte subslice.
        unsafe {
            while i + 16 <= n {
                let v = _mm_avg_epu8(
                    _mm_loadu_si128(a[i..i + 16].as_ptr().cast()),
                    _mm_loadu_si128(b[i..i + 16].as_ptr().cast()),
                );
                _mm_storeu_si128(out[i..i + 16].as_mut_ptr().cast(), v);
                i += 16;
            }
        }
        for i in i..n {
            out[i] = ((u16::from(a[i]) + u16::from(b[i]) + 1) >> 1) as u8;
        }
    }

    pub(crate) fn copy_block(
        src: &[u8],
        src_stride: usize,
        sx: usize,
        sy: usize,
        w: usize,
        h: usize,
        out: &mut [u8],
    ) {
        assert!(out.len() >= w * h);
        for y in 0..h {
            let row = &src[(sy + y) * src_stride + sx..][..w];
            let dst = &mut out[y * w..][..w];
            let mut x = 0;
            // SAFETY: as in `sad_16x16`; subslices are bounds-checked.
            unsafe {
                while x + 16 <= w {
                    let v = _mm_loadu_si128(row[x..x + 16].as_ptr().cast());
                    _mm_storeu_si128(dst[x..x + 16].as_mut_ptr().cast(), v);
                    x += 16;
                }
                if x + 8 <= w {
                    let v = _mm_loadl_epi64(row[x..x + 8].as_ptr().cast());
                    _mm_storel_epi64(dst[x..x + 8].as_mut_ptr().cast(), v);
                    x += 8;
                }
            }
            dst[x..].copy_from_slice(&row[x..]);
        }
    }
}

/// 256-bit AVX2 kernels. Reachable only through the `AVX2` table, which
/// `dispatch::Kernels::for_tier` hands out strictly after
/// `is_x86_feature_detected!("avx2")` succeeded.
mod avx2 {
    use super::*;

    /// Two consecutive 16-pixel rows in one YMM register.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load2x16(plane: &[u8], stride: usize, x: usize, y: usize) -> __m256i {
        let r0 = &plane[y * stride + x..][..16];
        let r1 = &plane[(y + 1) * stride + x..][..16];
        _mm256_inserti128_si256::<1>(
            _mm256_castsi128_si256(_mm_loadu_si128(r0.as_ptr().cast())),
            _mm_loadu_si128(r1.as_ptr().cast()),
        )
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hsum_sad_acc256(v: __m256i) -> u32 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        hsum_sad_acc(_mm_add_epi64(lo, hi))
    }

    #[target_feature(enable = "avx2")]
    unsafe fn sad_16x16_kernel(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
    ) -> u32 {
        let mut acc = _mm256_setzero_si256();
        for pair in 0..8 {
            let c = load2x16(cur, cur_stride, cx, cy + 2 * pair);
            let r = load2x16(reference, ref_stride, rx, ry + 2 * pair);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(c, r));
        }
        hsum_sad_acc256(acc)
    }

    pub(crate) fn sad_16x16(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
    ) -> u32 {
        // SAFETY: the AVX2 table is only selectable after feature
        // detection succeeded; loads are bounds-checked.
        unsafe { sad_16x16_kernel(cur, cur_stride, cx, cy, reference, ref_stride, rx, ry) }
    }

    /// Bytes a row-group row reads from the reference: lanes 0–15 over
    /// 16 pixels, `rx..rx + 31`, loaded as one 32-byte window.
    const GROUP_ROW_BYTES: usize = 32;

    /// One row of a row group: the 16 lanes' SADs against the current
    /// row `c` (broadcast to both halves) as u16. `window` is the
    /// reference row from the first candidate, `GROUP_ROW_BYTES` long.
    /// The low half scores lanes 0–7 from `window[0..16]` and
    /// `window[8..24]`, the high half lanes 8–15 from `window[8..24]`
    /// and `window[16..32]`; each `vmpsadbw` adds one 4-pixel column
    /// block (its `imm8` picks the 4-byte offset into the reference half
    /// and the current block, per half).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn row_group_row(window: &[u8], c: __m256i) -> __m256i {
        let w = &window[..GROUP_ROW_BYTES];
        let p = w.as_ptr();
        let a = _mm256_loadu2_m128i(p.add(8).cast(), p.cast());
        let b = _mm256_loadu2_m128i(p.add(16).cast(), p.add(8).cast());
        _mm256_add_epi16(
            _mm256_add_epi16(
                _mm256_mpsadbw_epu8::<0b000_000>(a, c),
                _mm256_mpsadbw_epu8::<0b101_101>(a, c),
            ),
            _mm256_add_epi16(
                _mm256_mpsadbw_epu8::<0b010_010>(b, c),
                _mm256_mpsadbw_epu8::<0b111_111>(b, c),
            ),
        )
    }

    #[target_feature(enable = "avx2")]
    unsafe fn row_group_kernel(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        group: RowGroup,
        sums: &mut RowSums,
    ) -> usize {
        let tested = group.test_bits();
        let cut = _mm_set1_epi16(row_group_cut(&group));
        let mut acc = _mm256_setzero_si256();
        for (row, out) in sums.iter_mut().enumerate() {
            let c = _mm256_broadcastsi128_si256(loadn::<16>(cur, cur_stride, cx, cy + row));
            let window = &reference[(ry + row) * ref_stride + rx..];
            acc = _mm256_add_epi16(acc, row_group_row(window, c));
            _mm256_storeu_si256(out.as_mut_ptr().cast(), acc);
            let (lo, hi) = (
                _mm256_castsi256_si128(acc),
                _mm256_extracti128_si256::<1>(acc),
            );
            if lanes_at_or_below(lo, hi, cut) & tested == 0 {
                return row + 1;
            }
        }
        16
    }

    /// Dead lanes read past the live window, up to `rx + 31` on every
    /// row. Where that would run past the end of `reference` (the last
    /// rows of a tightly sized plane), the live window is copied into a
    /// zero-filled scratch plane first, so no load leaves the buffer.
    pub(crate) fn sad_16x16_row_group(
        cur: &[u8],
        cur_stride: usize,
        cx: usize,
        cy: usize,
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        group: RowGroup,
        sums: &mut RowSums,
    ) -> usize {
        let last = (ry + 15) * ref_stride + rx;
        // SAFETY: the AVX2 table is only selectable after feature
        // detection succeeded; loads are bounds-checked.
        unsafe {
            if last + GROUP_ROW_BYTES <= reference.len() {
                return row_group_kernel(
                    cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, group, sums,
                );
            }
            let live = group.lanes + 15;
            let mut scratch = [0u8; 16 * GROUP_ROW_BYTES];
            for (row, dst) in scratch.chunks_exact_mut(GROUP_ROW_BYTES).enumerate() {
                let src = &reference[(ry + row) * ref_stride + rx..][..live];
                dst[..live].copy_from_slice(src);
            }
            row_group_kernel(
                cur,
                cur_stride,
                cx,
                cy,
                &scratch,
                GROUP_ROW_BYTES,
                0,
                0,
                group,
                sums,
            )
        }
    }

    /// One diagonal 16-pixel chunk in u16 lanes of a single YMM.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn diag_avg256(a: __m128i, b: __m128i, c: __m128i, d: __m128i) -> __m128i {
        let two = _mm256_set1_epi16(2);
        let sum = _mm256_add_epi16(
            _mm256_add_epi16(_mm256_cvtepu8_epi16(a), _mm256_cvtepu8_epi16(b)),
            _mm256_add_epi16(
                _mm256_add_epi16(_mm256_cvtepu8_epi16(c), _mm256_cvtepu8_epi16(d)),
                two,
            ),
        );
        let p = _mm256_srli_epi16::<2>(sum);
        _mm_packus_epi16(_mm256_castsi256_si128(p), _mm256_extracti128_si256::<1>(p))
    }

    #[target_feature(enable = "avx2")]
    unsafe fn interp_kernel(
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        phase: HalfPel,
        w: usize,
        h: usize,
        out: &mut [u8],
    ) {
        for y in 0..h {
            let orow = &mut out[y * w..][..w];
            let yy = ry + y;
            let (dx, dy) = match phase {
                HalfPel::Full => unreachable!("handled by copy_block"),
                HalfPel::Horizontal => (1, 0),
                HalfPel::Vertical => (0, 1),
                HalfPel::Diagonal => (1, 1),
            };
            let mut x = 0;
            if phase == HalfPel::Diagonal {
                while x + 16 <= w {
                    let p = diag_avg256(
                        loadn::<16>(reference, ref_stride, rx + x, yy),
                        loadn::<16>(reference, ref_stride, rx + x + 1, yy),
                        loadn::<16>(reference, ref_stride, rx + x, yy + 1),
                        loadn::<16>(reference, ref_stride, rx + x + 1, yy + 1),
                    );
                    _mm_storeu_si128(orow[x..x + 16].as_mut_ptr().cast(), p);
                    x += 16;
                }
            } else {
                while x + 32 <= w {
                    let a = _mm256_loadu_si256(
                        reference[yy * ref_stride + rx + x..][..32].as_ptr().cast(),
                    );
                    let b = _mm256_loadu_si256(
                        reference[(yy + dy) * ref_stride + rx + x + dx..][..32]
                            .as_ptr()
                            .cast(),
                    );
                    _mm256_storeu_si256(orow[x..x + 32].as_mut_ptr().cast(), _mm256_avg_epu8(a, b));
                    x += 32;
                }
                while x + 16 <= w {
                    let a = loadn::<16>(reference, ref_stride, rx + x, yy);
                    let b = loadn::<16>(reference, ref_stride, rx + x + dx, yy + dy);
                    _mm_storeu_si128(orow[x..x + 16].as_mut_ptr().cast(), _mm_avg_epu8(a, b));
                    x += 16;
                }
            }
            if x + 8 <= w {
                let p = match phase {
                    HalfPel::Full => unreachable!("handled by copy_block"),
                    HalfPel::Horizontal => {
                        pred_row::<8, true, false>(reference, ref_stride, rx + x, yy)
                    }
                    HalfPel::Vertical => {
                        pred_row::<8, false, true>(reference, ref_stride, rx + x, yy)
                    }
                    HalfPel::Diagonal => {
                        pred_row::<8, true, true>(reference, ref_stride, rx + x, yy)
                    }
                };
                _mm_storel_epi64(orow[x..x + 8].as_mut_ptr().cast(), p);
                x += 8;
            }
            let px = |px_x: usize, px_y: usize| u16::from(reference[px_y * ref_stride + px_x]);
            for (x, o) in orow.iter_mut().enumerate().skip(x) {
                let v = match phase {
                    HalfPel::Full => unreachable!("handled by copy_block"),
                    HalfPel::Horizontal => (px(rx + x, yy) + px(rx + x + 1, yy) + 1) >> 1,
                    HalfPel::Vertical => (px(rx + x, yy) + px(rx + x, yy + 1) + 1) >> 1,
                    HalfPel::Diagonal => {
                        (px(rx + x, yy)
                            + px(rx + x + 1, yy)
                            + px(rx + x, yy + 1)
                            + px(rx + x + 1, yy + 1)
                            + 2)
                            >> 2
                    }
                };
                *o = v as u8;
            }
        }
    }

    pub(crate) fn interpolate_half_pel(
        reference: &[u8],
        ref_stride: usize,
        rx: usize,
        ry: usize,
        phase: HalfPel,
        w: usize,
        h: usize,
        out: &mut [u8],
    ) {
        assert!(out.len() >= w * h);
        if phase == HalfPel::Full {
            copy_block(reference, ref_stride, rx, ry, w, h, out);
            return;
        }
        // SAFETY: as in `sad_16x16`; fractional-phase slack is part of
        // the kernel contract and enforced by the slices inside.
        unsafe { interp_kernel(reference, ref_stride, rx, ry, phase, w, h, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avg_kernel(a: &[u8], b: &[u8], out: &mut [u8]) {
        let n = a.len();
        let mut i = 0;
        while i + 32 <= n {
            let v = _mm256_avg_epu8(
                _mm256_loadu_si256(a[i..i + 32].as_ptr().cast()),
                _mm256_loadu_si256(b[i..i + 32].as_ptr().cast()),
            );
            _mm256_storeu_si256(out[i..i + 32].as_mut_ptr().cast(), v);
            i += 32;
        }
        if i + 16 <= n {
            let v = _mm_avg_epu8(
                _mm_loadu_si128(a[i..i + 16].as_ptr().cast()),
                _mm_loadu_si128(b[i..i + 16].as_ptr().cast()),
            );
            _mm_storeu_si128(out[i..i + 16].as_mut_ptr().cast(), v);
            i += 16;
        }
        for i in i..n {
            out[i] = ((u16::from(a[i]) + u16::from(b[i]) + 1) >> 1) as u8;
        }
    }

    pub(crate) fn average_pixels(a: &[u8], b: &[u8], out: &mut [u8]) {
        assert_eq!(a.len(), b.len());
        assert!(out.len() >= a.len());
        // SAFETY: as in `sad_16x16`.
        unsafe { avg_kernel(a, b, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn copy_block_kernel(
        src: &[u8],
        src_stride: usize,
        sx: usize,
        sy: usize,
        w: usize,
        h: usize,
        out: &mut [u8],
    ) {
        for y in 0..h {
            let row = &src[(sy + y) * src_stride + sx..][..w];
            let dst = &mut out[y * w..][..w];
            let mut x = 0;
            while x + 32 <= w {
                let v = _mm256_loadu_si256(row[x..x + 32].as_ptr().cast());
                _mm256_storeu_si256(dst[x..x + 32].as_mut_ptr().cast(), v);
                x += 32;
            }
            if x + 16 <= w {
                let v = _mm_loadu_si128(row[x..x + 16].as_ptr().cast());
                _mm_storeu_si128(dst[x..x + 16].as_mut_ptr().cast(), v);
                x += 16;
            }
            if x + 8 <= w {
                let v = _mm_loadl_epi64(row[x..x + 8].as_ptr().cast());
                _mm_storel_epi64(dst[x..x + 8].as_mut_ptr().cast(), v);
                x += 8;
            }
            dst[x..].copy_from_slice(&row[x..]);
        }
    }

    pub(crate) fn copy_block(
        src: &[u8],
        src_stride: usize,
        sx: usize,
        sy: usize,
        w: usize,
        h: usize,
        out: &mut [u8],
    ) {
        assert!(out.len() >= w * h);
        // SAFETY: as in `sad_16x16`.
        unsafe { copy_block_kernel(src, src_stride, sx, sy, w, h, out) }
    }

    /// `floor(n·m / 2²⁴)` per u32 lane (`n < 2¹⁶`, `m ≤ 2²³`): the same
    /// Granlund–Montgomery magic multiply as `quant::StepDiv`, with the
    /// 64-bit products formed by `vpmuludq` over even/odd lane pairs.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn magic_div(n: __m256i, m: __m256i) -> __m256i {
        let even = _mm256_srli_epi64::<24>(_mm256_mul_epu32(n, m));
        let odd = _mm256_srli_epi64::<24>(_mm256_mul_epu32(_mm256_srli_epi64::<32>(n), m));
        _mm256_or_si256(even, _mm256_slli_epi64::<32>(odd))
    }

    /// `(v ^ s) - s` where `s` is `v`'s sign broadcast: applies
    /// `signum(v)` to a non-negative magnitude exactly like the scalar
    /// `level * c.signum()` (zero stays zero because the level for a
    /// zero coefficient is already zero).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn apply_sign(mag: __m256i, v: __m256i) -> __m256i {
        let s = _mm256_srai_epi32::<31>(v);
        _mm256_sub_epi32(_mm256_xor_si256(mag, s), s)
    }

    /// Widens 16 packed i16 lanes to two 8×i32 vectors, maps each
    /// through the `$v => $body` lane expression, and re-packs
    /// (`vpackssdw` + lane-fix permute). The pack cannot saturate:
    /// every quantizer output lies in `[-2048, 2047]`. A macro rather
    /// than a closure so the body stays inside the caller's
    /// `target_feature` + `unsafe` context.
    macro_rules! quant_loop {
        ($src:expr, $out:expr, $v:ident => $body:expr) => {{
            let mut i = 0;
            while i < 64 {
                let v16 = _mm256_loadu_si256($src.data.as_ptr().add(i).cast());
                let ql = {
                    let $v = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v16));
                    $body
                };
                let qh = {
                    let $v = _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(v16));
                    $body
                };
                let packed = _mm256_packs_epi32(ql, qh);
                let fixed = _mm256_permute4x64_epi64::<0b11011000>(packed);
                _mm256_storeu_si256($out.data.as_mut_ptr().add(i).cast(), fixed);
                i += 16;
            }
        }};
    }

    #[target_feature(enable = "avx2")]
    unsafe fn quantize_intra_kernel(coefs: &CoefBlock, qp: u8) -> CoefBlock {
        let q = check_qp(qp);
        let m = _mm256_set1_epi32(StepDiv::new(q).m as i32);
        let qv = _mm256_set1_epi32(i32::from(q));
        let cap = _mm256_set1_epi32(2047);
        let mut out = CoefBlock::default();
        quant_loop!(coefs, out, v => {
            let n = _mm256_add_epi32(_mm256_abs_epi32(v), qv);
            apply_sign(_mm256_min_epi32(magic_div(n, m), cap), v)
        });
        // DC uses the fixed scaler 8, exactly the scalar expression.
        out.data[0] = (coefs.data[0] + if coefs.data[0] >= 0 { 4 } else { -4 }) / 8;
        out
    }

    pub(crate) fn quantize_intra(coefs: &CoefBlock, qp: u8) -> CoefBlock {
        // SAFETY: as in `sad_16x16`.
        unsafe { quantize_intra_kernel(coefs, qp) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn quantize_inter_kernel(coefs: &CoefBlock, qp: u8) -> CoefBlock {
        let q = check_qp(qp);
        let m = _mm256_set1_epi32(StepDiv::new(q).m as i32);
        let half_q = _mm256_set1_epi32(i32::from(q) / 2);
        let cap = _mm256_set1_epi32(2047);
        let zero = _mm256_setzero_si256();
        let mut out = CoefBlock::default();
        quant_loop!(coefs, out, v => {
            // Dead zone: numerators ≤ 0 clamp to 0 before the divide
            // (`magic_div(0) == 0`), matching the scalar `n <= 0` arm.
            let n = _mm256_sub_epi32(_mm256_abs_epi32(v), half_q);
            let nn = _mm256_max_epi32(n, zero);
            apply_sign(_mm256_min_epi32(magic_div(nn, m), cap), v)
        });
        out
    }

    pub(crate) fn quantize_inter(coefs: &CoefBlock, qp: u8) -> CoefBlock {
        // SAFETY: as in `sad_16x16`.
        unsafe { quantize_inter_kernel(coefs, qp) }
    }

    /// The shared AC reconstruction `signum(l)·(q·(2|l|+1) − [q even])`,
    /// clamped to `[-2048, 2047]`, with zero levels forced to zero.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dequant_lanes(v: __m256i, qv: __m256i, adj: __m256i) -> __m256i {
        let zero = _mm256_setzero_si256();
        let one = _mm256_set1_epi32(1);
        let zmask = _mm256_cmpeq_epi32(v, zero);
        let al = _mm256_abs_epi32(v);
        let t = _mm256_sub_epi32(
            _mm256_mullo_epi32(qv, _mm256_add_epi32(_mm256_add_epi32(al, al), one)),
            adj,
        );
        let clamped = _mm256_max_epi32(
            _mm256_min_epi32(apply_sign(t, v), _mm256_set1_epi32(2047)),
            _mm256_set1_epi32(-2048),
        );
        _mm256_andnot_si256(zmask, clamped)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn dequantize_kernel<const INTRA: bool>(levels: &CoefBlock, qp: u8) -> CoefBlock {
        let q = check_qp(qp);
        let qv = _mm256_set1_epi32(i32::from(q));
        let adj = _mm256_set1_epi32(i32::from(q % 2 == 0));
        let mut out = CoefBlock::default();
        quant_loop!(levels, out, v => dequant_lanes(v, qv, adj));
        if INTRA {
            out.data[0] = levels.data[0].saturating_mul(8);
        }
        out
    }

    pub(crate) fn dequantize_intra(levels: &CoefBlock, qp: u8) -> CoefBlock {
        // SAFETY: as in `sad_16x16`.
        unsafe { dequantize_kernel::<true>(levels, qp) }
    }

    pub(crate) fn dequantize_inter(levels: &CoefBlock, qp: u8) -> CoefBlock {
        // SAFETY: as in `sad_16x16`.
        unsafe { dequantize_kernel::<false>(levels, qp) }
    }
}
