//! Sum-of-absolute-differences block-matching criteria.
//!
//! SAD is the "resemblance" criterion the paper describes for MPEG-4
//! motion estimation: the candidate block minimizing
//! `Σ |cur(i,j) − ref(i,j)|` wins. The cutoff variant implements the
//! early-exit used by real encoders (MoMuSys included), abandoning a
//! candidate as soon as it exceeds the best SAD so far.

/// Compute ops per full 16×16 SAD (256 subtract/abs/accumulate triples).
pub const SAD16_OPS: u64 = 768;
/// Compute ops per full 8×8 SAD.
pub const SAD8_OPS: u64 = 192;

/// One row's absolute-difference sum over fixed-size arrays: the array
/// types let the compiler drop every per-element bounds check from the
/// accumulation (the single length check happens in the `try_into`).
#[inline]
fn sad_row<const N: usize>(c: &[u8; N], r: &[u8; N]) -> u32 {
    let mut acc = 0u32;
    for i in 0..N {
        acc += u32::from(c[i].abs_diff(r[i]));
    }
    acc
}

/// The `N`-pixel row of `plane` at `(x, y)` as a fixed-size array ref.
#[inline]
fn row_n<const N: usize>(plane: &[u8], stride: usize, x: usize, y: usize) -> &[u8; N] {
    plane[y * stride + x..][..N]
        .try_into()
        .expect("row slice is exactly N long")
}

/// SAD between a 16×16 block in `cur` at `(cx, cy)` and one in `reference`
/// at `(rx, ry)`. `stride` applies to both planes.
///
/// # Panics
///
/// Panics (via slice indexing) if either block exceeds plane bounds.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn sad_16x16(
    cur: &[u8],
    cur_stride: usize,
    cx: usize,
    cy: usize,
    reference: &[u8],
    ref_stride: usize,
    rx: usize,
    ry: usize,
) -> u32 {
    let mut acc = 0u32;
    for row in 0..16 {
        acc += sad_row(
            row_n::<16>(cur, cur_stride, cx, cy + row),
            row_n::<16>(reference, ref_stride, rx, ry + row),
        );
    }
    acc
}

/// The cutoff SAD over an `N`×`N` block: accumulates row sums and
/// abandons the candidate once the partial sum exceeds `cutoff` after
/// any row, returning the partial sum and how many rows were visited.
#[allow(clippy::too_many_arguments)]
#[inline]
fn sad_with_cutoff<const N: usize>(
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
        acc += sad_row(
            row_n::<N>(cur, cur_stride, cx, cy + row),
            row_n::<N>(reference, ref_stride, rx, ry + row),
        );
        if acc > cutoff {
            return (acc, row + 1);
        }
    }
    (acc, N)
}

/// Like [`sad_16x16`] but abandons the candidate once the partial sum
/// exceeds `cutoff` after any 16-pixel row, returning the partial sum
/// (which is `> cutoff`). Also returns how many rows were actually
/// visited, so the caller can charge memory accesses for exactly the
/// data touched.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn sad_16x16_with_cutoff(
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
    sad_with_cutoff::<16>(
        cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
    )
}

/// The 8×8 cutoff SAD (advanced-prediction block refinement); same
/// contract as [`sad_16x16_with_cutoff`].
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn sad_8x8_with_cutoff(
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
    sad_with_cutoff::<8>(
        cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
    )
}

/// Candidates one row group scores: 16 horizontally adjacent reference
/// blocks, one pixel apart.
pub const ROW_GROUP_LANES: usize = 16;

/// Running row sums of a row group: `sums[row][lane]` is lane's SAD over
/// rows `0..=row`. A 16×16 SAD is at most 16·16·255 = 65,280, so u16
/// never overflows.
pub type RowSums = [[u16; ROW_GROUP_LANES]; 16];

/// One run of a row-group SAD: which lanes are live and the cutoff the
/// group test applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowGroup {
    /// Live lanes: the candidates at `rx, rx + 1, …, rx + lanes − 1`
    /// (`1..=16`).
    pub lanes: usize,
    /// A live lane left out of the group (a candidate already scored),
    /// if any; its sums are unspecified. At least one lane must remain.
    pub masked: Option<usize>,
    /// The cutoff in force at the run's first candidate.
    pub cutoff: u32,
}

impl RowGroup {
    /// Two bits per tested lane (live and not masked), in the layout of
    /// a byte mask over 16 u16 lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=16` or no lane is tested.
    #[inline]
    pub(crate) fn test_bits(&self) -> u32 {
        assert!(
            (1..=ROW_GROUP_LANES).contains(&self.lanes),
            "row group of {} lanes",
            self.lanes
        );
        let live = u32::MAX >> (2 * (ROW_GROUP_LANES - self.lanes));
        let tested = match self.masked {
            Some(lane) => live & !(0b11 << (2 * lane)),
            None => live,
        };
        assert_ne!(tested, 0, "row group tests no lane");
        tested
    }
}

/// The 16×16 row-group SAD: scores the current block at `(cx, cy)`
/// against the `group.lanes` reference blocks at `(rx + lane, ry)`,
/// storing each tested lane's running sum in `sums[row][lane]` for every
/// row up to and including its first row above `group.cutoff` (all 16
/// when it never exceeds it). Returns the rows computed: the first row
/// after which every tested lane is above the cutoff, or 16.
///
/// Replaying a lane's sums against any cutoff no larger than
/// `group.cutoff` ([`row_group_lane`]) gives exactly the `(sum, rows)`
/// pair [`sad_16x16_with_cutoff`] returns for that candidate, because
/// its first row above that cutoff comes no later. Every other entry
/// is unspecified: the vector tiers score all 16 lanes row by row,
/// while this reference body is one cutoff SAD per tested lane.
///
/// # Panics
///
/// Panics if `group.lanes` is outside `1..=16`, no lane is tested, or
/// (via slice indexing) a live block exceeds plane bounds.
#[allow(clippy::too_many_arguments)]
pub fn sad_16x16_row_group(
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
    let mut rows = 0;
    for lane in (0..group.lanes).filter(|&l| tested >> (2 * l) & 1 == 1) {
        let mut acc = 0u32;
        for (row, out) in sums.iter_mut().enumerate() {
            acc += sad_row(
                row_n::<16>(cur, cur_stride, cx, cy + row),
                row_n::<16>(reference, ref_stride, rx + lane, ry + row),
            );
            out[lane] = acc as u16;
            if acc > group.cutoff || row == 15 {
                rows = rows.max(row + 1);
                break;
            }
        }
    }
    rows
}

/// Replays one lane of a row group against `cutoff`: the `(sum, rows)`
/// pair [`sad_16x16_with_cutoff`] returns for that candidate, read from
/// the `rows` rows the group computed. Exact for any `cutoff` no larger
/// than the group's (see [`sad_16x16_row_group`]).
///
/// # Panics
///
/// Panics if the lane stays at or below `cutoff` through fewer than 16
/// computed rows: the group stopped before this lane's cutoff row, so
/// `cutoff` exceeded the group's.
#[inline]
pub fn row_group_lane(sums: &RowSums, rows: usize, lane: usize, cutoff: u32) -> (u32, usize) {
    for (row, s) in sums[..rows].iter().enumerate() {
        let sum = u32::from(s[lane]);
        if sum > cutoff {
            return (sum, row + 1);
        }
    }
    assert_eq!(rows, 16, "lane {lane} replayed past its group's rows");
    (u32::from(sums[15][lane]), 16)
}

/// One row of SAD against a half-pel interpolated reference. The
/// prediction arithmetic is the bilinear MPEG-4 rounding used by motion
/// compensation: `(a+b+1)>>1` for one fractional axis, `(a+b+c+d+2)>>2`
/// for both. `r0` is the reference row at the full-pel line, `r1` the
/// row below (read only when `FRAC_Y`); each holds `N + FRAC_X` valid
/// pixels. The flags are const generics so each of the four variants
/// compiles to a branch-free pixel loop.
#[inline]
fn sad_half_pel_row<const N: usize, const FRAC_X: bool, const FRAC_Y: bool>(
    c: &[u8; N],
    r0: &[u8],
    r1: &[u8],
) -> u32 {
    let mut acc = 0u32;
    for i in 0..N {
        let pred = match (FRAC_X, FRAC_Y) {
            (false, false) => u16::from(r0[i]),
            (true, false) => (u16::from(r0[i]) + u16::from(r0[i + 1]) + 1) >> 1,
            (false, true) => (u16::from(r0[i]) + u16::from(r1[i]) + 1) >> 1,
            (true, true) => {
                (u16::from(r0[i])
                    + u16::from(r0[i + 1])
                    + u16::from(r1[i])
                    + u16::from(r1[i + 1])
                    + 2)
                    >> 2
            }
        };
        acc += i32::from(c[i]).abs_diff(i32::from(pred));
    }
    acc
}

/// The half-pel cutoff SAD body for one `(FRAC_X, FRAC_Y)` variant.
#[allow(clippy::too_many_arguments)]
#[inline]
fn sad_half_pel_body<const N: usize, const FRAC_X: bool, const FRAC_Y: bool>(
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
    let cols = N + usize::from(FRAC_X);
    let mut acc = 0u32;
    for row in 0..N {
        let c = row_n::<N>(cur, cur_stride, cx, cy + row);
        let r0 = &reference[(ry + row) * ref_stride + rx..][..cols];
        let r1 = if FRAC_Y {
            &reference[(ry + row + 1) * ref_stride + rx..][..cols]
        } else {
            r0
        };
        acc += sad_half_pel_row::<N, FRAC_X, FRAC_Y>(c, r0, r1);
        if acc > cutoff {
            return (acc, row + 1);
        }
    }
    (acc, N)
}

/// SAD of the `N`×`N` current block at `(cx, cy)` against the half-pel
/// interpolated reference whose full-pel anchor is `(rx, ry)`, with
/// fractional displacement `(frac_x, frac_y)` and early termination at
/// `cutoff`. Returns the partial sum and the rows visited. The
/// reference must extend one extra column when `frac_x` and one extra
/// row when `frac_y`.
///
/// # Panics
///
/// Panics (via slice indexing) if either block exceeds plane bounds.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn sad_half_pel_with_cutoff<const N: usize>(
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
    match (frac_x, frac_y) {
        (false, false) => sad_half_pel_body::<N, false, false>(
            cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
        ),
        (true, false) => sad_half_pel_body::<N, true, false>(
            cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
        ),
        (false, true) => sad_half_pel_body::<N, false, true>(
            cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
        ),
        (true, true) => sad_half_pel_body::<N, true, true>(
            cur, cur_stride, cx, cy, reference, ref_stride, rx, ry, cutoff,
        ),
    }
}

/// SAD between two 8×8 blocks, used for chroma and half-pel refinement of
/// 8×8 partitions.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn sad_8x8(
    cur: &[u8],
    cur_stride: usize,
    cx: usize,
    cy: usize,
    reference: &[u8],
    ref_stride: usize,
    rx: usize,
    ry: usize,
) -> u32 {
    let mut acc = 0u32;
    for row in 0..8 {
        acc += sad_row(
            row_n::<8>(cur, cur_stride, cx, cy + row),
            row_n::<8>(reference, ref_stride, rx, ry + row),
        );
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(w: usize, h: usize, f: impl Fn(usize, usize) -> u8) -> Vec<u8> {
        let mut p = vec![0u8; w * h];
        for y in 0..h {
            for x in 0..w {
                p[y * w + x] = f(x, y);
            }
        }
        p
    }

    #[test]
    fn identical_blocks_have_zero_sad() {
        let p = plane(32, 32, |x, y| (x * 7 + y * 3) as u8);
        assert_eq!(sad_16x16(&p, 32, 4, 4, &p, 32, 4, 4), 0);
        assert_eq!(sad_8x8(&p, 32, 10, 10, &p, 32, 10, 10), 0);
    }

    #[test]
    fn sad_detects_known_shift() {
        // A diagonal gradient shifted by (1,0) differs by exactly the
        // gradient slope at every pixel.
        let p = plane(64, 32, |x, _| (x * 4 % 256) as u8);
        let sad_aligned = sad_16x16(&p, 64, 16, 8, &p, 64, 16, 8);
        let sad_shifted = sad_16x16(&p, 64, 16, 8, &p, 64, 17, 8);
        assert_eq!(sad_aligned, 0);
        assert_eq!(sad_shifted, 256 * 4);
    }

    #[test]
    fn cutoff_terminates_early_and_overestimates() {
        let a = plane(32, 32, |_, _| 0);
        let b = plane(32, 32, |_, _| 255);
        let full = sad_16x16(&a, 32, 0, 0, &b, 32, 0, 0);
        let (partial, rows) = sad_16x16_with_cutoff(&a, 32, 0, 0, &b, 32, 0, 0, 100);
        assert!(partial > 100);
        assert_eq!(rows, 1);
        assert!(partial <= full);
    }

    #[test]
    fn cutoff_matches_full_when_not_triggered() {
        let a = plane(32, 32, |x, y| (x + y) as u8);
        let b = plane(32, 32, |x, y| (x + y + 1) as u8);
        let full = sad_16x16(&a, 32, 2, 2, &b, 32, 2, 2);
        let (v, rows) = sad_16x16_with_cutoff(&a, 32, 2, 2, &b, 32, 2, 2, u32::MAX);
        assert_eq!(v, full);
        assert_eq!(rows, 16);
    }

    #[test]
    fn sad_8x8_cutoff_matches_full_and_terminates() {
        let a = plane(32, 32, |x, y| (x * 5 + y * 9) as u8);
        let b = plane(32, 32, |x, y| (x * 3 + y * 7) as u8);
        let full = sad_8x8(&a, 32, 4, 4, &b, 32, 6, 2);
        let (v, rows) = sad_8x8_with_cutoff(&a, 32, 4, 4, &b, 32, 6, 2, u32::MAX);
        assert_eq!((v, rows), (full, 8));
        let (partial, early_rows) = sad_8x8_with_cutoff(&a, 32, 4, 4, &b, 32, 6, 2, 0);
        assert!(partial > 0 && early_rows < 8);
    }

    /// The half-pel kernel must agree with a direct transcription of the
    /// MPEG-4 bilinear prediction at every fractional displacement.
    #[test]
    fn half_pel_sad_matches_reference_arithmetic() {
        let cur = plane(40, 40, |x, y| (x * 13 + y * 29 + x * y / 5) as u8);
        let rf = plane(40, 40, |x, y| (x * 7 + y * 11) as u8);
        for (fx, fy) in [(false, false), (true, false), (false, true), (true, true)] {
            let (got, rows) =
                sad_half_pel_with_cutoff::<16>(&cur, 40, 3, 2, &rf, 40, 5, 4, fx, fy, u32::MAX);
            let mut want = 0u32;
            for row in 0..16 {
                for i in 0..16 {
                    let s = |dx: usize, dy: usize| u16::from(rf[(4 + row + dy) * 40 + 5 + i + dx]);
                    let pred = match (fx, fy) {
                        (false, false) => s(0, 0),
                        (true, false) => (s(0, 0) + s(1, 0) + 1) >> 1,
                        (false, true) => (s(0, 0) + s(0, 1) + 1) >> 1,
                        (true, true) => (s(0, 0) + s(1, 0) + s(0, 1) + s(1, 1) + 2) >> 2,
                    };
                    let c = cur[(2 + row) * 40 + 3 + i];
                    want += u32::from(c).abs_diff(u32::from(pred));
                }
            }
            assert_eq!((got, rows), (want, 16), "frac ({fx},{fy})");
        }
    }

    #[test]
    fn half_pel_sad_cutoff_counts_rows() {
        let a = plane(24, 24, |_, _| 0);
        let b = plane(24, 24, |_, _| 200);
        let (v, rows) = sad_half_pel_with_cutoff::<8>(&a, 24, 0, 0, &b, 24, 0, 0, true, true, 100);
        assert!(v > 100);
        assert_eq!(rows, 1);
    }

    /// The reference row group against per-lane cutoff SADs: every
    /// lane replayed at any cutoff up to the group's matches
    /// `sad_16x16_with_cutoff`, and the group stops exactly when every
    /// tested lane is above its cutoff. Small planes keep it cheap
    /// under Miri.
    #[test]
    fn row_group_replays_per_lane_cutoff_sad() {
        let cur = plane(20, 18, |x, y| (x * 37 + y * 11 + x * y) as u8);
        let rf = plane(40, 18, |x, y| (x * 13 + y * 29 + (x ^ y) * 5) as u8);
        let lane_sad = |lane: usize, cutoff: u32| {
            sad_16x16_with_cutoff(&cur, 20, 2, 1, &rf, 40, 3 + lane, 2, cutoff)
        };
        let mut sorted: Vec<u32> = (0..ROW_GROUP_LANES)
            .map(|l| lane_sad(l, u32::MAX).0)
            .collect();
        sorted.sort_unstable();
        let cutoffs = [0, sorted[0], sorted[5], sorted[15], 65_280, u32::MAX];
        for lanes in [1, 2, 7, 16] {
            let masks = [None, Some(0), Some(lanes - 1)];
            for masked in masks.into_iter().filter(|&m| lanes > 1 || m.is_none()) {
                for cutoff in cutoffs {
                    let group = RowGroup {
                        lanes,
                        masked,
                        cutoff,
                    };
                    let mut sums = [[0u16; ROW_GROUP_LANES]; 16];
                    let rows = sad_16x16_row_group(&cur, 20, 2, 1, &rf, 40, 3, 2, group, &mut sums);
                    let tested = (0..lanes).filter(|&l| masked != Some(l));
                    let want_rows = tested.map(|l| lane_sad(l, cutoff).1).max();
                    assert_eq!(Some(rows), want_rows, "{group:?}");
                    for lane in (0..lanes).filter(|&l| masked != Some(l)) {
                        for c in [cutoff, cutoff / 2, 0] {
                            assert_eq!(
                                row_group_lane(&sums, rows, lane, c),
                                lane_sad(lane, c),
                                "{group:?} lane {lane} cutoff {c}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sad_is_symmetric() {
        let a = plane(32, 32, |x, y| (x * 13 + y) as u8);
        let b = plane(32, 32, |x, y| (y * 11 + x) as u8);
        assert_eq!(
            sad_16x16(&a, 32, 8, 8, &b, 32, 8, 8),
            sad_16x16(&b, 32, 8, 8, &a, 32, 8, 8)
        );
    }

    #[test]
    fn max_sad_bounded() {
        let a = plane(16, 16, |_, _| 0);
        let b = plane(16, 16, |_, _| 255);
        assert_eq!(sad_16x16(&a, 16, 0, 0, &b, 16, 0, 0), 256 * 255);
    }
}
