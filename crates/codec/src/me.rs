//! Motion estimation.
//!
//! The paper singles this stage out: "Motion estimation detects movement
//! of objects along different video frames, searching for an image block
//! best matching a reference block… MPEG-4 performs this search
//! sequentially over restricted windows inside the image, with an offset
//! between searches of just one pixel. The overlap among streams for
//! searching an image subset yields high locality." The default here is
//! that exhaustive full search with SAD early termination; three-step
//! and diamond searches exist for the ablation benches.
//!
//! The host exploits that one-pixel offset: the full search scores each
//! row of candidates in runs of up to 16 with the dsp row-group SAD,
//! then walks the run candidate by candidate, reading each one's sum and
//! visited rows at the cutoff in force when the walk reaches it. That is
//! exactly what one early-terminating SAD per candidate gives, so the
//! simulated machine is charged the same per-candidate, row-by-row
//! search. The other searches and the half-pel refinement score one
//! candidate at a time.

use crate::config::SearchStrategy;
use crate::plane::{TracedPlane, PAD};
use crate::types::MotionVector;
use m4ps_dsp::{row_group_lane, RowGroup, RowSums, ROW_GROUP_LANES};
use m4ps_memsim::{MemModel, SearchCandidate};
use m4ps_obs::{span, MetricId, Phase};

/// Per-pixel-row SAD compute cost (16 abs-diff-accumulate triples).
const SAD_ROW_OPS: u64 = 48;

/// The reference stream of a motion search, recorded for one
/// [`MemModel::access_candidates`] batch: one [`SearchCandidate`] per
/// candidate, in search order, and the summed SAD compute ops. Kept in
/// the slice scratch, so steady-state searches allocate nothing.
///
/// Under a model that wants no batches ([`MemModel::wants_batches`],
/// such as `NullModel`, which discards every charge) nothing is
/// recorded.
#[derive(Debug, Default)]
pub(crate) struct SearchCharges {
    batch: Vec<SearchCandidate>,
    ops: u64,
}

impl SearchCharges {
    /// Charges one candidate: the first `rows` rows of the `size`-wide
    /// current block at `(bx, by)`, each followed by the reference row
    /// it read, `ref_width` pixels from `(rx, ry)` downward (one row
    /// further down with `lead_row`, which first reads row `ry` itself),
    /// and `row_ops` compute instructions per row.
    #[allow(clippy::too_many_arguments)]
    fn candidate<M: MemModel>(
        &mut self,
        mem: &mut M,
        cur: &TracedPlane,
        reference: &TracedPlane,
        (bx, by, size): (isize, isize, usize),
        (rx, ry, ref_width): (isize, isize, usize),
        rows: usize,
        lead_row: bool,
        row_ops: u64,
    ) {
        if rows == 0 {
            return;
        }
        assert_eq!(cur.stride(), reference.stride(), "planes differ in stride");
        let candidate = SearchCandidate {
            cur: cur.rows_addr(bx, by, size, rows),
            reference: reference.rows_addr(rx, ry, ref_width, rows + usize::from(lead_row)),
            stride: cur.stride() as u64,
            cur_width: size as u32,
            ref_width: ref_width as u32,
            rows: rows as u32,
            lead_row,
        };
        if mem.wants_batches() {
            self.batch.push(candidate);
            self.ops += row_ops * rows as u64;
        }
    }

    /// The bounds checks [`SearchCharges::candidate`] makes, once for a
    /// whole full-search run under a model that wants no batches: the
    /// current block and the first and last of `lanes` adjacent 16×16
    /// reference blocks from `(rx, ry)`, all 16 rows. Every candidate
    /// between lies inside the same rows.
    fn check_run(
        cur: &TracedPlane,
        reference: &TracedPlane,
        (bx, by): (isize, isize),
        (rx, ry): (isize, isize),
        lanes: usize,
    ) {
        assert_eq!(cur.stride(), reference.stride(), "planes differ in stride");
        cur.rows_addr(bx, by, 16, 16);
        reference.rows_addr(rx, ry, 16, 16);
        reference.rows_addr(rx + lanes as isize - 1, ry, 16, 16);
    }

    /// Charges everything recorded so far. Called before every profiler
    /// span boundary, so each phase is charged exactly what the per-span
    /// expansion of its candidates charges it.
    fn flush<M: MemModel>(&mut self, mem: &mut M) {
        if !self.batch.is_empty() {
            mem.access_candidates(&self.batch);
            self.batch.clear();
        }
        if self.ops > 0 {
            mem.add_ops(self.ops);
            self.ops = 0;
        }
    }
}

/// Result of a block search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Winning motion vector in half-pel units.
    pub mv: MotionVector,
    /// SAD of the winning candidate.
    pub sad: u32,
    /// Number of candidates evaluated (including half-pel refinement).
    pub candidates: u32,
}

/// A configured motion-search engine.
#[derive(Debug, Clone, Copy)]
pub struct MotionSearch {
    strategy: SearchStrategy,
    range: i16,
    half_pel: bool,
}

impl MotionSearch {
    /// Creates a search engine.
    ///
    /// # Panics
    ///
    /// Panics if `range` is outside `1..=15` (must stay within the
    /// [`crate::PAD`]-pixel reference border).
    pub fn new(strategy: SearchStrategy, range: i16, half_pel: bool) -> Self {
        assert!((1..=15).contains(&range), "range {range} out of 1..=15");
        MotionSearch {
            strategy,
            range,
            half_pel,
        }
    }

    /// The integer-pel search range.
    pub fn range(&self) -> i16 {
        self.range
    }

    /// SAD between the `size`×`size` current block at `(bx, by)` and the
    /// reference block displaced by integer `(dx, dy)`, with early
    /// termination once the sum exceeds `cutoff`. Charges traced reads
    /// for exactly the rows visited.
    ///
    /// Computes first on the raw surfaces through the fixed-size dsp
    /// kernels, then replays the per-row reference stream (current row,
    /// reference row, row ops) into `charges` for the rows the cutoff
    /// let the kernel visit — the same interleaved charges the staged
    /// row loop issued.
    #[allow(clippy::too_many_arguments)]
    fn sad_candidate_sized<M: MemModel>(
        mem: &mut M,
        charges: &mut SearchCharges,
        cur: &TracedPlane,
        reference: &TracedPlane,
        bx: isize,
        by: isize,
        dx: isize,
        dy: isize,
        cutoff: u32,
        size: usize,
    ) -> u32 {
        let (cdata, cstride) = cur.raw_surface();
        let (rdata, rstride) = reference.raw_surface();
        let p = PAD as isize;
        let (cx, cy) = ((bx + p) as usize, (by + p) as usize);
        let (rx, ry) = ((bx + dx + p) as usize, (by + dy + p) as usize);
        // Every tier's cutoff kernel checks the cutoff after each row,
        // so `rows` — and therefore the charge replay below — is
        // identical whichever tier is dispatched.
        let k = m4ps_dsp::kernels();
        let (acc, rows) = match size {
            16 => (k.sad16_cutoff)(cdata, cstride, cx, cy, rdata, rstride, rx, ry, cutoff),
            8 => (k.sad8_cutoff)(cdata, cstride, cx, cy, rdata, rstride, rx, ry, cutoff),
            _ => unreachable!("unsupported block size {size}"),
        };
        charges.candidate(
            mem,
            cur,
            reference,
            (bx, by, size),
            (bx + dx, by + dy, size),
            rows,
            false,
            SAD_ROW_OPS * size as u64 / 16,
        );
        acc
    }

    /// 16×16 candidate SAD (the macroblock search criterion).
    #[allow(clippy::too_many_arguments)]
    fn sad_candidate<M: MemModel>(
        mem: &mut M,
        charges: &mut SearchCharges,
        cur: &TracedPlane,
        reference: &TracedPlane,
        bx: isize,
        by: isize,
        dx: isize,
        dy: isize,
        cutoff: u32,
    ) -> u32 {
        Self::sad_candidate_sized(mem, charges, cur, reference, bx, by, dx, dy, cutoff, 16)
    }

    /// SAD against the half-pel interpolated reference at `(dx, dy)` in
    /// half-pel units, for a `size`×`size` block.
    #[allow(clippy::too_many_arguments)]
    fn sad_half_pel_sized<M: MemModel>(
        mem: &mut M,
        charges: &mut SearchCharges,
        cur: &TracedPlane,
        reference: &TracedPlane,
        bx: isize,
        by: isize,
        mv: MotionVector,
        cutoff: u32,
        size: usize,
    ) -> u32 {
        let (fx, fy) = mv.full_pel();
        let frac_x = mv.x & 1 != 0;
        let frac_y = mv.y & 1 != 0;
        let cols = size + usize::from(frac_x);
        let sx = bx + fx as isize;
        let sy = by + fy as isize;
        let (cdata, cstride) = cur.raw_surface();
        let (rdata, rstride) = reference.raw_surface();
        let p = PAD as isize;
        let (cx, cy) = ((bx + p) as usize, (by + p) as usize);
        let (rx, ry) = ((sx + p) as usize, (sy + p) as usize);
        let k = m4ps_dsp::kernels();
        let (acc, rows) = match size {
            16 => (k.sad16_half_pel)(
                cdata, cstride, cx, cy, rdata, rstride, rx, ry, frac_x, frac_y, cutoff,
            ),
            8 => (k.sad8_half_pel)(
                cdata, cstride, cx, cy, rdata, rstride, rx, ry, frac_x, frac_y, cutoff,
            ),
            _ => unreachable!("unsupported block size {size}"),
        };
        // Replay exactly what the staged two-row loop loaded: with a
        // vertical fraction the first row reads reference rows `sy` and
        // `sy + 1` and every later row only the new bottom row; without
        // one, each row reads its own reference row.
        charges.candidate(
            mem,
            cur,
            reference,
            (bx, by, size),
            (sx, sy, cols),
            rows,
            frac_y,
            SAD_ROW_OPS * 2 * size as u64 / 16,
        );
        acc
    }

    /// 16×16 half-pel SAD.
    #[allow(clippy::too_many_arguments)]
    fn sad_half_pel<M: MemModel>(
        mem: &mut M,
        charges: &mut SearchCharges,
        cur: &TracedPlane,
        reference: &TracedPlane,
        bx: isize,
        by: isize,
        mv: MotionVector,
        cutoff: u32,
    ) -> u32 {
        Self::sad_half_pel_sized(mem, charges, cur, reference, bx, by, mv, cutoff, 16)
    }

    /// Refines one 8×8 block (advanced-prediction / 4MV mode) around the
    /// macroblock-level winner `center`: a ±2 integer-pel search followed
    /// by optional half-pel refinement. `(bx, by)` are the block's pixel
    /// coordinates.
    pub fn refine_block8<M: MemModel>(
        &self,
        mem: &mut M,
        cur: &TracedPlane,
        reference: &TracedPlane,
        bx: isize,
        by: isize,
        center: MotionVector,
    ) -> SearchOutcome {
        let mut charges = SearchCharges::default();
        self.refine_block8_with(mem, &mut charges, cur, reference, bx, by, center)
    }

    /// [`MotionSearch::refine_block8`] recording into the caller's
    /// recycled `charges`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn refine_block8_with<M: MemModel>(
        &self,
        mem: &mut M,
        charges: &mut SearchCharges,
        cur: &TracedPlane,
        reference: &TracedPlane,
        bx: isize,
        by: isize,
        center: MotionVector,
    ) -> SearchOutcome {
        span!(mem, Phase::MeSearch, {
            // Keep every candidate inside the padded reference surface.
            let clamp_full = |v: i32| v.clamp(-14, 14) as isize;
            let (cx, cy) = center.full_pel();
            let (cx, cy) = (clamp_full(i32::from(cx)), clamp_full(i32::from(cy)));
            let mut best = (cx, cy);
            let mut best_sad = u32::MAX;
            let mut candidates = 0u32;
            for dy in -2isize..=2 {
                for dx in -2isize..=2 {
                    let (tx, ty) = (clamp_full((cx + dx) as i32), clamp_full((cy + dy) as i32));
                    candidates += 1;
                    let sad = Self::sad_candidate_sized(
                        mem, charges, cur, reference, bx, by, tx, ty, best_sad, 8,
                    );
                    if sad < best_sad {
                        best_sad = sad;
                        best = (tx, ty);
                    }
                }
            }
            charges.flush(mem);
            let mut best_mv = MotionVector::from_full_pel(best.0 as i16, best.1 as i16);
            if self.half_pel {
                span!(mem, Phase::MeHalfPel, {
                    for dy in -1i16..=1 {
                        for dx in -1i16..=1 {
                            if dx == 0 && dy == 0 {
                                continue;
                            }
                            let cand = MotionVector::new(best_mv.x + dx, best_mv.y + dy);
                            if cand.x.abs() > 29 || cand.y.abs() > 29 {
                                continue;
                            }
                            candidates += 1;
                            let sad = Self::sad_half_pel_sized(
                                mem, charges, cur, reference, bx, by, cand, best_sad, 8,
                            );
                            if sad < best_sad {
                                best_sad = sad;
                                best_mv = cand;
                            }
                        }
                    }
                    charges.flush(mem);
                });
            }
            SearchOutcome {
                mv: best_mv,
                sad: best_sad,
                candidates,
            }
        })
    }

    /// Searches the 16×16 block whose top-left is `(mbx·16, mby·16)`,
    /// returning the winning vector in half-pel units.
    pub fn search<M: MemModel>(
        &self,
        mem: &mut M,
        cur: &TracedPlane,
        reference: &TracedPlane,
        mbx: usize,
        mby: usize,
    ) -> SearchOutcome {
        self.search_with(mem, &mut SearchCharges::default(), cur, reference, mbx, mby)
    }

    /// [`MotionSearch::search`] recording into the caller's recycled
    /// `charges`.
    pub(crate) fn search_with<M: MemModel>(
        &self,
        mem: &mut M,
        charges: &mut SearchCharges,
        cur: &TracedPlane,
        reference: &TracedPlane,
        mbx: usize,
        mby: usize,
    ) -> SearchOutcome {
        let out = self.search_inner(mem, charges, cur, reference, mbx, mby);
        m4ps_obs::histogram_record(MetricId::MeSadPerSearch, u64::from(out.candidates));
        out
    }

    /// The span-instrumented search body: one `me.search` span per
    /// macroblock with the fractional refinement nested as `me.halfpel`.
    /// The integer search and the refinement each charge as one batch.
    fn search_inner<M: MemModel>(
        &self,
        mem: &mut M,
        charges: &mut SearchCharges,
        cur: &TracedPlane,
        reference: &TracedPlane,
        mbx: usize,
        mby: usize,
    ) -> SearchOutcome {
        let obs_on = m4ps_obs::enabled();
        if obs_on {
            m4ps_obs::enter(Phase::MeSearch, *mem.counters());
        }
        let bx = (mbx * 16) as isize;
        let by = (mby * 16) as isize;
        let mut candidates = 0u32;

        // Seed with the zero vector (the skip candidate).
        let mut best_sad =
            Self::sad_candidate(mem, charges, cur, reference, bx, by, 0, 0, u32::MAX);
        let mut best = (0isize, 0isize);
        candidates += 1;

        let try_candidate = |mem: &mut M,
                             charges: &mut SearchCharges,
                             dx: isize,
                             dy: isize,
                             best: &mut (isize, isize),
                             best_sad: &mut u32,
                             candidates: &mut u32| {
            if dx == 0 && dy == 0 {
                return;
            }
            let r = self.range as isize;
            if dx < -r || dx > r || dy < -r || dy > r {
                return;
            }
            *candidates += 1;
            let sad = Self::sad_candidate(mem, charges, cur, reference, bx, by, dx, dy, *best_sad);
            if sad < *best_sad {
                *best_sad = sad;
                *best = (dx, dy);
            }
        };

        match self.strategy {
            SearchStrategy::FullSearch => self.full_search(
                mem,
                charges,
                cur,
                reference,
                (bx, by),
                &mut best,
                &mut best_sad,
                &mut candidates,
            ),
            SearchStrategy::ThreeStep => {
                let mut step = 1isize;
                while step * 2 <= self.range as isize {
                    step *= 2;
                }
                let (mut cx, mut cy) = (0isize, 0isize);
                while step >= 1 {
                    for dy in [-step, 0, step] {
                        for dx in [-step, 0, step] {
                            try_candidate(
                                mem,
                                charges,
                                cx + dx,
                                cy + dy,
                                &mut best,
                                &mut best_sad,
                                &mut candidates,
                            );
                        }
                    }
                    (cx, cy) = best;
                    step /= 2;
                }
            }
            SearchStrategy::Diamond => {
                const LDSP: [(isize, isize); 8] = [
                    (0, -2),
                    (-1, -1),
                    (1, -1),
                    (-2, 0),
                    (2, 0),
                    (-1, 1),
                    (1, 1),
                    (0, 2),
                ];
                const SDSP: [(isize, isize); 4] = [(0, -1), (-1, 0), (1, 0), (0, 1)];
                loop {
                    let (cx, cy) = best;
                    for (dx, dy) in LDSP {
                        try_candidate(
                            mem,
                            charges,
                            cx + dx,
                            cy + dy,
                            &mut best,
                            &mut best_sad,
                            &mut candidates,
                        );
                    }
                    if best == (cx, cy) {
                        break;
                    }
                }
                let (cx, cy) = best;
                for (dx, dy) in SDSP {
                    try_candidate(
                        mem,
                        charges,
                        cx + dx,
                        cy + dy,
                        &mut best,
                        &mut best_sad,
                        &mut candidates,
                    );
                }
            }
        }

        charges.flush(mem);
        let mut best_mv = MotionVector::from_full_pel(best.0 as i16, best.1 as i16);

        if self.half_pel {
            span!(mem, Phase::MeHalfPel, {
                // Refine over the 8 half-pel neighbours of the integer
                // winner.
                let base = best_mv;
                for dy in -1i16..=1 {
                    for dx in -1i16..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let cand = MotionVector::new(base.x + dx, base.y + dy);
                        // Stay inside the padded surface.
                        if cand.x.abs() >= 2 * self.range || cand.y.abs() >= 2 * self.range {
                            continue;
                        }
                        candidates += 1;
                        let sad = Self::sad_half_pel(
                            mem, charges, cur, reference, bx, by, cand, best_sad,
                        );
                        if sad < best_sad {
                            best_sad = sad;
                            best_mv = cand;
                        }
                    }
                }
                charges.flush(mem);
            });
        }

        if obs_on {
            m4ps_obs::exit(Phase::MeSearch, *mem.counters());
        }
        SearchOutcome {
            mv: best_mv,
            sad: best_sad,
            candidates,
        }
    }

    /// The paper's full search: a sequential row-major walk of the
    /// restricted window, offset one pixel between candidates (§3.2),
    /// after the zero vector already scored as `best`.
    ///
    /// The host scores each `dy` row in runs of up to
    /// [`ROW_GROUP_LANES`] adjacent candidates with one row-group SAD
    /// whose cutoff is the best SAD at the run's start. Within a run the
    /// best SAD only falls, so every candidate's first row above the
    /// cutoff in force when the walk reaches it lies within the rows the
    /// group computed: replaying the candidates in walk order gives
    /// exactly the `(sum, rows)` of one cutoff SAD per candidate, and
    /// `charges` records the same candidates, rows and ops in the same
    /// order. The simulated machine still runs a non-SIMD, row-by-row,
    /// early-terminating search.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn full_search<M: MemModel>(
        &self,
        mem: &mut M,
        charges: &mut SearchCharges,
        cur: &TracedPlane,
        reference: &TracedPlane,
        (bx, by): (isize, isize),
        best: &mut (isize, isize),
        best_sad: &mut u32,
        candidates: &mut u32,
    ) {
        let r = self.range as isize;
        let (cdata, cstride) = cur.raw_surface();
        let (rdata, rstride) = reference.raw_surface();
        let p = PAD as isize;
        let (cx, cy) = ((bx + p) as usize, (by + p) as usize);
        let row_group = m4ps_dsp::kernels().sad16_row_group;
        let batched = mem.wants_batches();
        let mut sums: RowSums = [[0; ROW_GROUP_LANES]; 16];
        for dy in -r..=r {
            for dx0 in (-r..=r).step_by(ROW_GROUP_LANES) {
                let lanes = ((r - dx0 + 1) as usize).min(ROW_GROUP_LANES);
                // The zero vector was scored first; its lane only rides
                // along.
                let masked = (dy == 0 && (dx0..dx0 + lanes as isize).contains(&0))
                    .then_some((-dx0) as usize);
                let group = RowGroup {
                    lanes,
                    masked,
                    cutoff: *best_sad,
                };
                let (rx, ry) = ((bx + dx0 + p) as usize, (by + dy + p) as usize);
                let rows = row_group(
                    cdata, cstride, cx, cy, rdata, rstride, rx, ry, group, &mut sums,
                );
                if !batched {
                    SearchCharges::check_run(cur, reference, (bx, by), (bx + dx0, by + dy), lanes);
                }
                for lane in (0..lanes).filter(|&l| masked != Some(l)) {
                    let dx = dx0 + lane as isize;
                    *candidates += 1;
                    let (sad, visited) = row_group_lane(&sums, rows, lane, *best_sad);
                    if batched {
                        charges.candidate(
                            mem,
                            cur,
                            reference,
                            (bx, by, 16),
                            (bx + dx, by + dy, 16),
                            visited,
                            false,
                            SAD_ROW_OPS,
                        );
                    }
                    if sad < *best_sad {
                        *best_sad = sad;
                        *best = (dx, dy);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m4ps_memsim::{AddressSpace, NullModel};

    /// Builds (current, reference) planes where the current frame equals
    /// the reference shifted by (sx, sy).
    fn shifted_pair(
        space: &mut AddressSpace,
        mem: &mut NullModel,
        w: usize,
        h: usize,
        sx: isize,
        sy: isize,
    ) -> (TracedPlane, TracedPlane) {
        let tex = |x: isize, y: isize| -> u8 {
            let v = (x * 31 + y * 17 + (x * y) / 7) & 0xff;
            v as u8
        };
        let mut reference = TracedPlane::new(space, w, h);
        let mut cur = TracedPlane::new(space, w, h);
        let mut rdata = vec![0u8; w * h];
        let mut cdata = vec![0u8; w * h];
        for y in 0..h as isize {
            for x in 0..w as isize {
                rdata[(y * w as isize + x) as usize] = tex(x, y);
                // current(x) = reference(x - sx): object moved by +s.
                cdata[(y * w as isize + x) as usize] = tex(x - sx, y - sy);
            }
        }
        reference.copy_from(mem, &rdata, false);
        cur.copy_from(mem, &cdata, false);
        reference.pad_borders(mem);
        cur.pad_borders(mem);
        (cur, reference)
    }

    #[test]
    fn full_search_finds_known_shift() {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        for (sx, sy) in [(0, 0), (3, 0), (0, -2), (-4, 5), (7, 7)] {
            let (cur, reference) = shifted_pair(&mut space, &mut mem, 64, 64, sx, sy);
            let ms = MotionSearch::new(SearchStrategy::FullSearch, 8, false);
            let out = ms.search(&mut mem, &cur, &reference, 1, 1);
            assert_eq!(
                out.mv,
                MotionVector::from_full_pel(-sx as i16, -sy as i16),
                "shift ({sx},{sy})"
            );
            assert_eq!(out.sad, 0);
        }
    }

    #[test]
    fn full_search_evaluates_whole_window() {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let (cur, reference) = shifted_pair(&mut space, &mut mem, 64, 64, 0, 0);
        let ms = MotionSearch::new(SearchStrategy::FullSearch, 4, false);
        let out = ms.search(&mut mem, &cur, &reference, 1, 1);
        assert_eq!(out.candidates, 81); // (2·4+1)²
    }

    /// Builds a smooth (sinusoidal) shifted pair so that the SAD error
    /// surface is unimodal — the regime fast searches are designed for.
    fn smooth_shifted_pair(
        space: &mut AddressSpace,
        mem: &mut NullModel,
        w: usize,
        h: usize,
        sx: isize,
        sy: isize,
    ) -> (TracedPlane, TracedPlane) {
        let tex = |x: isize, y: isize| -> u8 {
            let v = 128.0 + 60.0 * ((x as f64) * 0.35).sin() + 40.0 * ((y as f64) * 0.3).cos();
            v.clamp(0.0, 255.0) as u8
        };
        let mut reference = TracedPlane::new(space, w, h);
        let mut cur = TracedPlane::new(space, w, h);
        let mut rdata = vec![0u8; w * h];
        let mut cdata = vec![0u8; w * h];
        for y in 0..h as isize {
            for x in 0..w as isize {
                rdata[(y * w as isize + x) as usize] = tex(x, y);
                cdata[(y * w as isize + x) as usize] = tex(x - sx, y - sy);
            }
        }
        reference.copy_from(mem, &rdata, false);
        cur.copy_from(mem, &cdata, false);
        reference.pad_borders(mem);
        cur.pad_borders(mem);
        (cur, reference)
    }

    #[test]
    fn fast_searches_find_shift_on_smooth_motion() {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let (cur, reference) = smooth_shifted_pair(&mut space, &mut mem, 64, 64, 2, 1);
        for strat in [SearchStrategy::ThreeStep, SearchStrategy::Diamond] {
            let ms = MotionSearch::new(strat, 8, false);
            let out = ms.search(&mut mem, &cur, &reference, 1, 1);
            assert_eq!(out.mv, MotionVector::from_full_pel(-2, -1), "{strat:?}");
        }
    }

    #[test]
    fn fast_searches_use_fewer_candidates() {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let (cur, reference) = shifted_pair(&mut space, &mut mem, 64, 64, 1, 1);
        let full = MotionSearch::new(SearchStrategy::FullSearch, 8, false)
            .search(&mut mem, &cur, &reference, 1, 1);
        let diamond = MotionSearch::new(SearchStrategy::Diamond, 8, false)
            .search(&mut mem, &cur, &reference, 1, 1);
        assert!(diamond.candidates * 4 < full.candidates);
    }

    #[test]
    fn half_pel_refinement_improves_fractional_motion() {
        // Construct current = horizontal average of reference neighbours,
        // i.e. a genuine half-pel displacement.
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let w = 64;
        // Smooth, non-aliasing texture: the only near-perfect match is
        // the true half-pel displacement.
        let tex = |x: isize, y: isize| -> u8 {
            (128.0 + 70.0 * ((x as f64) * 0.4).sin() + 30.0 * ((y as f64) * 0.23).cos())
                .clamp(0.0, 255.0) as u8
        };
        let mut reference = TracedPlane::new(&mut space, w, w);
        let mut cur = TracedPlane::new(&mut space, w, w);
        let mut rdata = vec![0u8; w * w];
        let mut cdata = vec![0u8; w * w];
        for y in 0..w as isize {
            for x in 0..w as isize {
                rdata[(y * w as isize + x) as usize] = tex(x, y);
                let a = u16::from(tex(x, y)) + u16::from(tex(x + 1, y));
                cdata[(y * w as isize + x) as usize] = ((a + 1) >> 1) as u8;
            }
        }
        reference.copy_from(&mut mem, &rdata, false);
        cur.copy_from(&mut mem, &cdata, false);
        reference.pad_borders(&mut mem);
        cur.pad_borders(&mut mem);

        let no_half = MotionSearch::new(SearchStrategy::FullSearch, 4, false)
            .search(&mut mem, &cur, &reference, 1, 1);
        let with_half = MotionSearch::new(SearchStrategy::FullSearch, 4, true)
            .search(&mut mem, &cur, &reference, 1, 1);
        assert!(with_half.sad < no_half.sad);
        assert!(!with_half.mv.is_full_pel());
    }

    #[test]
    fn search_charges_traced_reads() {
        use m4ps_memsim::{Hierarchy, MachineSpec, MemModel};
        let mut space = AddressSpace::new();
        let mut null = NullModel::new();
        let (cur, reference) = shifted_pair(&mut space, &mut null, 64, 64, 1, 0);
        let mut mem = Hierarchy::new(MachineSpec::o2());
        let ms = MotionSearch::new(SearchStrategy::FullSearch, 4, false);
        let out = ms.search(&mut mem, &cur, &reference, 1, 1);
        let c = mem.counters();
        // At minimum: each candidate touches one 16-pixel current row and
        // one reference row.
        assert!(c.loads >= u64::from(out.candidates) * 32);
        assert!(c.compute_ops > 0);
        // And the window overlap must make most of those hits: the whole
        // search window is under 2 KB.
        assert!(c.l1_misses < c.loads / 50);
    }

    /// Everything a memory model is handed, in order.
    #[derive(Debug, Clone, PartialEq)]
    enum Charge {
        Range(u64, u64, m4ps_memsim::AccessKind, u64),
        Candidates(Vec<SearchCandidate>),
        Prefetch(u64),
        Ops(u64),
    }

    /// A model that records every charge, so two searches can be
    /// compared charge for charge.
    #[derive(Default)]
    struct Recording {
        log: Vec<Charge>,
        counters: m4ps_memsim::Counters,
    }

    impl MemModel for Recording {
        fn access_range(
            &mut self,
            addr: u64,
            len: u64,
            kind: m4ps_memsim::AccessKind,
            arch_ops: u64,
        ) {
            self.log.push(Charge::Range(addr, len, kind, arch_ops));
        }

        fn access_candidates(&mut self, batch: &[SearchCandidate]) {
            self.log.push(Charge::Candidates(batch.to_vec()));
        }

        fn prefetch(&mut self, addr: u64) {
            self.log.push(Charge::Prefetch(addr));
        }

        fn add_ops(&mut self, ops: u64) {
            self.log.push(Charge::Ops(ops));
        }

        fn counters(&self) -> &m4ps_memsim::Counters {
            &self.counters
        }
    }

    /// The full search as one cutoff SAD per candidate, each charged as
    /// it is scored, then the half-pel refinement: the oracle the
    /// row-group walk must reproduce exactly.
    fn per_candidate_search<M: MemModel>(
        ms: &MotionSearch,
        mem: &mut M,
        cur: &TracedPlane,
        reference: &TracedPlane,
        mbx: usize,
        mby: usize,
    ) -> SearchOutcome {
        let mut charges = SearchCharges::default();
        let charges = &mut charges;
        let (bx, by) = ((mbx * 16) as isize, (mby * 16) as isize);
        let mut best_sad =
            MotionSearch::sad_candidate(mem, charges, cur, reference, bx, by, 0, 0, u32::MAX);
        let (mut best, mut candidates) = ((0isize, 0isize), 1u32);
        let r = ms.range as isize;
        for dy in -r..=r {
            for dx in -r..=r {
                if (dx, dy) == (0, 0) {
                    continue;
                }
                candidates += 1;
                let sad = MotionSearch::sad_candidate(
                    mem, charges, cur, reference, bx, by, dx, dy, best_sad,
                );
                if sad < best_sad {
                    best_sad = sad;
                    best = (dx, dy);
                }
            }
        }
        charges.flush(mem);
        let mut best_mv = MotionVector::from_full_pel(best.0 as i16, best.1 as i16);
        if ms.half_pel {
            let base = best_mv;
            for dy in -1i16..=1 {
                for dx in -1i16..=1 {
                    let cand = MotionVector::new(base.x + dx, base.y + dy);
                    if (dx, dy) == (0, 0)
                        || cand.x.abs() >= 2 * ms.range
                        || cand.y.abs() >= 2 * ms.range
                    {
                        continue;
                    }
                    candidates += 1;
                    let sad = MotionSearch::sad_half_pel(
                        mem, charges, cur, reference, bx, by, cand, best_sad,
                    );
                    if sad < best_sad {
                        best_sad = sad;
                        best_mv = cand;
                    }
                }
            }
            charges.flush(mem);
        }
        SearchOutcome {
            mv: best_mv,
            sad: best_sad,
            candidates,
        }
    }

    /// Planes whose pixels are `f(x, y)`, padded.
    fn plane_from(
        space: &mut AddressSpace,
        mem: &mut NullModel,
        (w, h): (usize, usize),
        f: impl Fn(isize, isize) -> u8,
    ) -> TracedPlane {
        let mut plane = TracedPlane::new(space, w, h);
        let data: Vec<u8> = (0..(w * h) as isize)
            .map(|i| f(i % w as isize, i / w as isize))
            .collect();
        plane.copy_from(mem, &data, false);
        plane.pad_borders(mem);
        plane
    }

    /// The row-group full search against the per-candidate oracle at
    /// every range, with and without half-pel, at every macroblock of a
    /// 4×3-MB frame (corners, edges, interior): the same outcome and,
    /// through a recording model, the same candidate batches and ops in
    /// the same order. Two content pairs: a shifted texture with noise
    /// (the best SAD falls during the walk, so cutoffs vary candidate
    /// by candidate) and unrelated noise (late cutoffs). Runs on the
    /// active kernel tier only: `force_tier` swaps process-global state
    /// under the other tests of this binary, and CI re-runs the suite
    /// with each tier forced through `M4PS_KERNELS`.
    #[test]
    fn full_search_matches_per_candidate_oracle() {
        let hash = |x: isize, y: isize, k: isize| -> u8 {
            let v = ((x * 73_856_093) ^ (y * 19_349_663) ^ (k * 83_492_791)) as u64;
            (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8
        };
        let tex = |x: isize, y: isize| -> u8 {
            let s = 128.0 + 60.0 * (x as f64 * 0.31).sin() + 50.0 * (y as f64 * 0.27).cos();
            (s as isize + isize::from(hash(x, y, 1) >> 4)).clamp(0, 255) as u8
        };
        let size = (64, 48);
        let mut space = AddressSpace::new();
        let mut null = NullModel::new();
        let pairs = [
            (
                plane_from(&mut space, &mut null, size, |x, y| {
                    tex(x - 3, y + 2).saturating_add(hash(x, y, 2) >> 5)
                }),
                plane_from(&mut space, &mut null, size, tex),
            ),
            (
                plane_from(&mut space, &mut null, size, |x, y| hash(x, y, 3)),
                plane_from(&mut space, &mut null, size, |x, y| hash(x, y, 4)),
            ),
        ];
        for (cur, reference) in &pairs {
            for range in 1..=15 {
                for half_pel in [false, true] {
                    let ms = MotionSearch::new(SearchStrategy::FullSearch, range, half_pel);
                    for (mbx, mby) in (0..4).flat_map(|x| (0..3).map(move |y| (x, y))) {
                        let at = format!("range {range} half {half_pel} mb {mbx},{mby}");
                        let mut want_mem = Recording::default();
                        let want =
                            per_candidate_search(&ms, &mut want_mem, cur, reference, mbx, mby);
                        let mut got_mem = Recording::default();
                        let got = ms.search(&mut got_mem, cur, reference, mbx, mby);
                        assert_eq!(got, want, "{at}");
                        assert!(want_mem.log.len() >= 2, "{at}: oracle charged nothing");
                        assert!(got_mem.log == want_mem.log, "{at}: charges differ");
                        let unbatched = ms.search(&mut null, cur, reference, mbx, mby);
                        assert_eq!(unbatched, want, "{at}: NullModel");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of 1..=15")]
    fn oversized_range_rejected() {
        MotionSearch::new(SearchStrategy::FullSearch, 16, false);
    }

    #[test]
    fn edge_macroblock_search_stays_in_padded_surface() {
        let mut space = AddressSpace::new();
        let mut mem = NullModel::new();
        let (cur, reference) = shifted_pair(&mut space, &mut mem, 48, 48, 2, 2);
        let ms = MotionSearch::new(SearchStrategy::FullSearch, 15, true);
        // All four corner MBs.
        for (mbx, mby) in [(0, 0), (2, 0), (0, 2), (2, 2)] {
            let _ = ms.search(&mut mem, &cur, &reference, mbx, mby);
        }
    }
}
