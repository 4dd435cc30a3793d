//! The composed L1 → L2 → DRAM hierarchy with TLB and software prefetch.

use crate::cache::Cache;
use crate::counters::Counters;
use crate::dram::DramModel;
use crate::machine::MachineSpec;
use crate::model::{AccessKind, MemModel, ParallelModel, SearchCandidate};
use crate::space::Region;
use crate::timing::CycleBreakdown;
use crate::tlb::Tlb;

/// Per-data-structure miss tallies (see [`Hierarchy::attach_regions`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMisses {
    /// Region tag.
    pub tag: String,
    /// L1 demand misses landing in regions with this tag.
    pub l1_misses: u64,
    /// L2 demand misses landing in regions with this tag.
    pub l2_misses: u64,
}

/// Full memory-hierarchy simulator for one [`MachineSpec`].
///
/// Accesses flow TLB → L1 → L2 → DRAM with write-back / write-allocate at
/// both cache levels. Architectural instruction counts are tracked
/// separately from line probes, so a 16-byte pixel run counts 16
/// graduated loads but touches (and can miss) each 32 B line only once —
/// exactly how the hardware counters see it.
///
/// # Examples
///
/// ```
/// use m4ps_memsim::{AccessKind, Hierarchy, MachineSpec, MemModel};
///
/// let mut mem = Hierarchy::new(MachineSpec::o2());
/// mem.access_range(0x1_0000, 16, AccessKind::Load, 16);
/// assert_eq!(mem.counters().loads, 16);
/// assert_eq!(mem.counters().l1_misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    machine: MachineSpec,
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
    dram: DramModel,
    counters: Counters,
    prefetch_enabled: bool,
    /// Sorted (base, end, tag-index) spans for miss attribution.
    region_spans: Vec<(u64, u64, usize)>,
    region_tags: Vec<String>,
    region_l1: Vec<u64>,
    region_l2: Vec<u64>,
    /// L1 line shift, cached off `machine.l1.line_bytes`.
    l1_shift: u32,
    /// TLB page shift, cached off `machine.tlb.page_bytes`.
    page_shift: u32,
    /// Line number of the line most recently sent through
    /// [`Hierarchy::probe_line`]. A whole span falling inside this line
    /// (and the MRU page) short-circuits the probe: a just-probed line
    /// is already the most recently used in its set, so skipping the
    /// LRU restamp is the identity transition. `u64::MAX` = none.
    mru_line: u64,
    /// Whether `mru_line` is known dirty. Stores may only take the fast
    /// path when it is (the dirty-bit update is then a no-op); a store
    /// to a clean-or-unknown line falls through to the full probe once.
    mru_line_dirty: bool,
    /// VPN most recently resolved through the TLB. `u64::MAX` = none.
    mru_page: u64,
    /// Recycled bookkeeping for [`MemModel::access_candidates`] batches.
    batch: LoadBatch,
}

/// One distinct line of a candidate batch: its first and last touch.
///
/// A touch is ordered by `(span position, line)`: the position packs the
/// candidate index above the span's place in that candidate's charge
/// order ([`span_pos`]), and a span touches its lines in ascending
/// order, so comparing `(position, line)` pairs orders touches exactly
/// as the per-span replay makes them.
#[derive(Debug, Clone, Copy, Default)]
struct LineStamp {
    line: u64,
    first: u64,
    last: u64,
    epoch: u32,
}

/// Most candidates in one lane run: a row's lanes are the bits of a `u64`.
const MAX_LANES: usize = 64;

/// Position of span `slot` of candidate `cand` in a batch's charge order.
/// A candidate has at most `2·rows + 1 < 2^33` spans, and a batch
/// (a slice of 40-byte records) fewer than `2^31` candidates.
#[inline]
fn span_pos(cand: usize, slot: u64) -> u64 {
    ((cand as u64) << 33) | slot
}

/// Slot of current row `r` in a candidate's charge order (see
/// [`SearchCandidate::for_each_span`]): rows alternate current,
/// reference, with the leading reference row second when there is one.
#[inline]
fn cur_slot(r: u32, lead_row: bool) -> u64 {
    let r = u64::from(r);
    if lead_row && r > 0 {
        2 * r + 1
    } else {
        2 * r
    }
}

/// Slot of the candidate's `k`-th reference row in its charge order.
#[inline]
fn ref_slot(k: u32, lead_row: bool) -> u64 {
    let k = u64::from(k);
    if lead_row && k > 0 {
        2 * k
    } else {
        2 * k + 1
    }
}

/// The line stamps of one batch, indexed by line number modulo the table
/// size (open addressing, probing forward on a collision). A search
/// window's lines are runs of consecutive line numbers, so they land in
/// consecutive entries. Entries stamped in an older epoch are empty, so
/// nothing is cleared between batches.
#[derive(Debug, Clone, Default)]
struct LineTable {
    entries: Vec<LineStamp>,
    mask: usize,
    /// Batch generation, starting at 1.
    epoch: u32,
    /// Most distinct lines a batch may hold: at most half the entries,
    /// so a probe always reaches an empty entry.
    capacity: usize,
    /// Entry indices of the batch's distinct lines.
    lines: Vec<u32>,
}

impl LineTable {
    fn new(capacity: usize) -> Self {
        let entries = (2 * capacity).next_power_of_two();
        LineTable {
            entries: vec![LineStamp::default(); entries],
            mask: entries - 1,
            epoch: 0,
            capacity,
            lines: Vec::new(),
        }
    }

    /// Empties the table for a new batch. Returns `true` when the epoch
    /// wrapped and every entry was cleared.
    fn clear(&mut self) -> bool {
        self.lines.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.entries.fill(LineStamp::default());
            self.epoch = 1;
            return true;
        }
        false
    }

    /// Stamps the reference rows of a lane run whose first candidate,
    /// `head`, is candidate `start` of the batch (see
    /// [`LoadBatch::collect`]). `segments` yields `(live, rows)` pairs:
    /// the next `rows` reference rows are visited by the lanes set in
    /// `live`. Lane `j` reads each row one byte to the right of lane
    /// `j − 1`, so the live lanes of a row cover one contiguous byte
    /// range, and each line of it is stamped once: it is touched at the
    /// row's slot by the live lanes whose row meets it, first by the
    /// lowest of them and last by the highest, once each. Returns the
    /// rows' line and page touches, or `None` once the batch has more
    /// than `capacity` distinct lines. The rows of a run of several
    /// lanes must not reach the top of the address space; a single
    /// lane's rows saturate there, as [`SearchCandidate::row_addr`] does.
    fn stamp_lane_run(
        &mut self,
        start: usize,
        head: &SearchCandidate,
        segments: impl Iterator<Item = (u64, u32)>,
        line_shift: u32,
        page_shift: u32,
    ) -> Option<(u64, u64)> {
        let (mut line_touches, mut page_touches) = (0, 0);
        let tail = u64::from(head.ref_width.max(1)) - 1;
        let (mut k, mut base) = (0, head.reference);
        for (live, rows) in segments {
            let (low, high) = (live.trailing_zeros(), 63 - live.leading_zeros());
            for k in k..k + rows {
                let slot = ref_slot(k, head.lead_row);
                let addr = base.saturating_add(u64::from(low));
                let end = base.saturating_add(u64::from(high)).saturating_add(tail);
                // The live lanes whose row `[base + j, base + j + tail]`
                // meets the bytes `from..=from | (1 << shift) - 1`.
                let meeting = |from: u64, shift: u32| {
                    let j_lo = from.saturating_sub(base.saturating_add(tail));
                    let j_hi = ((from | ((1 << shift) - 1)) - base).min(63);
                    live & (u64::MAX << j_lo) & (u64::MAX >> (63 - j_hi))
                };
                let pages = (addr >> page_shift)..=(end >> page_shift);
                if pages.start() == pages.end() {
                    page_touches += u64::from(live.count_ones());
                } else {
                    for page in pages {
                        let lanes = meeting(page << page_shift, page_shift);
                        page_touches += u64::from(lanes.count_ones());
                    }
                }
                for line in (addr >> line_shift)..=(end >> line_shift) {
                    let lanes = meeting(line << line_shift, line_shift);
                    if lanes == 0 {
                        continue;
                    }
                    line_touches += u64::from(lanes.count_ones());
                    let first = span_pos(start + lanes.trailing_zeros() as usize, slot);
                    let last = span_pos(start + 63 - lanes.leading_zeros() as usize, slot);
                    if !self.stamp(line, first, last) {
                        return None;
                    }
                }
                base = base.saturating_add(head.stride);
            }
            k += rows;
        }
        Some((line_touches, page_touches))
    }

    /// Widens `line`'s touch interval to cover `first..=last`, adding the
    /// line on its first stamp. Returns `false` once the batch has more
    /// distinct lines than `capacity`.
    #[inline(always)]
    fn stamp(&mut self, line: u64, first: u64, last: u64) -> bool {
        let mut i = line as usize & self.mask;
        loop {
            let e = &mut self.entries[i];
            if e.epoch != self.epoch {
                *e = LineStamp {
                    line,
                    first,
                    last,
                    epoch: self.epoch,
                };
                self.lines.push(i as u32);
                return self.lines.len() <= self.capacity;
            }
            if e.line == line {
                e.first = e.first.min(first);
                e.last = e.last.max(last);
                return true;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The batch's distinct lines, in the order they were added.
    fn iter(&self) -> impl Iterator<Item = &LineStamp> {
        self.lines.iter().map(|&i| &self.entries[i as usize])
    }

    fn len(&self) -> usize {
        self.lines.len()
    }
}

/// Bookkeeping for one [`MemModel::access_candidates`] batch: its
/// distinct L1 lines, each with its first and last touch. The tables
/// are sized from the geometry on first use and then recycled, so a
/// batch allocates nothing.
#[derive(Debug, Clone, Default)]
struct LoadBatch {
    /// Line stamps. The table has at least twice as many entries as
    /// the L1 has lines, and holds at most as many lines as the L1: a
    /// batch with more has more than `assoc` of them in some set.
    table: LineTable,
    /// Per L1 set: `epoch << 32 | distinct batch lines in the set`, in
    /// the table's epochs.
    set_meta: Vec<u64>,
    set_mask: u64,
    assoc: usize,
    line_shift: u32,
    page_shift: u32,
    /// Per L1 set, `assoc` slots: the table entries of the set's batch
    /// lines, as many as `set_meta` counts.
    set_lines: Vec<u32>,
    /// The L1 sets holding batch lines.
    sets: Vec<u32>,
    /// `(first touch, line number, writeback)` of each line whose first
    /// touch missed the L1, with the dirty victim it evicted.
    misses: Vec<(u64, u64, Option<u64>)>,
    /// `(page number, first touch, last touch)` of the distinct pages.
    pages: Vec<(u64, u64, u64)>,
    /// Per current-block row of a run: the first candidate visiting it,
    /// then either the latest candidate with exactly `r + 1` rows and
    /// their count, or (once the run ends) the last candidate visiting
    /// the row and how many do.
    cover: Vec<(usize, usize, u64)>,
    /// Per reference-row count: the lanes of the current lane run that
    /// visit exactly that many reference rows.
    drops: Vec<u64>,
    /// Line and page touches of the per-span replay.
    line_touches: u64,
    page_touches: u64,
    /// Non-empty batches charged, and how many of them fell back to the
    /// per-span replay.
    batches: u64,
    fallbacks: u64,
}

impl LoadBatch {
    /// Starts a batch for an L1 of `sets` sets of `assoc` ways, lines
    /// of `1 << line_shift` bytes and pages of `1 << page_shift`.
    fn begin(&mut self, sets: u64, assoc: usize, line_shift: u32, page_shift: u32) {
        if self.set_meta.is_empty() {
            self.table = LineTable::new(sets as usize * assoc);
            self.set_meta = vec![0; sets as usize];
            self.set_lines = vec![0; sets as usize * assoc];
            self.set_mask = sets - 1;
            self.assoc = assoc;
            self.line_shift = line_shift;
            self.page_shift = page_shift;
        }
        if self.table.clear() {
            self.set_meta.fill(0);
        }
        self.cover.clear();
        self.sets.clear();
        self.line_touches = 0;
        self.page_touches = 0;
        self.batches += 1;
    }

    /// Records every line touch of `batch`, in the order-preserving form
    /// of [`LineStamp`], then checks that no L1 set receives more than
    /// `assoc` distinct lines. Returns `None` when it does.
    ///
    /// Reference rows are stamped a lane run at a time: consecutive
    /// candidates sharing the current block (and so the stride), the
    /// reference width and the leading-row flag whose references are one
    /// byte apart, at most [`MAX_LANES`] of them, as the full search
    /// walks each row of its window. A candidate with no such neighbour
    /// is a run of one lane. The current block's rows are the same for
    /// every candidate of a run sharing one block, so each is stamped
    /// once per block run: its first touch is the first candidate that
    /// visits the row, its last touch the last one, and it is touched
    /// once per candidate that visits it. Every stamp widens its line's
    /// touch interval, so the order of the stamps does not matter. The
    /// set check also lists each set's lines for [`Hierarchy::charge_batch`].
    fn collect(&mut self, batch: &[SearchCandidate]) -> Option<()> {
        let block = |c: &SearchCandidate| (c.cur, c.stride, c.cur_width);
        let (mut run, mut lanes) = (0, 0);
        for (c, cand) in batch.iter().enumerate() {
            if c > 0 {
                let prev = &batch[c - 1];
                let new_block = block(cand) != block(prev);
                if new_block
                    || c - lanes == MAX_LANES
                    || (cand.ref_width, cand.lead_row) != (prev.ref_width, prev.lead_row)
                    || prev.reference.checked_add(1) != Some(cand.reference)
                {
                    self.stamp_lanes(&batch[lanes..c], lanes)?;
                    lanes = c;
                }
                if new_block {
                    self.touch_current(&batch[run..c], run)?;
                    run = c;
                }
            }
            self.cover_rows(c - run, cand.rows);
        }
        self.stamp_lanes(&batch[lanes..], lanes)?;
        self.touch_current(&batch[run..], run)?;
        let epoch = self.table.epoch;
        for &i in &self.table.lines {
            let set = (self.table.entries[i as usize].line & self.set_mask) as usize;
            let meta = self.set_meta[set];
            let n = if (meta >> 32) as u32 == epoch {
                meta as u32 as usize
            } else {
                self.sets.push(set as u32);
                0
            };
            if n == self.assoc {
                return None;
            }
            self.set_meta[set] = (u64::from(epoch) << 32) | (n as u64 + 1);
            self.set_lines[set * self.assoc + n] = i;
        }
        Some(())
    }

    /// Stamps the reference rows of the lane run `run`, candidates
    /// `offset..` of the batch. Lane `j` visits reference rows
    /// `0..ref_rows`, so the rows split into segments at the lanes' row
    /// counts, each visited by the lanes not yet dropped out. A run of
    /// several lanes whose last row would reach the top of the address
    /// space, where row addresses saturate and stop being one byte
    /// apart, is stamped lane by lane.
    fn stamp_lanes(&mut self, run: &[SearchCandidate], offset: usize) -> Option<()> {
        let (line_shift, page_shift) = (self.line_shift, self.page_shift);
        let head = &run[0];
        let (lines, pages) = if run.len() == 1 {
            let rows = std::iter::once((1, head.ref_rows()));
            self.table
                .stamp_lane_run(offset, head, rows, line_shift, page_shift)?
        } else {
            let last = &run[run.len() - 1];
            let rows = run.iter().map(SearchCandidate::ref_rows).max().unwrap_or(0);
            let top = u64::from(rows.saturating_sub(1))
                .checked_mul(last.stride)
                .and_then(|d| last.reference.checked_add(d))
                .and_then(|a| a.checked_add(u64::from(last.ref_width)));
            if top.is_none() {
                for (j, c) in run.iter().enumerate() {
                    self.stamp_lanes(std::slice::from_ref(c), offset + j)?;
                }
                return Some(());
            }
            // `drops[r]`: the lanes with `r` reference rows.
            let drops = &mut self.drops;
            drops.clear();
            drops.resize(rows as usize + 1, 0);
            for (j, c) in run.iter().enumerate() {
                drops[c.ref_rows() as usize] |= 1 << j;
            }
            let mut live = (u64::MAX >> (64 - run.len())) & !drops[0];
            let mut k = 0;
            let segments = std::iter::from_fn(|| {
                let from = k;
                while k < rows {
                    k += 1;
                    if drops[k as usize] != 0 {
                        break;
                    }
                }
                let segment = (live, k - from);
                live &= !drops[k as usize];
                (k > from).then_some(segment)
            });
            self.table
                .stamp_lane_run(offset, head, segments, line_shift, page_shift)?
        };
        self.line_touches += lines;
        self.page_touches += pages;
        Some(())
    }

    /// Notes that candidate `i` of the current run visits `rows` current
    /// rows: the rows no earlier candidate reached are first visited by
    /// it, and it is the latest candidate (so far) with that many rows.
    #[inline]
    fn cover_rows(&mut self, i: usize, rows: u32) {
        let rows = rows as usize;
        if rows > self.cover.len() {
            self.cover.resize(rows, (i, 0, 0));
        }
        if rows > 0 {
            let row = &mut self.cover[rows - 1];
            row.1 = i;
            row.2 += 1;
        }
    }

    /// Stamps the current-block rows of `run`, candidates sharing one
    /// block whose first is candidate `offset` of the batch, from the
    /// coverage [`LoadBatch::cover_rows`] noted, and resets it.
    fn touch_current(&mut self, run: &[SearchCandidate], offset: usize) -> Option<()> {
        // Row `r` is visited by every candidate with more than `r` rows.
        let (mut last, mut n) = (0, 0);
        for row in self.cover.iter_mut().rev() {
            if row.2 > 0 {
                last = last.max(row.1);
            }
            n += row.2;
            (row.1, row.2) = (last, n);
        }
        let head = run[0];
        let tail = u64::from(head.cur_width.max(1)) - 1;
        for (r, &(first, last, n)) in self.cover.iter().enumerate() {
            let r = r as u32;
            let first = span_pos(offset + first, cur_slot(r, run[first].lead_row));
            let last = span_pos(offset + last, cur_slot(r, run[last].lead_row));
            let addr = head.row_addr(head.cur, r);
            let end = addr.saturating_add(tail);
            let (lo, hi) = (addr >> self.line_shift, end >> self.line_shift);
            self.line_touches += n * (hi - lo + 1);
            self.page_touches += n * ((end >> self.page_shift) - (addr >> self.page_shift) + 1);
            for line in lo..=hi {
                if !self.table.stamp(line, first, last) {
                    return None;
                }
            }
        }
        self.cover.clear();
        Some(())
    }

    /// Derives the batch's distinct pages, each with its first and last
    /// touch, from the lines in one pass: a span touches a page exactly
    /// when it touches one of the page's lines, and a line lies in one
    /// page. Consecutive lines mostly share a page, so the previous
    /// line's page is checked first. Sorts the pages by first touch.
    /// Returns `false` when the batch has as many distinct pages as the
    /// TLB has entries.
    fn order_pages(&mut self, tlb_entries: usize) -> bool {
        let line_to_page = self.page_shift - self.line_shift;
        self.pages.clear();
        let mut at = 0;
        for e in self.table.iter() {
            let page = e.line >> line_to_page;
            if self.pages.get(at).map(|p| p.0) != Some(page) {
                match self.pages.iter().position(|p| p.0 == page) {
                    Some(j) => at = j,
                    None => {
                        if self.pages.len() + 1 >= tlb_entries {
                            return false;
                        }
                        at = self.pages.len();
                        self.pages.push((page, e.first, e.last));
                        continue;
                    }
                }
            }
            let p = &mut self.pages[at];
            p.1 = p.1.min(e.first);
            p.2 = p.2.max(e.last);
        }
        self.pages
            .sort_unstable_by_key(|&(page, first, _)| (first, page));
        true
    }
}

impl Hierarchy {
    /// Builds an empty hierarchy for `machine` with software prefetch
    /// modelling enabled (as the MIPSpro compiler did at `-O3`).
    pub fn new(machine: MachineSpec) -> Self {
        Hierarchy {
            l1: Cache::new(machine.l1),
            l2: Cache::new(machine.l2),
            tlb: Tlb::new(machine.tlb),
            dram: DramModel::new(machine.dram),
            counters: Counters::new(),
            prefetch_enabled: true,
            region_spans: Vec::new(),
            region_tags: Vec::new(),
            region_l1: Vec::new(),
            region_l2: Vec::new(),
            l1_shift: machine.l1.line_bytes.trailing_zeros(),
            page_shift: machine.tlb.page_bytes.trailing_zeros(),
            mru_line: u64::MAX,
            mru_line_dirty: false,
            mru_page: u64::MAX,
            batch: LoadBatch::default(),
            machine,
        }
    }

    /// Attaches the address-space region map so demand misses can be
    /// attributed to the data structures they land in. Regions sharing a
    /// tag are aggregated. The paper's hardware counters could only see
    /// totals; the simulator can answer *which buffer misses*.
    pub fn attach_regions(&mut self, regions: &[Region]) {
        self.region_spans.clear();
        self.region_tags.clear();
        for r in regions {
            let idx = match self.region_tags.iter().position(|t| t == &r.tag) {
                Some(i) => i,
                None => {
                    self.region_tags.push(r.tag.clone());
                    self.region_tags.len() - 1
                }
            };
            self.region_spans
                .push((r.base, r.base + r.bytes.max(1), idx));
        }
        self.region_spans.sort_unstable();
        self.region_l1 = vec![0; self.region_tags.len()];
        self.region_l2 = vec![0; self.region_tags.len()];
    }

    /// Miss tallies per region tag, most L1 misses first.
    pub fn region_misses(&self) -> Vec<RegionMisses> {
        let mut out: Vec<RegionMisses> = self
            .region_tags
            .iter()
            .enumerate()
            .map(|(i, tag)| RegionMisses {
                tag: tag.clone(),
                l1_misses: self.region_l1[i],
                l2_misses: self.region_l2[i],
            })
            .collect();
        out.sort_by_key(|r| std::cmp::Reverse(r.l1_misses));
        out
    }

    /// Tag index of the region containing `addr`, if any.
    fn region_of(&self, addr: u64) -> Option<usize> {
        if self.region_spans.is_empty() {
            return None;
        }
        let i = self
            .region_spans
            .partition_point(|&(base, _, _)| base <= addr);
        if i == 0 {
            return None;
        }
        let (_, end, idx) = self.region_spans[i - 1];
        (addr < end).then_some(idx)
    }

    /// Builds a hierarchy with software prefetch disabled.
    pub fn without_prefetch(machine: MachineSpec) -> Self {
        let mut h = Self::new(machine);
        h.prefetch_enabled = false;
        h
    }

    /// The machine this hierarchy models.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Whether software prefetches are being simulated.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch_enabled
    }

    /// DRAM traffic accounting.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// The L1 data cache (its [`crate::CacheStats`] count every probe,
    /// including hits the charging fast paths resolve without one).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The data TLB.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Cycle breakdown under the machine's timing model.
    pub fn breakdown(&self) -> CycleBreakdown {
        self.machine.timing.breakdown(&self.counters)
    }

    /// Execution time in seconds under the machine's clock.
    pub fn exec_seconds(&self) -> f64 {
        self.breakdown().total() / (f64::from(self.machine.clock_mhz) * 1.0e6)
    }

    /// Snapshot of the counters (for delta-instrumentation windows).
    pub fn snapshot(&self) -> Counters {
        self.counters
    }

    /// Probes one line through L1 → L2 → DRAM. `demand` distinguishes a
    /// demand access from a software-prefetch fill: fills move the same
    /// data (DRAM traffic and writebacks are charged unconditionally)
    /// but are not demand misses, so the demand miss counters and the
    /// per-region attribution are gated on it.
    fn probe_line(&mut self, addr: u64, write: bool, demand: bool) {
        self.mru_line = addr >> self.l1_shift;
        self.mru_line_dirty = write;
        let r1 = self.l1.probe(addr, write);
        if !r1.hit {
            self.fill_line(addr, r1.writeback_of, demand);
        }
    }

    /// The rest of an L1 miss on the line at `addr`: its demand
    /// tallies, the L2 write of the dirty victim `writeback_of`, and the
    /// refill from L2 (and DRAM).
    fn fill_line(&mut self, addr: u64, writeback_of: Option<u64>, demand: bool) {
        if demand {
            self.counters.l1_misses += 1;
            if let Some(idx) = self.region_of(addr) {
                self.region_l1[idx] += 1;
            }
        }
        if let Some(victim) = writeback_of {
            // Dirty L1 line drains to L2; it is a write touch of L2.
            self.counters.l1_writebacks += 1;
            let wb = self.l2.probe(victim, true);
            if !wb.hit {
                // Non-inclusive corner: the line left L2 earlier. Refill
                // from DRAM, then dirty it. This traffic is a side effect
                // of the eviction, not of the triggering access, so it is
                // charged even for prefetch fills.
                self.counters.l2_misses += 1;
                self.dram.record_read(self.machine.l2.line_bytes);
                if wb.writeback_of.is_some() {
                    self.counters.l2_writebacks += 1;
                    self.dram.record_write(self.machine.l2.line_bytes);
                }
            }
        }
        // Refill of the missing line from L2.
        let r2 = self.l2.probe(addr, false);
        if !r2.hit {
            if demand {
                self.counters.l2_misses += 1;
                if let Some(idx) = self.region_of(addr) {
                    self.region_l2[idx] += 1;
                }
            }
            self.dram.record_read(self.machine.l2.line_bytes);
            if r2.writeback_of.is_some() {
                self.counters.l2_writebacks += 1;
                self.dram.record_write(self.machine.l2.line_bytes);
            }
        }
    }

    /// TLB walk + line probes for one span, with the MRU short-circuit.
    /// Callers have already charged the architectural loads/stores and
    /// `bytes_accessed`.
    fn charge_span(&mut self, addr: u64, len: u64, write: bool) {
        let last = addr.saturating_add(len.max(1) - 1);
        // Fast path: the whole span lies inside the most recently probed
        // L1 line and the most recently resolved TLB page. Both are the
        // most recently used entries of their structures, so skipping
        // their LRU restamps changes no replacement decision, and a
        // store additionally requires the line to be known dirty so the
        // dirty-bit update is a no-op. Only the observable hit/lookup
        // tallies advance.
        if (addr >> self.l1_shift) == self.mru_line
            && (last >> self.l1_shift) == self.mru_line
            && (addr >> self.page_shift) == self.mru_page
            && (!write || self.mru_line_dirty)
        {
            self.tlb.filtered_hits(1);
            self.l1.filtered_hits(1);
            return;
        }
        let page = self.machine.tlb.page_bytes;
        let mut a = addr & !(page - 1);
        let last_page = last & !(page - 1);
        loop {
            if !self.tlb.lookup(a) {
                self.counters.tlb_misses += 1;
            }
            self.mru_page = a >> self.page_shift;
            if a == last_page {
                break;
            }
            a += page;
        }
        let line = self.machine.l1.line_bytes;
        let mut a = addr & !(line - 1);
        let last_line = last & !(line - 1);
        loop {
            self.probe_line(a, write, true);
            if a == last_line {
                break;
            }
            a += line;
        }
    }

    /// TLB walks + line probes for a candidate batch: one probe per
    /// distinct page and line at its first touch, then one restamp at
    /// its last touch where that changes the recency order. Loads never
    /// dirty a line, and with at most `assoc` distinct batch lines per L1
    /// set (and fewer distinct pages than TLB entries) no batch line is
    /// evicted before the batch ends, so every miss, victim and writeback
    /// of the per-span replay falls on a first touch. L1 sets are
    /// independent, so each set's lines are probed and restamped on
    /// their own; only the misses reach L2, in first-touch order.
    /// DESIGN.md §11 gives the full argument. Returns `false`, having
    /// changed nothing, when that precondition fails.
    fn charge_batch(&mut self, batch: &[SearchCandidate]) -> bool {
        if self.page_shift < self.l1_shift {
            return false; // a line would straddle pages
        }
        self.batch.begin(
            self.l1.config().sets(),
            self.machine.l1.assoc,
            self.l1_shift,
            self.page_shift,
        );
        if self.batch.collect(batch).is_none() {
            return false;
        }
        if !self.batch.order_pages(self.machine.tlb.entries) {
            return false;
        }
        // Pages: first touches in first-touch order, then last touches
        // in last-touch order (the TLB is one fully associative set).
        for i in 0..self.batch.pages.len() {
            if !self.tlb.lookup(self.batch.pages[i].0 << self.page_shift) {
                self.counters.tlb_misses += 1;
            }
        }
        self.batch
            .pages
            .sort_unstable_by_key(|&(page, _, last)| (last, page));
        for &(page, _, _) in &self.batch.pages {
            self.tlb.restamp(page << self.page_shift);
        }
        // Lines, set by set: first touches in first-touch order, then,
        // unless that already is the last-touch order, last touches in
        // last-touch order. Replacement compares recency only within a
        // set.
        let LoadBatch {
            table,
            set_meta,
            set_lines,
            sets,
            misses,
            assoc,
            ..
        } = &mut self.batch;
        misses.clear();
        for &set in sets.iter() {
            let n = set_meta[set as usize] as u32 as usize;
            let ways = &mut set_lines[set as usize * *assoc..][..n];
            let entry = |i: u32| &table.entries[i as usize];
            ways.sort_unstable_by_key(|&i| (entry(i).first, entry(i).line));
            for &i in ways.iter() {
                let e = entry(i);
                let r = self.l1.probe(e.line << self.l1_shift, false);
                if !r.hit {
                    misses.push((e.first, e.line, r.writeback_of));
                }
            }
            let last = |i: u32| (entry(i).last, entry(i).line);
            if ways.windows(2).any(|w| last(w[0]) > last(w[1])) {
                ways.sort_unstable_by_key(|&i| last(i));
                for &i in ways.iter() {
                    self.l1.restamp(entry(i).line << self.l1_shift);
                }
            }
        }
        // L1 misses probe L2 in first-touch order.
        misses.sort_unstable_by_key(|&(first, line, _)| (first, line));
        for i in 0..self.batch.misses.len() {
            let (_, line, writeback_of) = self.batch.misses[i];
            self.fill_line(line << self.l1_shift, writeback_of, true);
        }
        // Every other touch is a hit.
        self.tlb
            .filtered_hits(self.batch.page_touches - self.batch.pages.len() as u64);
        self.l1
            .filtered_hits(self.batch.line_touches - self.batch.table.len() as u64);
        // The probes and restamps moved recency behind the MRU filter's
        // back.
        self.mru_line = u64::MAX;
        self.mru_line_dirty = false;
        self.mru_page = u64::MAX;
        true
    }

    /// `(batches, fallbacks)`: the non-empty
    /// [`MemModel::access_candidates`] batches charged so far, and how
    /// many of them broke the precondition and were replayed span by
    /// span. Diagnostic only;
    /// neither path changes a counter.
    #[doc(hidden)]
    pub fn load_batch_stats(&self) -> (u64, u64) {
        (self.batch.batches, self.batch.fallbacks)
    }
}

impl MemModel for Hierarchy {
    fn access_range(&mut self, addr: u64, len: u64, kind: AccessKind, arch_ops: u64) {
        match kind {
            AccessKind::Load => self.counters.loads += arch_ops,
            AccessKind::Store => self.counters.stores += arch_ops,
        }
        self.counters.bytes_accessed += len.max(1);
        self.charge_span(addr, len, matches!(kind, AccessKind::Store));
    }

    fn access_rect(
        &mut self,
        addr: u64,
        stride: u64,
        rows: u64,
        row_bytes: u64,
        kind: AccessKind,
        ops_per_row: u64,
    ) {
        if rows == 0 {
            return;
        }
        // Bulk-charge the architectural counts (additive, so identical
        // to the default per-row charging), then walk the rows through
        // the same span prober `access_range` uses — each row benefits
        // from the MRU short-circuit against its predecessor.
        match kind {
            AccessKind::Load => self.counters.loads += ops_per_row * rows,
            AccessKind::Store => self.counters.stores += ops_per_row * rows,
        }
        self.counters.bytes_accessed += row_bytes.max(1) * rows;
        let write = matches!(kind, AccessKind::Store);
        let mut a = addr;
        for r in 0..rows {
            self.charge_span(a, row_bytes, write);
            if r + 1 < rows {
                a = a.saturating_add(stride);
            }
        }
    }

    fn access_candidates(&mut self, batch: &[SearchCandidate]) {
        if batch.is_empty() {
            return;
        }
        for c in batch {
            let (rows, ref_rows) = (u64::from(c.rows), u64::from(c.ref_rows()));
            let (cw, rw) = (u64::from(c.cur_width), u64::from(c.ref_width));
            self.counters.loads += rows * cw + ref_rows * rw;
            self.counters.bytes_accessed += rows * cw.max(1) + ref_rows * rw.max(1);
        }
        if !self.charge_batch(batch) {
            self.batch.fallbacks += 1;
            for cand in batch {
                cand.for_each_span(|addr, len| self.charge_span(addr, len, false));
            }
        }
    }

    fn prefetch(&mut self, addr: u64) {
        if !self.prefetch_enabled {
            return;
        }
        self.counters.prefetches += 1;
        if self.l1.contains(addr) {
            // The line is already resident: the prefetch becomes a nop and
            // wasted an issue slot (the paper's "prefetch hits L1").
            self.counters.prefetch_l1_hits += 1;
            return;
        }
        // Useful prefetch: bring the line in like a (non-blocking) load.
        // The fill's DRAM/writeback traffic is real, but none of it is a
        // demand miss (the hardware counts prefetch fills separately, and
        // the paper's miss rates are demand rates) — probe_line gates the
        // demand counters on the flag instead of patching them up after
        // the fact.
        self.probe_line(addr, false, false);
    }

    fn add_ops(&mut self, ops: u64) {
        self.counters.compute_ops += ops;
    }

    fn counters(&self) -> &Counters {
        &self.counters
    }
}

impl ParallelModel for Hierarchy {
    fn fork(&self) -> Self {
        let mut child = if self.prefetch_enabled {
            Hierarchy::new(self.machine.clone())
        } else {
            Hierarchy::without_prefetch(self.machine.clone())
        };
        // Share the attribution map (configuration, not state) so
        // slice-local misses can be attributed on merge.
        child.region_spans = self.region_spans.clone();
        child.region_tags = self.region_tags.clone();
        child.region_l1 = vec![0; self.region_tags.len()];
        child.region_l2 = vec![0; self.region_tags.len()];
        child
    }

    fn absorb(&mut self, child: Self) {
        self.counters.merge(&child.counters);
        self.dram.record_read(child.dram.bytes_read());
        self.dram.record_write(child.dram.bytes_written());
        // Region tallies are matched by tag: the parent map may have
        // been re-attached (with new tags) since the fork.
        for (i, tag) in child.region_tags.iter().enumerate() {
            if let Some(j) = self.region_tags.iter().position(|t| t == tag) {
                self.region_l1[j] += child.region_l1[i];
                self.region_l2[j] += child.region_l2[i];
            }
        }
        // The child's cache/TLB contents model a worker core's private
        // hierarchy and are intentionally dropped here.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_machine() -> MachineSpec {
        // Shrink caches so tests exercise evictions cheaply.
        let mut m = MachineSpec::o2();
        m.l1.size_bytes = 1024; // 16 sets × 2 × 32 B
        m.l2.size_bytes = 8 * 1024; // 32 sets × 2 × 128 B
        m
    }

    #[test]
    fn sequential_sweep_misses_once_per_line() {
        let mut h = Hierarchy::new(small_machine());
        for a in (0..4096u64).step_by(8) {
            h.access_range(a, 8, AccessKind::Load, 1);
        }
        let c = h.counters();
        assert_eq!(c.loads, 512);
        assert_eq!(c.l1_misses, 4096 / 32);
        assert_eq!(c.l2_misses, 4096 / 128);
    }

    #[test]
    fn range_access_counts_arch_ops_but_probes_lines() {
        let mut h = Hierarchy::new(small_machine());
        h.access_range(0, 64, AccessKind::Load, 64);
        let c = h.counters();
        assert_eq!(c.loads, 64);
        assert_eq!(c.l1_misses, 2); // two 32 B lines
    }

    #[test]
    fn store_then_evict_generates_writeback_traffic() {
        let mut h = Hierarchy::new(small_machine());
        // Dirty 2 KB (64 lines) — L1 holds 1 KB, so ~32 evictions occur,
        // all dirty.
        for a in (0..2048u64).step_by(32) {
            h.access_range(a, 32, AccessKind::Store, 4);
        }
        // Sweep a disjoint 1 KB region to flush the rest.
        for a in (65536..66560u64).step_by(32) {
            h.access_range(a, 32, AccessKind::Load, 4);
        }
        let c = h.counters();
        assert!(c.l1_writebacks >= 32, "writebacks {}", c.l1_writebacks);
        assert!(c.stores == 256);
    }

    #[test]
    fn l2_captures_l1_capacity_misses() {
        let mut h = Hierarchy::new(small_machine());
        // Working set 4 KB: 4× the tiny L1 but half the tiny L2.
        for _ in 0..10 {
            for a in (0..4096u64).step_by(32) {
                h.access_range(a, 32, AccessKind::Load, 4);
            }
        }
        let c = h.counters();
        assert!(c.l1_misses > 500); // thrashes L1 every pass
        assert_eq!(c.l2_misses, 4096 / 128); // fits in L2: cold misses only
    }

    #[test]
    fn dram_traffic_matches_l2_miss_and_writeback_counts() {
        let mut h = Hierarchy::new(small_machine());
        for a in (0..32768u64).step_by(32) {
            h.access_range(a, 32, AccessKind::Store, 4);
        }
        let c = *h.counters();
        let expected = (c.l2_misses + c.l2_writebacks) * 128;
        assert_eq!(h.dram().bytes_total(), expected);
    }

    #[test]
    fn prefetch_hit_in_l1_is_counted_as_waste() {
        let mut h = Hierarchy::new(small_machine());
        h.access_range(0x100, 8, AccessKind::Load, 1);
        h.prefetch(0x104); // same line: wasted
        h.prefetch(0x2000); // useful
        let c = h.counters();
        assert_eq!(c.prefetches, 2);
        assert_eq!(c.prefetch_l1_hits, 1);
        // The useful prefetch installed the line: demand load now hits.
        let misses_before = c.l1_misses;
        h.access_range(0x2000, 8, AccessKind::Load, 1);
        assert_eq!(h.counters().l1_misses, misses_before);
    }

    #[test]
    fn disabled_prefetch_is_silent() {
        let mut h = Hierarchy::without_prefetch(small_machine());
        h.prefetch(0x100);
        assert_eq!(h.counters().prefetches, 0);
        assert!(!h.prefetch_enabled());
    }

    #[test]
    fn prefetch_does_not_inflate_demand_miss_rate() {
        let mut h = Hierarchy::new(small_machine());
        h.prefetch(0x5000);
        assert_eq!(h.counters().l1_misses, 0);
    }

    /// Pins the prefetch-fill counter semantics: a useful prefetch moves
    /// the line (DRAM traffic) but contributes *no* demand miss at
    /// either level and no region attribution; eviction side effects it
    /// triggers (writebacks) stay charged.
    #[test]
    fn prefetch_fill_charges_traffic_but_no_demand_misses() {
        use crate::space::Region;
        let mut h = Hierarchy::new(small_machine());
        h.attach_regions(&[Region {
            tag: "buf".into(),
            base: 0,
            bytes: 1 << 20,
        }]);
        h.prefetch(0x9000); // cold: fills L1 and L2 from DRAM
        let c = *h.counters();
        assert_eq!(c.prefetches, 1);
        assert_eq!(c.prefetch_l1_hits, 0);
        assert_eq!(c.l1_misses, 0, "fill must not count as demand L1 miss");
        assert_eq!(c.l2_misses, 0, "fill must not count as demand L2 miss");
        assert!(h.dram().bytes_read() > 0, "the fill traffic is real");
        assert!(
            h.region_misses()
                .iter()
                .all(|r| r.l1_misses == 0 && r.l2_misses == 0),
            "fills are not attributed to regions"
        );
        // The demand load that follows hits L1: still no demand misses.
        h.access_range(0x9000, 8, AccessKind::Load, 1);
        assert_eq!(h.counters().l1_misses, 0);
        assert_eq!(h.counters().l2_misses, 0);

        // A prefetch fill that evicts a dirty line still drains it.
        let mut h = Hierarchy::new(small_machine());
        // Dirty every line of the 1 KB L1 (32 lines, 16 sets × 2 ways).
        for a in (0..1024u64).step_by(32) {
            h.access_range(a, 8, AccessKind::Store, 1);
        }
        let wb_before = h.counters().l1_writebacks;
        h.prefetch(0x40000); // set 0: evicts a dirty way
        assert_eq!(h.counters().l1_writebacks, wb_before + 1);
        assert_eq!(h.counters().l1_misses, 32, "only the demand stores missed");
    }

    /// Spans touching the top of the address space must terminate and
    /// charge the same number of lines/pages as anywhere else.
    #[test]
    fn span_at_address_space_top_saturates() {
        let mut h = Hierarchy::new(small_machine());
        h.access_range(u64::MAX - 63, 64, AccessKind::Load, 8);
        let c = h.counters();
        assert_eq!(c.loads, 8);
        assert_eq!(c.l1_misses, 2); // two 32 B lines below the top
        assert_eq!(c.tlb_misses, 1);
        // A span whose end computation would overflow saturates to the
        // last byte instead of wrapping (or panicking). The top line is
        // already resident, so no further miss.
        h.access_range(u64::MAX - 31, 100, AccessKind::Store, 1);
        assert_eq!(h.counters().l1_misses, 2);
    }

    /// The MRU filter must be invisible in the counters: repeat touches,
    /// store-after-store, and eviction churn all agree with the naive
    /// model (the full differential suite lives in tests/fastpath_equiv).
    #[test]
    fn mru_filter_matches_naive_on_hit_miss_eviction_sequences() {
        use crate::naive::NaiveHierarchy;
        let mut fast = Hierarchy::new(small_machine());
        let mut naive = NaiveHierarchy::new(small_machine());
        let run = |f: &mut Hierarchy, n: &mut NaiveHierarchy| {
            let script: &[(u64, u64, AccessKind)] = &[
                (0x100, 8, AccessKind::Load),
                (0x104, 8, AccessKind::Load),   // same line: filtered
                (0x100, 16, AccessKind::Store), // same line, clean: slow path
                (0x108, 8, AccessKind::Store),  // same line, now dirty: filtered
                (0x4100, 8, AccessKind::Load),  // same L1 set (1 KB apart)
                (0x100, 8, AccessKind::Load),
                (0x8100, 8, AccessKind::Store), // evicts within the set
                (0x100, 8, AccessKind::Load),
                (0x11c, 8, AccessKind::Load), // straddles into next line
            ];
            for &(a, l, k) in script {
                f.access_range(a, l, k, 1);
                n.access_range(a, l, k, 1);
            }
        };
        run(&mut fast, &mut naive);
        assert_eq!(fast.counters(), naive.counters());
        assert_eq!(fast.dram().bytes_total(), naive.dram().bytes_total());
    }

    /// Drives `fast` with `batch` through the override and `naive`
    /// through the default expansion, then requires the models to agree
    /// now and after a probe stream that sweeps the batch's sets (so the
    /// LRU order left behind must agree too).
    fn assert_batch_matches_naive(
        fast: &mut Hierarchy,
        naive: &mut crate::naive::NaiveHierarchy,
        batch: &[SearchCandidate],
    ) {
        fast.access_candidates(batch);
        naive.access_candidates(batch);
        assert_eq!(fast.counters(), naive.counters());
        for a in (0x8000..0x8000 + 2048u64).step_by(32) {
            fast.access_range(a, 8, AccessKind::Load, 1);
            naive.access_range(a, 8, AccessKind::Load, 1);
        }
        let mut spans = Vec::new();
        for c in batch {
            c.for_each_span(|a, l| spans.push((a, l)));
        }
        for &(a, l) in spans.iter().rev() {
            fast.access_range(a, l, AccessKind::Store, 1);
            naive.access_range(a, l, AccessKind::Store, 1);
        }
        assert_eq!(fast.counters(), naive.counters());
        assert_eq!(fast.dram().bytes_total(), naive.dram().bytes_total());
        assert_eq!(fast.tlb().lookups(), naive.tlb().lookups());
        assert_eq!(fast.l1().stats(), naive.l1().stats());
    }

    /// Three displaced candidates for one current block: `rows` rows of
    /// 16 bytes at a 64-byte stride.
    fn candidates(cur: u64, reference: u64, rows: u32) -> Vec<SearchCandidate> {
        (0..3u64)
            .map(|dx| SearchCandidate {
                cur,
                reference: reference + dx,
                stride: 64,
                cur_width: 16,
                ref_width: 16,
                rows: rows - dx as u32,
                lead_row: false,
            })
            .collect()
    }

    /// A batch with at most `assoc` lines per set takes the first-touch
    /// reduction and still matches the per-span replay exactly.
    #[test]
    fn conflict_free_candidate_batch_takes_the_fast_path() {
        let mut fast = Hierarchy::new(small_machine());
        let mut naive = crate::naive::NaiveHierarchy::new(small_machine());
        // Warm a dirty line the batch re-reads and one it evicts.
        for m in [&mut fast as &mut dyn MemModel, &mut naive] {
            m.access_range(0x40, 8, AccessKind::Store, 1);
            m.access_range(0x440, 8, AccessKind::Store, 1);
        }
        // Current rows 0x40, 0x80, 0xc0 and reference rows 0x840, 0x880,
        // 0x8c0: two lines per set at most (0x40 and 0x840 share set 2).
        assert_batch_matches_naive(&mut fast, &mut naive, &candidates(0x40, 0x840, 3));
        assert_eq!(fast.load_batch_stats(), (1, 0));
    }

    /// Three lines of one 2-way set in a batch break the precondition:
    /// the batch falls back to the per-span replay.
    #[test]
    fn over_assoc_candidate_batch_falls_back() {
        let mut fast = Hierarchy::new(small_machine());
        let mut naive = crate::naive::NaiveHierarchy::new(small_machine());
        // 0x100, 0x500 and 0x900 all map to L1 set 8.
        let mut batch = candidates(0x100, 0x900, 2);
        for c in &mut batch {
            c.stride = 0x400;
        }
        assert_batch_matches_naive(&mut fast, &mut naive, &batch);
        assert_eq!(fast.load_batch_stats(), (1, 1));
    }

    #[test]
    fn tlb_misses_counted_per_new_page() {
        let mut h = Hierarchy::new(small_machine());
        h.access_range(0, 8, AccessKind::Load, 1);
        h.access_range(16 * 1024, 8, AccessKind::Load, 1);
        h.access_range(8, 8, AccessKind::Load, 1);
        assert_eq!(h.counters().tlb_misses, 2);
    }

    #[test]
    fn exec_seconds_positive_after_work() {
        let mut h = Hierarchy::new(MachineSpec::onyx2());
        h.add_ops(1_000_000);
        h.access_range(0, 4096, AccessKind::Load, 4096);
        assert!(h.exec_seconds() > 0.0);
        let b = h.breakdown();
        assert!(b.total() >= b.base);
    }

    #[test]
    fn fork_starts_cold_with_shared_region_map() {
        use crate::space::Region;
        let mut parent = Hierarchy::new(small_machine());
        parent.attach_regions(&[Region {
            tag: "frame".into(),
            base: 0,
            bytes: 4096,
        }]);
        parent.access_range(0, 1024, AccessKind::Load, 128);
        let child = parent.fork();
        assert_eq!(*child.counters(), Counters::default());
        assert_eq!(child.dram().bytes_total(), 0);
        assert_eq!(child.region_misses()[0].l1_misses, 0);
        assert_eq!(child.machine(), parent.machine());
        assert_eq!(child.prefetch_enabled(), parent.prefetch_enabled());
        let no_pf = Hierarchy::without_prefetch(small_machine());
        assert!(!no_pf.fork().prefetch_enabled());
    }

    #[test]
    fn absorb_merges_counters_dram_and_region_tallies() {
        use crate::space::Region;
        let regions = [Region {
            tag: "frame".into(),
            base: 0,
            bytes: 1 << 20,
        }];
        let mut parent = Hierarchy::new(small_machine());
        parent.attach_regions(&regions);
        parent.access_range(0, 4096, AccessKind::Store, 512);
        let before = parent.snapshot();
        let before_dram = parent.dram().bytes_total();
        let before_region = parent.region_misses();

        let mut child = parent.fork();
        child.access_range(65536, 4096, AccessKind::Load, 512);
        let child_counters = *child.counters();
        let child_dram = child.dram().bytes_total();
        let child_region = child.region_misses();

        parent.absorb(child);
        assert_eq!(*parent.counters(), before.merged_with(&child_counters));
        assert_eq!(parent.dram().bytes_total(), before_dram + child_dram);
        assert_eq!(
            parent.region_misses()[0].l1_misses,
            before_region[0].l1_misses + child_region[0].l1_misses
        );
        // Parent cache state is untouched by the absorb: the tail of
        // its own 4 KB sweep is still resident and hits.
        let misses = parent.counters().l1_misses;
        parent.access_range(4096 - 32, 32, AccessKind::Load, 1);
        assert_eq!(parent.counters().l1_misses, misses);
    }

    #[test]
    fn snapshot_delta_isolates_window() {
        let mut h = Hierarchy::new(small_machine());
        h.access_range(0, 1024, AccessKind::Load, 128);
        let snap = h.snapshot();
        h.access_range(0x10000, 1024, AccessKind::Store, 128);
        let delta = h.counters().delta_since(&snap);
        assert_eq!(delta.loads, 0);
        assert_eq!(delta.stores, 128);
        assert_eq!(delta.l1_misses, 32);
    }
}
