//! Set-associative cache with true-LRU replacement and
//! write-back / write-allocate policy, matching the MIPS R10000/R12000
//! data caches.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `line_bytes × assoc × sets` with
    /// a power-of-two set count.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent or not power-of-two.
    pub fn sets(&self) -> u64 {
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(self.assoc >= 1);
        let sets = self.size_bytes / (self.line_bytes * self.assoc as u64);
        assert!(
            sets.is_power_of_two() && sets * self.line_bytes * self.assoc as u64 == self.size_bytes,
            "inconsistent cache geometry {self:?}"
        );
        sets
    }
}

/// Outcome of a single line probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeResult {
    /// `true` when the line was already present.
    pub hit: bool,
    /// Address of a dirty line that had to be written back to make room
    /// (line-aligned), when the probe missed and evicted a dirty victim.
    pub writeback_of: Option<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic recency stamp; larger = more recently used.
    last_use: u64,
}

/// One level of set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: u64,
    line_shift: u32,
    set_mask: u64,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
    /// MRU memo: `(line number, global way index)` of the line touched by
    /// the most recent [`Cache::probe`]. A repeat probe of the same line
    /// performs the exact hit transition without the set scan — sound
    /// because every probe refreshes the memo, so no intervening probe
    /// can have reallocated the memoized way. Cleared by
    /// [`Cache::reset`] and [`Cache::probe_naive`].
    mru: Option<(u64, usize)>,
}

/// Hit/miss accounting local to a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Probes that found the line present.
    pub hits: u64,
    /// Probes that missed and allocated.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if `config` is not a consistent power-of-two geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Cache {
            config,
            sets,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            lines: vec![Line::default(); (sets as usize) * config.assoc],
            tick: 0,
            stats: CacheStats::default(),
            mru: None,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Probes (and on miss, allocates) the line containing `addr`.
    /// `write` marks the line dirty on hit or after allocation.
    pub fn probe(&mut self, addr: u64, write: bool) -> ProbeResult {
        let line_no = addr >> self.line_shift;
        if let Some((mru_no, slot)) = self.mru {
            if mru_no == line_no {
                // Exact hit transition with the set scan short-circuited:
                // the memoized way still holds this line (see `mru` docs),
                // and the transition below is byte-for-byte the slow hit
                // path's.
                self.tick += 1;
                let way = &mut self.lines[slot];
                way.last_use = self.tick;
                way.dirty |= write;
                self.stats.hits += 1;
                return ProbeResult {
                    hit: true,
                    writeback_of: None,
                };
            }
        }
        self.probe_scan(line_no, write, true)
    }

    /// The reference probe path: no MRU memoization is consulted or
    /// created, only the plain set scan. State transitions are identical
    /// to [`Cache::probe`]; the naive model uses this so the differential
    /// suite exercises the memoized path against it.
    pub fn probe_naive(&mut self, addr: u64, write: bool) -> ProbeResult {
        self.mru = None;
        self.probe_scan(addr >> self.line_shift, write, false)
    }

    /// Full set scan + LRU replacement, optionally refreshing the memo.
    fn probe_scan(&mut self, line_no: u64, write: bool, memoize: bool) -> ProbeResult {
        self.tick += 1;
        let set = (line_no & self.set_mask) as usize;
        let tag = line_no >> self.sets.trailing_zeros();
        let base = set * self.config.assoc;
        let ways = &mut self.lines[base..base + self.config.assoc];

        // Hit path.
        if let Some(i) = ways.iter().position(|w| w.valid && w.tag == tag) {
            let way = &mut ways[i];
            way.last_use = self.tick;
            way.dirty |= write;
            self.stats.hits += 1;
            if memoize {
                self.mru = Some((line_no, base + i));
            }
            return ProbeResult {
                hit: true,
                writeback_of: None,
            };
        }

        // Miss: pick an invalid way, else the LRU way.
        self.stats.misses += 1;
        let victim_idx = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.last_use + 1 } else { 0 })
            .map(|(i, _)| i)
            .expect("assoc >= 1");
        let victim = &mut ways[victim_idx];
        let mut writeback_of = None;
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            let victim_line = (victim.tag << self.sets.trailing_zeros()) | set as u64;
            writeback_of = Some(victim_line << self.line_shift);
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            last_use: self.tick,
        };
        if memoize {
            self.mru = Some((line_no, base + victim_idx));
        }
        ProbeResult {
            hit: false,
            writeback_of,
        }
    }

    /// Accounts `n` hits that the owning hierarchy resolved without
    /// probing: repeat touches its MRU filter skipped (the line is
    /// already the most recently used in its set, so skipping the
    /// recency restamp is the identity transition) or the non-first
    /// touches of a load batch. Only the hit statistic advances.
    pub(crate) fn filtered_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// Makes the resident line containing `addr` the most recently used
    /// in its set, without counting a probe: the recency half of a hit.
    /// Load batches replay their last touches through this.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub(crate) fn restamp(&mut self, addr: u64) {
        let line_no = addr >> self.line_shift;
        let set = (line_no & self.set_mask) as usize;
        let tag = line_no >> self.sets.trailing_zeros();
        let base = set * self.config.assoc;
        let i = self.lines[base..base + self.config.assoc]
            .iter()
            .position(|w| w.valid && w.tag == tag)
            .expect("restamped line must be resident");
        self.tick += 1;
        self.lines[base + i].last_use = self.tick;
        self.mru = Some((line_no, base + i));
    }

    /// `true` if the line containing `addr` is currently resident
    /// (does not update recency or statistics).
    pub fn contains(&self, addr: u64) -> bool {
        let line_no = addr >> self.line_shift;
        let set = (line_no & self.set_mask) as usize;
        let tag = line_no >> self.sets.trailing_zeros();
        let base = set * self.config.assoc;
        self.lines[base..base + self.config.assoc]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Invalidates everything and zeroes statistics.
    pub fn reset(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
        self.tick = 0;
        self.stats = CacheStats::default();
        self.mru = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 32 B = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            assoc: 2,
        })
    }

    #[test]
    fn geometry_validation() {
        assert_eq!(
            CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 32,
                assoc: 2
            }
            .sets(),
            512
        );
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn non_power_of_two_sets_panics() {
        CacheConfig {
            size_bytes: 96,
            line_bytes: 32,
            assoc: 1,
        }
        .sets();
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.probe(0x40, false).hit);
        assert!(c.probe(0x40, false).hit);
        assert!(c.probe(0x5f, false).hit); // same 32 B line
        assert!(!c.probe(0x60, false).hit); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines whose line_no % 4 == 0: addresses 0, 128, 256…
        c.probe(0, false); // way A
        c.probe(128, false); // way B
        c.probe(0, false); // touch A → B is LRU
        c.probe(256, false); // evicts B (128)
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.probe(0, true); // dirty
        c.probe(128, false);
        c.probe(256, false); // evicts line 0 (LRU, dirty)
                             // line 0 was LRU after 128 and 256 probes? order: 0(t1),128(t2),256→evict 0.
        assert!(!c.contains(0));
        let mut c2 = tiny();
        c2.probe(0, true);
        c2.probe(128, false);
        let r = c2.probe(256, false);
        assert_eq!(r.writeback_of, Some(0));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.probe(0, false);
        c.probe(128, false);
        let r = c.probe(256, false);
        assert!(!r.hit);
        assert_eq!(r.writeback_of, None);
    }

    #[test]
    fn write_hit_marks_dirty_for_later_eviction() {
        let mut c = tiny();
        c.probe(0, false); // clean load
        c.probe(0, true); // store hit → dirty
        c.probe(128, false);
        c.probe(256, false); // evict 0
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        for addr in (0..1024u64).step_by(32) {
            c.probe(addr, false);
        }
        let s = c.stats();
        assert_eq!(s.misses, 32);
        assert_eq!(s.hits, 0);
        // 256 B cache can hold 8 lines of the 32 touched.
        let resident = (0..1024u64).step_by(32).filter(|&a| c.contains(a)).count();
        assert_eq!(resident, 8);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = tiny();
        c.probe(0, true);
        c.reset();
        assert!(!c.contains(0));
        assert_eq!(c.stats(), CacheStats::default());
    }

    /// Random probe streams must be indistinguishable between the
    /// memoized and naive probe paths — same results, same stats, same
    /// future behaviour (checked by interleaving a verification stream).
    #[test]
    fn memoized_probe_matches_naive_probe() {
        let mut fast = tiny();
        let mut naive = tiny();
        // A stream with heavy same-line repeats (the memoized case) plus
        // conflict-miss churn within set 0.
        let stream: Vec<(u64, bool)> = (0..2000u64)
            .map(|i| {
                let addr = match i % 7 {
                    0..=3 => 0x40,        // repeat line
                    4 => 128 * (i % 5),   // set-0 conflicts
                    5 => 32 * (i % 11),   // sweep
                    _ => 0x40 + (i % 32), // same line, different byte
                };
                (addr, i % 3 == 0)
            })
            .collect();
        for &(addr, write) in &stream {
            assert_eq!(fast.probe(addr, write), naive.probe_naive(addr, write));
        }
        assert_eq!(fast.stats(), naive.stats());
        for a in (0..2048u64).step_by(32) {
            assert_eq!(fast.contains(a), naive.contains(a), "line {a:#x}");
        }
    }

    #[test]
    fn repeat_probe_uses_memo_with_exact_transition() {
        let mut c = tiny();
        c.probe(0x40, false);
        // Second touch of the same line: hit via the memo.
        assert!(c.probe(0x47, true).hit);
        assert_eq!(c.stats().hits, 1);
        // The memoized write must have dirtied the line: fill the 2-way
        // set (lines 0x40, 0xc0) and evict 0x40, expecting a writeback.
        c.probe(0xc0, false);
        let r = c.probe(0x140, false);
        assert_eq!(r.writeback_of, Some(0x40));
    }

    #[test]
    fn working_set_within_capacity_has_no_capacity_misses() {
        // 8 lines fit exactly; loop over them repeatedly → misses only on
        // first touch. Addresses chosen to spread over all 4 sets.
        let mut c = tiny();
        let addrs: Vec<u64> = (0..8u64).map(|i| i * 32).collect();
        for _ in 0..100 {
            for &a in &addrs {
                c.probe(a, false);
            }
        }
        assert_eq!(c.stats().misses, 8);
        assert_eq!(c.stats().hits, 8 * 100 - 8);
    }
}
