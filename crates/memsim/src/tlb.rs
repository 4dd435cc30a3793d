//! Data-TLB model.
//!
//! The R10000/R12000 have a 64-entry fully-associative unified TLB with
//! (under IRIX 6.5) 16 KB base pages. The paper reports TLB misses as
//! negligible for MPEG-4; we simulate the TLB so that claim is *checked*
//! rather than assumed.

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl Default for TlbConfig {
    fn default() -> Self {
        // R10K/R12K: 64 entries; IRIX 6.5 default page 16 KB.
        TlbConfig {
            entries: 64,
            page_bytes: 16 * 1024,
        }
    }
}

/// Fully-associative LRU TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    page_shift: u32,
    /// (virtual page number, recency stamp) per entry; invalid = None.
    entries: Vec<Option<(u64, u64)>>,
    tick: u64,
    misses: u64,
    lookups: u64,
    /// Indices of recently resolved entries, checked before the linear
    /// scan. A slot is only trusted after verifying its VPN — VPNs are
    /// unique in the table, so a match is authoritative and the memo
    /// needs no invalidation. `usize::MAX` marks an empty memo slot.
    mru: [usize; 2],
}

impl Tlb {
    /// Builds an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the page size is not a power of two or `entries` is zero.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.page_bytes.is_power_of_two());
        assert!(config.entries >= 1);
        Tlb {
            config,
            page_shift: config.page_bytes.trailing_zeros(),
            entries: vec![None; config.entries],
            tick: 0,
            misses: 0,
            lookups: 0,
            mru: [usize::MAX; 2],
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Looks up the page containing `addr`; returns `true` on hit and
    /// installs the translation on miss (LRU replacement).
    pub fn lookup(&mut self, addr: u64) -> bool {
        let vpn = addr >> self.page_shift;
        for (m, &slot) in self.mru.iter().enumerate() {
            let Some(Some((page, _))) = self.entries.get(slot) else {
                continue;
            };
            if *page == vpn {
                // Exact hit transition without the 64-entry scan.
                self.tick += 1;
                self.lookups += 1;
                self.entries[slot] = Some((vpn, self.tick));
                if m != 0 {
                    self.mru.swap(0, m);
                }
                return true;
            }
        }
        self.scan(vpn, true)
    }

    /// The reference lookup path: always the full linear scan, no memo
    /// consulted or created. Transitions are identical to
    /// [`Tlb::lookup`]; the naive model uses this as the differential
    /// baseline.
    pub fn lookup_naive(&mut self, addr: u64) -> bool {
        self.scan(addr >> self.page_shift, false)
    }

    /// Linear scan + LRU install, optionally remembering the resolved
    /// slot for the next lookup.
    fn scan(&mut self, vpn: u64, memoize: bool) -> bool {
        self.tick += 1;
        self.lookups += 1;
        let mut found = None;
        for (i, e) in self.entries.iter_mut().enumerate() {
            if let Some((page, stamp)) = e {
                if *page == vpn {
                    *stamp = self.tick;
                    found = Some(i);
                    break;
                }
            }
        }
        let slot = match found {
            Some(i) => i,
            None => {
                self.misses += 1;
                let (victim_idx, victim) = self
                    .entries
                    .iter_mut()
                    .enumerate()
                    .min_by_key(|(_, e)| e.map_or(0, |(_, stamp)| stamp + 1))
                    .expect("entries >= 1");
                *victim = Some((vpn, self.tick));
                victim_idx
            }
        };
        if memoize {
            self.mru = [slot, self.mru[0]];
        }
        found.is_some()
    }

    /// Accounts `n` lookups the owning hierarchy resolved without
    /// scanning: repeat touches its MRU filter skipped (the page is
    /// already the most recently used entry, so skipping the recency
    /// restamp is the identity transition) or the non-first touches of a
    /// load batch. Only the lookup tally advances.
    pub(crate) fn filtered_hits(&mut self, n: u64) {
        self.lookups += n;
    }

    /// Makes the resident page containing `addr` the most recently used
    /// entry, without counting a lookup. Load batches replay their last
    /// touches through this.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub(crate) fn restamp(&mut self, addr: u64) {
        let vpn = addr >> self.page_shift;
        self.tick += 1;
        let stamp = self
            .entries
            .iter_mut()
            .flatten()
            .find(|(page, _)| *page == vpn)
            .map(|(_, stamp)| stamp)
            .expect("restamped page must be resident");
        *stamp = self.tick;
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total misses taken.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits_after_first_touch() {
        let mut t = Tlb::new(TlbConfig::default());
        assert!(!t.lookup(0x4000));
        assert!(t.lookup(0x4abc));
        assert!(t.lookup(0x7fff)); // still page 1 of 16 KB
        assert!(!t.lookup(0x8000)); // next page
        assert_eq!(t.misses(), 2);
        assert_eq!(t.lookups(), 4);
    }

    #[test]
    fn lru_replacement_at_capacity() {
        let cfg = TlbConfig {
            entries: 4,
            page_bytes: 4096,
        };
        let mut t = Tlb::new(cfg);
        for p in 0..4u64 {
            t.lookup(p * 4096);
        }
        t.lookup(0); // refresh page 0 → page 1 is LRU
        t.lookup(4 * 4096); // evicts page 1
        assert!(t.lookup(0)); // page 0 still resident
        assert!(!t.lookup(4096)); // page 1 was evicted
    }

    /// The memoized lookup must agree with the naive linear scan on
    /// results, miss/lookup tallies, and all future replacement
    /// behaviour, including the alternating-page pattern the memo is
    /// built for and eviction churn past capacity.
    #[test]
    fn memoized_lookup_matches_naive_lookup() {
        let cfg = TlbConfig {
            entries: 4,
            page_bytes: 4096,
        };
        let mut fast = Tlb::new(cfg);
        let mut naive = Tlb::new(cfg);
        let addrs: Vec<u64> = (0..3000u64)
            .map(|i| match i % 11 {
                0..=2 => 0x0,        // repeat page
                3..=5 => 0x1000,     // alternate page
                6 => 4096 * (i % 7), // churn past capacity
                7 => 0x2000,
                _ => 4096 * (i % 3),
            })
            .collect();
        for &a in &addrs {
            assert_eq!(fast.lookup(a), naive.lookup_naive(a), "addr {a:#x}");
        }
        assert_eq!(fast.misses(), naive.misses());
        assert_eq!(fast.lookups(), naive.lookups());
    }

    #[test]
    fn working_set_within_entries_never_misses_again() {
        let cfg = TlbConfig {
            entries: 8,
            page_bytes: 4096,
        };
        let mut t = Tlb::new(cfg);
        for _ in 0..10 {
            for p in 0..8u64 {
                t.lookup(p * 4096 + 123);
            }
        }
        assert_eq!(t.misses(), 8);
    }
}
