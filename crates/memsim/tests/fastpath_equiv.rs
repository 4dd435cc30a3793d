//! Differential property suite: the fast-path [`Hierarchy`] (MRU line
//! filter, cache-way memo, TLB-slot memo, optimized `access_rect`,
//! first-touch `access_candidates` batches) against the un-memoized
//! [`NaiveHierarchy`] reference.
//!
//! Every test drives both models with an identical reference stream and
//! requires *every* [`Counters`] field, the DRAM read/write traffic,
//! and the per-region miss attribution to be bit-identical. The streams
//! are chosen to hammer the fast paths where they could diverge:
//! same-line repeats, store-after-load dirtiness, set-conflict
//! evictions, page alternation, prefetch interleaving, rectangular
//! charging, and motion-search candidate batches on both sides of the
//! batch precondition.

use m4ps_memsim::{
    AccessKind, Counters, Hierarchy, MachineSpec, MemModel, NaiveHierarchy, ParallelModel, Region,
    SearchCandidate,
};
use m4ps_testkit::prop::{check, Config};
use m4ps_testkit::prop_assert_eq;
use m4ps_testkit::rng::Rng;
use std::cell::Cell;

/// One operation of a generated reference stream.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Range(u64, u64, AccessKind, u64),
    Rect(u64, u64, u64, u64, AccessKind, u64),
    Prefetch(u64),
    PrefetchPair(u64),
    Ops(u64),
    Candidates(Vec<SearchCandidate>),
}

fn apply<M: MemModel>(m: &mut M, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Range(a, l, k, n) => m.access_range(a, l, k, n),
            Op::Rect(a, s, r, w, k, n) => m.access_rect(a, s, r, w, k, n),
            Op::Prefetch(a) => m.prefetch(a),
            Op::PrefetchPair(a) => m.prefetch_pair(a),
            Op::Ops(n) => m.add_ops(n),
            Op::Candidates(ref batch) => m.access_candidates(batch),
        }
    }
}

/// A tiny machine so short streams still cause conflict and capacity
/// evictions at both levels and in the TLB.
fn small_machine() -> MachineSpec {
    let mut m = MachineSpec::o2();
    m.l1.size_bytes = 1024; // 16 sets × 2 × 32 B
    m.l2.size_bytes = 8 * 1024; // 32 sets × 2 × 128 B
    m.tlb.entries = 4;
    m
}

/// Generates a stream biased toward the patterns the fast paths
/// memoize: runs of touches inside one line/page, interleaved with
/// conflicting lines, page churn, stores, rects and prefetches.
fn gen_stream(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    // A handful of hot lines; several alias to the same L1 set.
    let bases: Vec<u64> = (0..8)
        .map(|i| 0x1000 * u64::from(rng.gen_range(0u32..64)) + 0x200 * i)
        .collect();
    let n = rng.gen_range(20u32..120);
    for _ in 0..n {
        let kind = if rng.gen_bool() {
            AccessKind::Load
        } else {
            AccessKind::Store
        };
        let base = *rng.choose(&bases);
        match rng.gen_range(0u32..10) {
            // Repeat touches within one line (the MRU fast path).
            0..=3 => {
                let line = base & !31;
                for _ in 0..rng.gen_range(1u32..6) {
                    let off = u64::from(rng.gen_range(0u32..30));
                    let len = u64::from(rng.gen_range(0u32..3)).min(31 - off);
                    ops.push(Op::Range(line + off, len.max(1), kind, 1));
                }
            }
            // Row runs like SimBuf::load_run.
            4..=5 => {
                let len = u64::from(rng.gen_range(1u32..48));
                ops.push(Op::Range(base, len, kind, len));
            }
            // Rectangular block charges with varied geometry.
            6..=7 => {
                let rows = u64::from(rng.gen_range(1u32..18));
                let w = u64::from(rng.gen_range(1u32..20));
                let stride = u64::from(rng.gen_range(16u32..800));
                ops.push(Op::Rect(base, stride, rows, w, kind, w));
            }
            8 => {
                if rng.gen_bool() {
                    ops.push(Op::Prefetch(base));
                } else {
                    ops.push(Op::PrefetchPair(base));
                }
            }
            _ => ops.push(Op::Ops(u64::from(rng.next_u32() & 0xfff))),
        }
    }
    ops
}

/// Generates a search-shaped candidate batch: one or two current blocks
/// (at random origins), each compared against a run of candidates
/// displaced around a random reference origin, with visited rows
/// 1..=16, widths 8/9/16/17 and the half-pel leading-row flag. Compact
/// strides keep within the batch precondition on the small machine;
/// strides that fold rows onto one set, and origins spread over more
/// pages than the TLB holds, break it.
fn gen_batch(rng: &mut Rng) -> Vec<SearchCandidate> {
    let origin = |rng: &mut Rng| {
        0x1000 * u64::from(rng.gen_range(0u32..64)) + u64::from(rng.gen_range(0u32..32))
    };
    let stride = *rng.choose(&[32u64, 64, 208, 512, 752, 1024, 0x4000]);
    let mut batch = Vec::new();
    for _ in 0..rng.gen_range(1u32..3) {
        let (cur, reference) = (origin(rng), origin(rng));
        let size = *rng.choose(&[8u32, 16]);
        for _ in 0..rng.gen_range(1u32..8) {
            let (dx, dy) = (
                u64::from(rng.gen_range(0u32..5)),
                u64::from(rng.gen_range(0u32..5)),
            );
            batch.push(SearchCandidate {
                cur,
                reference: reference + dy * stride + dx,
                stride,
                cur_width: size,
                ref_width: size + rng.gen_range(0u32..2),
                rows: rng.gen_range(1u32..=16),
                lead_row: rng.gen_bool(),
            });
        }
    }
    batch
}

/// Generates a batch shaped like one whole motion search, the pattern
/// that run-length stamping of consecutive candidates would exploit:
/// one current block, one reference origin, one width and one
/// leading-row flag for the batch, and visited rows 1..=16 per
/// candidate, mostly short as SAD cutoffs leave them. Three in four
/// batches sweep (dy, dx) over ±r in raster order, r in 1..=8; the rest
/// follow a diamond search, stepping to negative offsets and back.
/// Strides are plane widths: 752 ≡ 16 (mod 32) shifts every other row
/// by half a line, 1024 folds rows onto few sets.
fn gen_search_batch(rng: &mut Rng) -> Vec<SearchCandidate> {
    let stride = *rng.choose(&[752u64, 736, 208, 1024]);
    let cur = 0x1000 * u64::from(rng.gen_range(0u32..32)) + u64::from(rng.gen_range(0u32..32));
    // Room for ±8 displacements on both axes.
    let center = 128 * 1024
        + 0x1000 * u64::from(rng.gen_range(0u32..16))
        + 8 * stride
        + 8
        + u64::from(rng.gen_range(0u32..32));
    let size = *rng.choose(&[8u32, 16]);
    let ref_width = size + rng.gen_range(0u32..2);
    let lead_row = rng.gen_bool();
    let offsets: Vec<(i64, i64)> = if rng.gen_range(0u32..4) == 0 {
        const LARGE: [(i64, i64); 8] = [
            (0, -2),
            (-1, -1),
            (1, -1),
            (-2, 0),
            (2, 0),
            (-1, 1),
            (1, 1),
            (0, 2),
        ];
        const SMALL: [(i64, i64); 4] = [(0, -1), (-1, 0), (1, 0), (0, 1)];
        let mut c = (0i64, 0i64);
        let mut out = vec![c];
        for _ in 0..rng.gen_range(1u32..=4) {
            out.extend(LARGE.iter().map(|&(dx, dy)| (c.0 + dx, c.1 + dy)));
            let (dx, dy) = *rng.choose(&LARGE);
            c = ((c.0 + dx).clamp(-6, 6), (c.1 + dy).clamp(-6, 6));
        }
        out.extend(SMALL.iter().map(|&(dx, dy)| (c.0 + dx, c.1 + dy)));
        out
    } else {
        let r = i64::from(rng.gen_range(1u32..=8));
        (-r..=r)
            .flat_map(|dy| (-r..=r).map(move |dx| (dx, dy)))
            .collect()
    };
    offsets
        .into_iter()
        .map(|(dx, dy)| SearchCandidate {
            cur,
            reference: center.wrapping_add_signed(dy * stride as i64 + dx),
            stride,
            cur_width: size,
            ref_width,
            rows: if rng.gen_range(0u32..4) == 0 {
                rng.gen_range(1u32..=16)
            } else {
                rng.gen_range(1u32..=3)
            },
            lead_row,
        })
        .collect()
}

/// The load spans `batch` expands to, in charge order.
fn spans_of(batch: &[SearchCandidate]) -> Vec<(u64, u64)> {
    let mut spans = Vec::new();
    for c in batch {
        c.for_each_span(|a, l| spans.push((a, l)));
    }
    spans
}

/// A stream of candidate batches, each followed by a verification
/// stream: loads of fresh pages (evicting the least recently used TLB
/// entries), then the batch's spans re-touched in reverse as stores,
/// interleaved with loads that conflict with them in the L1 and L2.
/// What those miss, evict and write back depends on the recency order
/// and residency the batch left behind in all three structures.
fn gen_batch_stream(rng: &mut Rng) -> Vec<Op> {
    batch_stream(rng, gen_batch)
}

/// [`gen_batch_stream`] with the batches drawn by `gen`.
fn batch_stream(rng: &mut Rng, gen: fn(&mut Rng) -> Vec<SearchCandidate>) -> Vec<Op> {
    let mut ops = gen_stream(rng);
    for _ in 0..rng.gen_range(1u32..5) {
        let batch = gen(rng);
        let fresh_pages = u64::from(rng.gen_range(0u32..4));
        let mut verify: Vec<Op> = (0..fresh_pages)
            .map(|p| Op::Range(0x100_0000 + p * 0x4000, 8, AccessKind::Load, 1))
            .collect();
        verify.extend(
            spans_of(&batch)
                .iter()
                .rev()
                .step_by(3)
                .flat_map(|&(a, l)| {
                    [
                        Op::Range(a, l, AccessKind::Store, 1),
                        Op::Range(a + 1024, 8, AccessKind::Load, 1),
                        Op::Range(a + 8192, 8, AccessKind::Load, 1),
                    ]
                }),
        );
        ops.push(Op::Candidates(batch));
        ops.extend(verify);
        ops.extend(gen_stream(rng).into_iter().take(10));
    }
    ops
}

/// Asserts full observable equality between the two models.
#[track_caller]
fn assert_models_equal(fast: &Hierarchy, naive: &NaiveHierarchy) {
    assert_eq!(fast.counters(), naive.counters(), "Counters diverged");
    assert_eq!(
        fast.tlb().lookups(),
        naive.tlb().lookups(),
        "TLB lookups diverged"
    );
    assert_eq!(fast.l1().stats(), naive.l1().stats(), "L1 stats diverged");
    assert_eq!(
        fast.dram().bytes_read(),
        naive.dram().bytes_read(),
        "DRAM reads diverged"
    );
    assert_eq!(
        fast.dram().bytes_written(),
        naive.dram().bytes_written(),
        "DRAM writes diverged"
    );
    assert_eq!(
        fast.region_misses(),
        naive.region_misses(),
        "region attribution diverged"
    );
}

#[test]
fn random_streams_are_counter_identical() {
    check(
        "fastpath/random_streams",
        &Config::default(),
        gen_stream,
        |ops| {
            for machine in [small_machine(), MachineSpec::o2()] {
                let mut fast = Hierarchy::new(machine.clone());
                let mut naive = NaiveHierarchy::new(machine);
                apply(&mut fast, ops);
                apply(&mut naive, ops);
                prop_assert_eq!(fast.counters(), naive.counters());
                prop_assert_eq!(fast.dram().bytes_total(), naive.dram().bytes_total());
            }
            Ok(())
        },
    );
}

#[test]
fn random_streams_with_regions_and_prefetch_disabled() {
    let regions = [
        Region {
            tag: "frame".into(),
            base: 0,
            bytes: 64 * 1024,
        },
        Region {
            tag: "ref".into(),
            base: 64 * 1024,
            bytes: 64 * 1024,
        },
    ];
    check(
        "fastpath/random_streams_regions",
        &Config::default(),
        gen_stream,
        |ops| {
            let mut fast = Hierarchy::without_prefetch(small_machine());
            let mut naive = NaiveHierarchy::without_prefetch(small_machine());
            fast.attach_regions(&regions);
            naive.attach_regions(&regions);
            apply(&mut fast, ops);
            apply(&mut naive, ops);
            prop_assert_eq!(fast.counters(), naive.counters());
            prop_assert_eq!(fast.region_misses(), naive.region_misses());
            Ok(())
        },
    );
}

/// Adversarial hand-written sequences aimed at each fast-path guard.
#[test]
fn pinned_adversarial_sequences() {
    let scripts: Vec<Vec<Op>> = vec![
        // Store to a clean MRU line must not lose the dirty transition.
        vec![
            Op::Range(0x100, 8, AccessKind::Load, 1),
            Op::Range(0x100, 8, AccessKind::Store, 1),
            Op::Range(0x100, 8, AccessKind::Store, 1),
            // Evict it through its set and observe the writeback.
            Op::Range(0x100 + 1024, 8, AccessKind::Load, 1),
            Op::Range(0x100 + 2048, 8, AccessKind::Load, 1),
            Op::Range(0x100 + 3072, 8, AccessKind::Load, 1),
        ],
        // Prefetch swings the hierarchy MRU line without a TLB walk;
        // the following access must still resolve its own page.
        vec![
            Op::Range(0x100, 8, AccessKind::Load, 1),
            Op::Prefetch(0x20_0000),
            Op::Range(0x20_0000, 8, AccessKind::Load, 1),
            Op::Range(0x20_0008, 8, AccessKind::Load, 1),
        ],
        // Line-straddling spans never take the fast path.
        vec![
            Op::Range(0x11e, 8, AccessKind::Load, 1),
            Op::Range(0x11e, 8, AccessKind::Load, 1),
            Op::Range(0x11f, 1, AccessKind::Store, 1),
        ],
        // Page-straddling rect rows (stride pushes rows across pages).
        vec![Op::Rect(0x3f00, 0x1000, 8, 64, AccessKind::Store, 64)],
        // Zero-length and zero-row degenerate shapes.
        vec![
            Op::Range(0x40, 0, AccessKind::Load, 0),
            Op::Rect(0x40, 32, 0, 16, AccessKind::Load, 16),
            Op::Rect(0x40, 0, 4, 16, AccessKind::Store, 16),
        ],
        // Alternating pages (the two-slot TLB memo pattern) plus a
        // third page to force memo misses.
        (0..40)
            .map(|i| {
                let page = [0u64, 0x4000, 0x8000][i % 3];
                Op::Range(page + (i as u64 % 13) * 8, 8, AccessKind::Load, 1)
            })
            .collect(),
    ];
    for (i, script) in scripts.iter().enumerate() {
        let mut fast = Hierarchy::new(small_machine());
        let mut naive = NaiveHierarchy::new(small_machine());
        apply(&mut fast, script);
        apply(&mut naive, script);
        assert_models_equal(&fast, &naive);
        assert_ne!(
            *fast.counters(),
            Counters::default(),
            "script {i} was empty"
        );
    }
}

/// fork/absorb (the slice-parallel merge path) must agree field by
/// field, including when children run disjoint streams.
#[test]
fn fork_absorb_is_counter_identical() {
    let mut rng = Rng::new(0x5eed_fa57);
    let parent_ops = gen_stream(&mut rng);
    let child_a = gen_stream(&mut rng);
    let child_b = gen_stream(&mut rng);

    let regions = [Region {
        tag: "frame".into(),
        base: 0,
        bytes: 1 << 20,
    }];
    let mut fast = Hierarchy::new(small_machine());
    let mut naive = NaiveHierarchy::new(small_machine());
    fast.attach_regions(&regions);
    naive.attach_regions(&regions);
    apply(&mut fast, &parent_ops);
    apply(&mut naive, &parent_ops);

    let (mut fa, mut fb) = (fast.fork(), fast.fork());
    let (mut na, mut nb) = (naive.fork(), naive.fork());
    apply(&mut fa, &child_a);
    apply(&mut na, &child_a);
    apply(&mut fb, &child_b);
    apply(&mut nb, &child_b);
    fast.absorb(fa);
    naive.absorb(na);
    fast.absorb(fb);
    naive.absorb(nb);
    assert_models_equal(&fast, &naive);
}

/// The optimized `access_rect` must equal issuing its defining per-row
/// `access_range` loop on the *same* model (not just the naive one).
#[test]
fn access_rect_equals_row_loop_on_fast_model() {
    check(
        "fastpath/rect_equals_rows",
        &Config::default(),
        |rng: &mut Rng| {
            let addr = u64::from(rng.next_u32() & 0xf_ffff);
            let stride = u64::from(rng.gen_range(1u32..2048));
            let rows = u64::from(rng.gen_range(1u32..20));
            let w = u64::from(rng.gen_range(1u32..64));
            let kind = if rng.gen_bool() {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            (addr, stride, rows, w, kind)
        },
        |&(addr, stride, rows, w, kind)| {
            let mut by_rect = Hierarchy::new(small_machine());
            let mut by_rows = Hierarchy::new(small_machine());
            by_rect.access_rect(addr, stride, rows, w, kind, w);
            let mut a = addr;
            for r in 0..rows {
                by_rows.access_range(a, w, kind, w);
                if r + 1 < rows {
                    a = a.saturating_add(stride);
                }
            }
            prop_assert_eq!(by_rect.counters(), by_rows.counters());
            Ok(())
        },
    );
}

/// One candidate with `rows` 16-byte rows and no leading row.
fn cand(cur: u64, reference: u64, stride: u64, rows: u32) -> SearchCandidate {
    SearchCandidate {
        cur,
        reference,
        stride,
        cur_width: 16,
        ref_width: 16,
        rows,
        lead_row: false,
    }
}

/// Hand-written candidate batches aimed at each part of the reduction,
/// each with the path it must take (`true` = first-touch reduction,
/// `false` = per-span fallback). The batch is followed by stores back
/// over its spans and conflicting loads, so the recency it leaves
/// behind is observed too.
#[test]
fn pinned_candidate_batches() {
    let scripts: Vec<(&str, Vec<SearchCandidate>, bool)> = vec![
        (
            // Rows straddling two lines in both planes.
            "line straddle",
            vec![SearchCandidate {
                ref_width: 17,
                ..cand(0x11e, 0x83c, 64, 2)
            }],
            true,
        ),
        (
            // A current row straddling pages 0/1 and reference rows on
            // pages 1 and 2: three pages, under the 4-entry TLB.
            "page crossing",
            vec![
                cand(0x3ff8, 0x7fe8, 64, 3),
                SearchCandidate {
                    ref_width: 17,
                    ..cand(0x3ff8, 0x7fe9, 64, 2)
                },
            ],
            true,
        ),
        (
            // Vertical half-pel: each candidate reads one leading
            // reference row ahead of its first current row.
            "half-pel leading row",
            (0..3u64)
                .map(|i| SearchCandidate {
                    ref_width: 16 + (i % 2) as u32,
                    lead_row: i != 1,
                    ..cand(0x1000, 0x2040 + i * 32, 64, 4 - i as u32)
                })
                .collect(),
            true,
        ),
        (
            // An advanced-prediction refinement: 25 displacements of an
            // 8×8 block, rows cut off at varying depths.
            "8x8 refine",
            (0..25u64)
                .map(|i| SearchCandidate {
                    cur_width: 8,
                    ref_width: 8,
                    rows: 8 - (i * 3 % 8) as u32,
                    ..cand(0x2000, 0x6000 + (i / 5) * 32 + i % 5, 32, 0)
                })
                .collect(),
            true,
        ),
        (
            // 0x100, 0x500 and 0x900 share L1 set 8: three lines in a
            // 2-way set.
            "over assoc",
            vec![cand(0x100, 0x900, 0x400, 2), cand(0x100, 0x901, 0x400, 1)],
            false,
        ),
        (
            // Four pages, no set holding more than one line: as many
            // pages as the TLB has entries.
            "TLB overflow",
            vec![cand(0x40, 0x8080, 0x4020, 2)],
            false,
        ),
        (
            // Candidates for three runs over two current blocks (and a
            // leading row in the middle run): the current rows are
            // charged per run, in run order.
            "mixed current blocks",
            vec![
                cand(0x1000, 0x3000, 64, 3),
                cand(0x1000, 0x3001, 64, 1),
                SearchCandidate {
                    lead_row: true,
                    ..cand(0x1220, 0x3002, 64, 2)
                },
                cand(0x1220, 0x3003, 64, 4),
                cand(0x1000, 0x3004, 64, 2),
            ],
            true,
        ),
        (
            // Degenerate shapes: a candidate that visited no rows and a
            // zero-width current row (it still touches one line).
            "degenerate",
            vec![
                cand(0x400, 0x800, 64, 0),
                SearchCandidate {
                    cur_width: 0,
                    ..cand(0x400, 0x800, 64, 2)
                },
            ],
            true,
        ),
    ];
    let regions = [Region {
        tag: "plane".into(),
        base: 0,
        bytes: 64 * 1024,
    }];
    for (name, batch, fast_path) in &scripts {
        let mut fast = Hierarchy::new(small_machine());
        let mut naive = NaiveHierarchy::new(small_machine());
        fast.attach_regions(&regions);
        naive.attach_regions(&regions);
        // Warm (and dirty) a line the batch reads and one in a set it
        // uses, so hits and a writeback are both in play.
        let warm = [
            Op::Range(batch[0].cur, 8, AccessKind::Store, 1),
            Op::Range(batch[0].reference + 0x400, 8, AccessKind::Store, 1),
        ];
        let mut ops = warm.to_vec();
        ops.push(Op::Candidates(batch.clone()));
        for &(a, l) in spans_of(batch).iter().rev() {
            ops.push(Op::Range(a, l, AccessKind::Store, 1));
            ops.push(Op::Range(a + 1024, 8, AccessKind::Load, 1));
        }
        apply(&mut fast, &ops);
        apply(&mut naive, &ops);
        assert_models_equal(&fast, &naive);
        let expected = (1, u64::from(!fast_path));
        assert_eq!(fast.load_batch_stats(), expected, "{name}: wrong path");
    }

    // A batch re-reading a dirty MRU line must leave it dirty, and the
    // MRU filter must not trust the line it pointed at before. An empty
    // batch charges nothing and counts as no batch.
    let script = vec![
        Op::Range(0x100, 8, AccessKind::Store, 1),
        Op::Candidates(vec![cand(0x100, 0x500, 64, 2)]),
        Op::Candidates(Vec::new()),
        Op::Range(0x108, 8, AccessKind::Store, 1),
        Op::Range(0x900, 8, AccessKind::Load, 1),
        Op::Range(0xd00, 8, AccessKind::Load, 1),
    ];
    let mut fast = Hierarchy::new(small_machine());
    let mut naive = NaiveHierarchy::new(small_machine());
    apply(&mut fast, &script);
    apply(&mut naive, &script);
    assert_models_equal(&fast, &naive);
    assert_eq!(fast.load_batch_stats(), (1, 0));
}

/// The order of one candidate's own spans decides the recency they
/// leave behind. With a leading reference row, current row 1 is charged
/// after reference row 1; here the two share an L1 set (and the region
/// tags differ), so after one conflicting load only the right order
/// evicts the right line and attributes the re-read miss correctly.
#[test]
fn leading_row_charge_order_sets_recency() {
    let regions = [
        Region {
            tag: "cur".into(),
            base: 0x1000,
            bytes: 0x1000,
        },
        Region {
            tag: "ref".into(),
            base: 0x2000,
            bytes: 0x1000,
        },
    ];
    // Spans: cur 0x1000, ref 0x2000 (leading), ref 0x2040, cur 0x1040,
    // ref 0x2080. 0x1040, 0x2040 and 0x3040 share L1 set 2.
    let batch = vec![SearchCandidate {
        lead_row: true,
        ..cand(0x1000, 0x2000, 64, 2)
    }];
    let ops = vec![
        Op::Candidates(batch),
        Op::Range(0x3040, 8, AccessKind::Load, 1),
        Op::Range(0x1040, 8, AccessKind::Load, 1),
        Op::Range(0x2040, 8, AccessKind::Load, 1),
    ];
    let mut fast = Hierarchy::new(small_machine());
    let mut naive = NaiveHierarchy::new(small_machine());
    fast.attach_regions(&regions);
    naive.attach_regions(&regions);
    apply(&mut fast, &ops);
    apply(&mut naive, &ops);
    assert_models_equal(&fast, &naive);
    assert_eq!(fast.load_batch_stats(), (1, 0));
}

/// Candidate batches against the per-span replay on the small machine
/// (whose 16-set L1 and 4-entry TLB put both sides of the batch
/// precondition within reach) and on the O2, with region attribution
/// attached. Every observable must agree after each stream, and across
/// the run both the first-touch path and the fallback must have been
/// taken.
#[test]
fn candidate_batches_are_counter_identical() {
    let regions = [
        Region {
            tag: "cur".into(),
            base: 0,
            bytes: 128 * 1024,
        },
        Region {
            tag: "ref".into(),
            base: 128 * 1024,
            bytes: 128 * 1024,
        },
    ];
    let small_paths = Cell::new((0u64, 0u64));
    check(
        "fastpath/candidate_batches",
        &Config::default(),
        gen_batch_stream,
        |ops| {
            for (i, machine) in [small_machine(), MachineSpec::o2()].into_iter().enumerate() {
                let mut fast = Hierarchy::new(machine.clone());
                let mut naive = NaiveHierarchy::new(machine);
                fast.attach_regions(&regions);
                naive.attach_regions(&regions);
                apply(&mut fast, ops);
                apply(&mut naive, ops);
                prop_assert_eq!(fast.counters(), naive.counters());
                prop_assert_eq!(fast.dram().bytes_read(), naive.dram().bytes_read());
                prop_assert_eq!(fast.dram().bytes_written(), naive.dram().bytes_written());
                prop_assert_eq!(fast.region_misses(), naive.region_misses());
                prop_assert_eq!(fast.tlb().lookups(), naive.tlb().lookups());
                prop_assert_eq!(fast.l1().stats(), naive.l1().stats());
                if i == 0 {
                    let (batches, fallbacks) = fast.load_batch_stats();
                    let (b, f) = small_paths.get();
                    small_paths.set((b + batches, f + fallbacks));
                }
            }
            Ok(())
        },
    );
    let (batches, fallbacks) = small_paths.get();
    assert!(fallbacks > 0, "no batch fell back ({batches} batches)");
    assert!(
        fallbacks < batches,
        "no batch took the first-touch path ({batches} batches)"
    );
}

/// Whole-search batches (raster sweeps and diamond walks) against the
/// per-span replay, on the small machine and the O2 with region
/// attribution attached. Consecutive candidates share their line
/// pattern here, unlike in [`gen_batch`]; both the first-touch path and
/// the fallback must run.
#[test]
fn search_shaped_batches_are_counter_identical() {
    let regions = [
        Region {
            tag: "cur".into(),
            base: 0,
            bytes: 128 * 1024,
        },
        Region {
            tag: "ref".into(),
            base: 128 * 1024,
            bytes: 128 * 1024,
        },
    ];
    let paths = Cell::new((0u64, 0u64));
    check(
        "fastpath/search_shaped_batches",
        &Config::default(),
        |rng: &mut Rng| batch_stream(rng, gen_search_batch),
        |ops| {
            for machine in [small_machine(), MachineSpec::o2()] {
                let mut fast = Hierarchy::new(machine.clone());
                let mut naive = NaiveHierarchy::new(machine);
                fast.attach_regions(&regions);
                naive.attach_regions(&regions);
                apply(&mut fast, ops);
                apply(&mut naive, ops);
                prop_assert_eq!(fast.counters(), naive.counters());
                prop_assert_eq!(fast.dram().bytes_read(), naive.dram().bytes_read());
                prop_assert_eq!(fast.dram().bytes_written(), naive.dram().bytes_written());
                prop_assert_eq!(fast.region_misses(), naive.region_misses());
                prop_assert_eq!(fast.tlb().lookups(), naive.tlb().lookups());
                prop_assert_eq!(fast.l1().stats(), naive.l1().stats());
                let (batches, fallbacks) = fast.load_batch_stats();
                let (b, f) = paths.get();
                paths.set((b + batches, f + fallbacks));
            }
            Ok(())
        },
    );
    let (batches, fallbacks) = paths.get();
    assert!(fallbacks > 0, "no batch fell back ({batches} batches)");
    assert!(
        fallbacks < batches,
        "no batch took the first-touch path ({batches} batches)"
    );
}

/// A row of `lanes` adjacent candidates for one current block, their
/// references one byte apart from `reference`, with visited rows
/// drawn from `rows` in turn (so lanes drop out at mixed depths).
fn lane_row(
    cur: u64,
    reference: u64,
    stride: u64,
    lanes: u64,
    rows: &[u32],
) -> Vec<SearchCandidate> {
    (0..lanes)
        .map(|j| cand(cur, reference + j, stride, rows[j as usize % rows.len()]))
        .collect()
}

/// Lane runs (adjacent candidates whose reference rows are stamped once
/// per row) at their edges, on the small machine and the O2, each
/// against the per-span replay and each asserting that the first-touch
/// path ran. Current and reference rows lie 16 KB apart, so they share
/// L1 sets on both machines. After the batch, one load 32 KB from each
/// current row evicts the least recently used line of its set, and a
/// re-read of every span then attributes the miss to the current or the
/// reference region: the order of the batch's last touches shows.
#[test]
fn pinned_lane_runs() {
    const WAY: u64 = 0x4000;
    let top = u64::MAX - 200;
    let scripts: Vec<(&str, Vec<SearchCandidate>)> = vec![
        (
            // A full-search row at dy = 0: the zero vector was scored
            // first, so the row is two runs of 8 around a 2-byte gap.
            "zero vector split",
            (-8i64..=8)
                .filter(|&dx| dx != 0)
                .map(|dx| {
                    let rows = 1 + (dx.unsigned_abs() % 4) as u32;
                    cand(0x1000, (0x1008 + WAY).wrapping_add_signed(dx), 64, rows)
                })
                .collect(),
        ),
        // A ±15 row: 31 lanes, with holes in the live lanes of each row.
        (
            "31 lanes",
            lane_row(0x1000, 0x1000 + WAY, 64, 31, &[1, 3, 2, 4, 1, 1, 3]),
        ),
        // 70 lanes: longer than one run may be, so split in two.
        (
            "70 lanes",
            lane_row(0x1000, 0x1000 + WAY, 128, 70, &[2, 1, 3, 1]),
        ),
        // A stride below the line size: consecutive rows share lines.
        (
            "rows share lines",
            lane_row(0x1000, 0x1004 + WAY, 8, 7, &[6, 2, 5, 1, 4, 3, 6]),
        ),
        // Lanes on both sides of the page boundary at 0x8000, and lanes
        // whose rows straddle it.
        (
            "page straddle",
            lane_row(0x3ff0, 0x3ff0 + WAY, 64, 20, &[2, 1, 2]),
        ),
        (
            // Horizontal and vertical half-pel lanes: 17-byte rows and a
            // leading reference row.
            "17 wide with leading row",
            lane_row(0x1000, 0x1000 + WAY, 64, 9, &[3, 1, 4, 2])
                .into_iter()
                .map(|c| SearchCandidate {
                    ref_width: 17,
                    lead_row: true,
                    ..c
                })
                .collect(),
        ),
        (
            // Rows that stay below the top of the address space, and
            // rows that would pass it, where row addresses saturate: that
            // run is stamped lane by lane.
            "address top",
            [
                lane_row(top % WAY, top, 64, 4, &[2, 3]),
                lane_row(top % WAY, top + 150, 64, 5, &[3, 1, 2]),
            ]
            .concat(),
        ),
    ];
    let regions = [
        Region {
            tag: "cur".into(),
            base: 0,
            bytes: 0x4800,
        },
        Region {
            tag: "ref".into(),
            base: 0x4800,
            bytes: u64::MAX - 0x4800,
        },
    ];
    for (name, batch) in &scripts {
        for machine in [small_machine(), MachineSpec::o2()] {
            let mut fast = Hierarchy::new(machine.clone());
            let mut naive = NaiveHierarchy::new(machine);
            fast.attach_regions(&regions);
            naive.attach_regions(&regions);
            let mut ops = vec![
                Op::Range(batch[0].cur, 8, AccessKind::Store, 1),
                Op::Range(batch[0].reference ^ (2 * WAY), 8, AccessKind::Store, 1),
                Op::Candidates(batch.clone()),
            ];
            let spans = spans_of(batch);
            for &(a, _) in spans.iter().filter(|&&(a, _)| a < 0x4800) {
                ops.push(Op::Range(a ^ (2 * WAY), 8, AccessKind::Load, 1));
            }
            for &(a, l) in &spans {
                ops.push(Op::Range(a, l, AccessKind::Load, l));
            }
            apply(&mut fast, &ops);
            apply(&mut naive, &ops);
            assert_models_equal(&fast, &naive);
            assert_eq!(fast.load_batch_stats(), (1, 0), "{name}: wrong path");
        }
    }
}
