//! Differential property suite: the fast-path [`Hierarchy`] (MRU line
//! filter, cache-way memo, TLB-slot memo, optimized `access_rect`,
//! first-touch `access_loads` batches) against the un-memoized
//! [`NaiveHierarchy`] reference.
//!
//! Every test drives both models with an identical reference stream and
//! requires *every* [`Counters`] field, the DRAM read/write traffic,
//! and the per-region miss attribution to be bit-identical. The streams
//! are chosen to hammer the fast paths where they could diverge:
//! same-line repeats, store-after-load dirtiness, set-conflict
//! evictions, page alternation, prefetch interleaving, rectangular
//! charging, and load batches on both sides of the batch precondition.

use m4ps_memsim::{
    AccessKind, Counters, Hierarchy, MachineSpec, MemModel, NaiveHierarchy, ParallelModel, Region,
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
    LoadBatch(Vec<(u64, u64)>),
}

fn apply<M: MemModel>(m: &mut M, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Range(a, l, k, n) => m.access_range(a, l, k, n),
            Op::Rect(a, s, r, w, k, n) => m.access_rect(a, s, r, w, k, n),
            Op::Prefetch(a) => m.prefetch(a),
            Op::PrefetchPair(a) => m.prefetch_pair(a),
            Op::Ops(n) => m.add_ops(n),
            Op::LoadBatch(ref spans) => m.access_loads(spans),
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

/// Generates the span stream of a few SAD-like candidate searches:
/// current-block rows alternating with displaced reference rows. Short
/// runs in a spread-out layout keep within the batch precondition on
/// the small machine; long runs, and strides that fold every row onto
/// one set, break it. Zero-length spans are mixed in (they touch one
/// byte's line, as in `access_range`).
fn gen_batch(rng: &mut Rng) -> Vec<(u64, u64)> {
    let cur = 0x1000 * u64::from(rng.gen_range(0u32..64)) + u64::from(rng.gen_range(0u32..32));
    let reference =
        0x1000 * u64::from(rng.gen_range(0u32..64)) + u64::from(rng.gen_range(0u32..32));
    let stride = *rng.choose(&[64u64, 208, 512, 752, 1024, 0x4000]);
    let width = *rng.choose(&[8u64, 16, 17, 40]);
    let max_rows = *rng.choose(&[3u32, 17]);
    let mut spans = Vec::new();
    for _ in 0..rng.gen_range(1u32..6) {
        let (dx, dy) = (
            u64::from(rng.gen_range(0u32..5)),
            u64::from(rng.gen_range(0u32..5)),
        );
        let ref_first = rng.gen_bool();
        for r in 0..u64::from(rng.gen_range(1u32..max_rows)) {
            let rows = [
                (cur + r * stride, width),
                (reference + (dy + r) * stride + dx, width),
            ];
            if ref_first {
                spans.extend(rows.iter().rev());
            } else {
                spans.extend(rows);
            }
        }
        if rng.gen_range(0u32..8) == 0 {
            spans.push((reference + dx, 0));
        }
    }
    spans
}

/// A stream of load batches, each followed by a verification stream:
/// loads of fresh pages (evicting the least recently used TLB entries),
/// then the batch's spans re-touched in reverse as stores, interleaved
/// with loads that conflict with them in the L1 and L2. What those miss,
/// evict and write back depends on the recency order and residency the
/// batch left behind in all three structures.
fn gen_batch_stream(rng: &mut Rng) -> Vec<Op> {
    let mut ops = gen_stream(rng);
    for _ in 0..rng.gen_range(1u32..5) {
        let spans = gen_batch(rng);
        let fresh_pages = u64::from(rng.gen_range(0u32..4));
        let mut verify: Vec<Op> = (0..fresh_pages)
            .map(|p| Op::Range(0x100_0000 + p * 0x4000, 8, AccessKind::Load, 1))
            .collect();
        verify.extend(spans.iter().rev().step_by(3).flat_map(|&(a, l)| {
            [
                Op::Range(a, l, AccessKind::Store, 1),
                Op::Range(a + 1024, 8, AccessKind::Load, 1),
                Op::Range(a + 8192, 8, AccessKind::Load, 1),
            ]
        }));
        ops.push(Op::LoadBatch(spans));
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
        // A batch re-reading a dirty MRU line must leave it dirty, and
        // the filter must not trust the line it pointed at before.
        vec![
            Op::Range(0x100, 8, AccessKind::Store, 1),
            Op::LoadBatch(vec![(0x100, 8), (0x500, 16), (0x100, 8)]),
            Op::Range(0x108, 8, AccessKind::Store, 1),
            Op::Range(0x900, 8, AccessKind::Load, 1),
            Op::Range(0xd00, 8, AccessKind::Load, 1),
        ],
        // Spans straddling lines and a page boundary, plus zero-length
        // spans, inside one batch.
        vec![Op::LoadBatch(vec![
            (0x3ff0, 32),
            (0x3ffe, 0),
            (0x401e, 4),
            (0x3ff0, 32),
        ])],
        // As many pages as the TLB has entries: falls back.
        vec![Op::LoadBatch(
            (0..4u64).map(|p| (p * 0x4000 + 0x40, 8)).collect(),
        )],
        // Three lines of one 2-way set: falls back.
        vec![Op::LoadBatch(vec![
            (0x40, 8),
            (0x440, 8),
            (0x840, 8),
            (0x40, 8),
        ])],
        // An empty batch charges nothing.
        vec![Op::LoadBatch(Vec::new()), Op::Ops(1)],
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

/// Load batches against the per-span replay on the small machine (whose
/// 16-set L1 and 4-entry TLB put both sides of the batch precondition
/// within reach) and on the O2, with region attribution attached. Every
/// observable must agree after each stream, and across the run both
/// the first-touch path and the fallback must have been taken.
#[test]
fn load_batches_are_counter_identical() {
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
        "fastpath/load_batches",
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
