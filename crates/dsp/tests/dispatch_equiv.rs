//! Differential properties for the dispatched kernel tiers: for every
//! tier the CPU supports, every vtable entry must be **bit-identical**
//! to the scalar reference on random sizes, strides, offsets and
//! cutoffs — including unaligned rows (odd strides) and widths that are
//! not a multiple of any vector lane count.
//!
//! Runs on the in-tree [`m4ps_testkit::prop`] harness; failures print a
//! replayable seed (`M4PS_PROP_REPLAY=0x...`).

use m4ps_dsp::{row_group_lane, CoefBlock, HalfPel, KernelTier, Kernels, RowGroup, RowSums};
use m4ps_testkit::prop::{check, Config};
use m4ps_testkit::prop_assert_eq;
use m4ps_testkit::rng::Rng;

/// A random byte plane with an intentionally awkward stride so vector
/// loads hit every alignment class.
#[derive(Debug)]
struct Plane {
    data: Vec<u8>,
    stride: usize,
}

impl Plane {
    /// A plane from which `(x, y)` windows of `w + 1` × `h + 1` pixels
    /// (the half-pel slack) can be read for `x <= max_x`, `y <= max_y`.
    fn gen(rng: &mut Rng, max_x: usize, max_y: usize, w: usize, h: usize) -> Plane {
        let stride = max_x + w + 1 + rng.gen_range(0usize..7);
        let rows = max_y + h + 1;
        let mut data = vec![0u8; stride * rows];
        rng.fill_bytes(&mut data);
        Plane { data, stride }
    }
}

/// The non-scalar tiers this CPU can run (empty on a scalar-only host:
/// every property then passes vacuously, which CI's forced-tier matrix
/// turns into an explicit skip notice instead of a silent pass).
fn vector_tiers() -> Vec<&'static Kernels> {
    m4ps_dsp::supported_tiers()
        .into_iter()
        .filter(|&t| t != KernelTier::Scalar)
        .map(|t| Kernels::for_tier(t).expect("supported tier has a table"))
        .collect()
}

fn scalar() -> &'static Kernels {
    Kernels::for_tier(KernelTier::Scalar).expect("scalar is always supported")
}

/// Generator for one SAD comparison: two planes and in-bounds offsets.
#[derive(Debug)]
struct SadCase {
    cur: Plane,
    cx: usize,
    cy: usize,
    reference: Plane,
    rx: usize,
    ry: usize,
    cutoff: u32,
}

fn sad_case(rng: &mut Rng, n: usize) -> SadCase {
    let (mx, my) = (rng.gen_range(0usize..24), rng.gen_range(0usize..8));
    let cur = Plane::gen(rng, mx, my, n, n);
    let reference = Plane::gen(rng, mx, my, n, n);
    // Small cutoffs force early exits; large ones never trigger.
    let cutoff = match rng.gen_range(0u32..3) {
        0 => rng.gen_range(0u32..64 * n as u32),
        1 => rng.gen_range(0u32..8 * n as u32),
        _ => u32::MAX,
    };
    SadCase {
        cx: rng.gen_range(0..=mx),
        cy: rng.gen_range(0..=my),
        cur,
        rx: rng.gen_range(0..=mx),
        ry: rng.gen_range(0..=my),
        reference,
        cutoff,
    }
}

#[test]
fn full_sad_matches_scalar_exactly() {
    check(
        "full_sad_matches_scalar_exactly",
        &Config::default(),
        |rng| (sad_case(rng, 16), sad_case(rng, 8)),
        |(c16, c8)| {
            let s = scalar();
            for k in vector_tiers() {
                let want = (s.sad16)(
                    &c16.cur.data,
                    c16.cur.stride,
                    c16.cx,
                    c16.cy,
                    &c16.reference.data,
                    c16.reference.stride,
                    c16.rx,
                    c16.ry,
                );
                let got = (k.sad16)(
                    &c16.cur.data,
                    c16.cur.stride,
                    c16.cx,
                    c16.cy,
                    &c16.reference.data,
                    c16.reference.stride,
                    c16.rx,
                    c16.ry,
                );
                prop_assert_eq!(got, want, "sad16 tier {}", k.tier.name());
                let want = (s.sad8)(
                    &c8.cur.data,
                    c8.cur.stride,
                    c8.cx,
                    c8.cy,
                    &c8.reference.data,
                    c8.reference.stride,
                    c8.rx,
                    c8.ry,
                );
                let got = (k.sad8)(
                    &c8.cur.data,
                    c8.cur.stride,
                    c8.cx,
                    c8.cy,
                    &c8.reference.data,
                    c8.reference.stride,
                    c8.rx,
                    c8.ry,
                );
                prop_assert_eq!(got, want, "sad8 tier {}", k.tier.name());
            }
            Ok(())
        },
    );
}

#[test]
fn cutoff_sad_matches_scalar_sum_and_rows() {
    check(
        "cutoff_sad_matches_scalar_sum_and_rows",
        &Config::default(),
        |rng| (sad_case(rng, 16), sad_case(rng, 8)),
        |(c16, c8)| {
            let s = scalar();
            for k in vector_tiers() {
                let want = (s.sad16_cutoff)(
                    &c16.cur.data,
                    c16.cur.stride,
                    c16.cx,
                    c16.cy,
                    &c16.reference.data,
                    c16.reference.stride,
                    c16.rx,
                    c16.ry,
                    c16.cutoff,
                );
                let got = (k.sad16_cutoff)(
                    &c16.cur.data,
                    c16.cur.stride,
                    c16.cx,
                    c16.cy,
                    &c16.reference.data,
                    c16.reference.stride,
                    c16.rx,
                    c16.ry,
                    c16.cutoff,
                );
                prop_assert_eq!(got, want, "sad16_cutoff tier {}", k.tier.name());
                let want = (s.sad8_cutoff)(
                    &c8.cur.data,
                    c8.cur.stride,
                    c8.cx,
                    c8.cy,
                    &c8.reference.data,
                    c8.reference.stride,
                    c8.rx,
                    c8.ry,
                    c8.cutoff,
                );
                let got = (k.sad8_cutoff)(
                    &c8.cur.data,
                    c8.cur.stride,
                    c8.cx,
                    c8.cy,
                    &c8.reference.data,
                    c8.reference.stride,
                    c8.rx,
                    c8.ry,
                    c8.cutoff,
                );
                prop_assert_eq!(got, want, "sad8_cutoff tier {}", k.tier.name());
            }
            Ok(())
        },
    );
}

/// Every supported tier, the scalar reference first.
fn all_tiers() -> Vec<&'static Kernels> {
    std::iter::once(scalar()).chain(vector_tiers()).collect()
}

/// One row-group run: a current block and the reference plane holding
/// the run, its lanes, masked lane and cutoff.
#[derive(Debug)]
struct RowGroupCase {
    cur: Plane,
    cx: usize,
    cy: usize,
    reference: Plane,
    rx: usize,
    ry: usize,
    group: RowGroup,
}

fn row_group_case(rng: &mut Rng) -> RowGroupCase {
    let lanes = rng.gen_range(1usize..=16);
    // A group must test at least one lane.
    let masked = (lanes > 1 && rng.gen_bool()).then(|| rng.gen_range(0..lanes));
    // 0 and random cutoffs stop the group at every row; 65,280 and
    // above never stop it.
    let cutoff = match rng.gen_range(0u32..5) {
        0 => 0,
        1 => rng.gen_range(0u32..4096),
        2 => rng.gen_range(0u32..40_000),
        3 => rng.gen_range(65_280u32..=200_000),
        _ => u32::MAX,
    };
    let (mx, my) = (rng.gen_range(0usize..24), rng.gen_range(0usize..8));
    let cur = Plane::gen(rng, mx, my, 16, 16);
    let mut reference = Plane::gen(rng, mx, my, lanes + 15, 16);
    let (rx, ry) = (rng.gen_range(0..=mx), rng.gen_range(0..=my));
    // Often end the buffer right after the live window's last pixel,
    // where the dead lanes' columns would run past it.
    if rng.gen_bool() {
        reference
            .data
            .truncate((ry + 15) * reference.stride + rx + lanes + 15);
    }
    RowGroupCase {
        cx: rng.gen_range(0..=mx),
        cy: rng.gen_range(0..=my),
        cur,
        rx,
        ry,
        reference,
        group: RowGroup {
            lanes,
            masked,
            cutoff,
        },
    }
}

/// Runs `case` on every tier and checks each against the scalar body
/// (the rows computed, and each tested lane's running sums through its
/// first row above the cutoff) and each tested lane, replayed at the
/// group cutoff and at a lower one, against the per-lane scalar cutoff
/// SAD.
fn check_row_group(case: &RowGroupCase, lower: u32) -> Result<(), String> {
    let run = |k: &Kernels| {
        let mut sums: RowSums = [[0xdead; 16]; 16];
        let rows = (k.sad16_row_group)(
            &case.cur.data,
            case.cur.stride,
            case.cx,
            case.cy,
            &case.reference.data,
            case.reference.stride,
            case.rx,
            case.ry,
            case.group,
            &mut sums,
        );
        (rows, sums)
    };
    let tested: Vec<usize> = (0..case.group.lanes)
        .filter(|&l| case.group.masked != Some(l))
        .collect();
    // Each tested lane's defined sums, as the scalar body leaves them.
    let defined = |sums: &RowSums| -> Vec<Vec<u16>> {
        tested
            .iter()
            .map(|&lane| {
                let stop = sums
                    .iter()
                    .position(|row| u32::from(row[lane]) > case.group.cutoff)
                    .map_or(16, |row| row + 1);
                sums[..stop].iter().map(|row| row[lane]).collect()
            })
            .collect()
    };
    let (want_rows, want_sums) = run(scalar());
    let want_sums = defined(&want_sums);
    for k in all_tiers() {
        let (rows, sums) = run(k);
        prop_assert_eq!(rows, want_rows, "row group rows tier {}", k.tier.name());
        prop_assert_eq!(
            defined(&sums),
            want_sums,
            "row group sums tier {}",
            k.tier.name()
        );
        for &lane in &tested {
            for cutoff in [case.group.cutoff, lower.min(case.group.cutoff)] {
                let want = (scalar().sad16_cutoff)(
                    &case.cur.data,
                    case.cur.stride,
                    case.cx,
                    case.cy,
                    &case.reference.data,
                    case.reference.stride,
                    case.rx + lane,
                    case.ry,
                    cutoff,
                );
                prop_assert_eq!(
                    row_group_lane(&sums, rows, lane, cutoff),
                    want,
                    "tier {} lane {} cutoff {}",
                    k.tier.name(),
                    lane,
                    cutoff
                );
            }
        }
    }
    Ok(())
}

#[test]
fn row_group_sad_matches_scalar_and_per_lane_cutoff_sad() {
    check(
        "row_group_sad_matches_scalar_and_per_lane_cutoff_sad",
        &Config::default(),
        |rng| (row_group_case(rng), rng.gen_range(0u32..30_000)),
        |(case, lower)| check_row_group(case, *lower),
    );
}

/// The codec's runs at the edges of a padded plane with the widest
/// search range (±15): a 48×48 plane with the 16-pixel border, the
/// corner macroblocks, the first and last `dy` rows, and both runs of
/// each row (16 lanes from −15, 15 lanes from +1), with the buffer
/// ending at the padded surface's last pixel.
#[test]
fn row_group_sad_covers_padded_edges_at_range_15() {
    const PAD: usize = 16;
    let (w, h) = (48usize, 48usize);
    let stride = w + 2 * PAD;
    let mut rng = Rng::new(0x5ad_ed9e);
    let mut data = vec![0u8; stride * (h + 2 * PAD)];
    rng.fill_bytes(&mut data);
    let plane = || Plane {
        data: data.clone(),
        stride,
    };
    for (bx, by) in [(0, 0), (w - 16, 0), (0, h - 16), (w - 16, h - 16), (16, 16)] {
        for dy in [-15isize, 0, 15] {
            for (dx0, lanes) in [(-15isize, 16usize), (1, 15)] {
                let masked = (dy == 0 && dx0 <= 0).then_some((-dx0) as usize);
                for cutoff in [0, 9_000, 20_000, 65_280, u32::MAX] {
                    let case = RowGroupCase {
                        cur: plane(),
                        cx: bx + PAD,
                        cy: by + PAD,
                        reference: plane(),
                        rx: ((bx + PAD) as isize + dx0) as usize,
                        ry: ((by + PAD) as isize + dy) as usize,
                        group: RowGroup {
                            lanes,
                            masked,
                            cutoff,
                        },
                    };
                    check_row_group(&case, cutoff / 3).unwrap_or_else(|e| panic!("{case:?}: {e}"));
                }
            }
        }
    }
}

#[test]
fn half_pel_sad_matches_scalar_for_all_phases() {
    check(
        "half_pel_sad_matches_scalar_for_all_phases",
        &Config::default(),
        |rng| (sad_case(rng, 16), sad_case(rng, 8)),
        |(c16, c8)| {
            let s = scalar();
            for k in vector_tiers() {
                for (fx, fy) in [(false, false), (true, false), (false, true), (true, true)] {
                    let want = (s.sad16_half_pel)(
                        &c16.cur.data,
                        c16.cur.stride,
                        c16.cx,
                        c16.cy,
                        &c16.reference.data,
                        c16.reference.stride,
                        c16.rx,
                        c16.ry,
                        fx,
                        fy,
                        c16.cutoff,
                    );
                    let got = (k.sad16_half_pel)(
                        &c16.cur.data,
                        c16.cur.stride,
                        c16.cx,
                        c16.cy,
                        &c16.reference.data,
                        c16.reference.stride,
                        c16.rx,
                        c16.ry,
                        fx,
                        fy,
                        c16.cutoff,
                    );
                    prop_assert_eq!(
                        got,
                        want,
                        "sad16_half_pel tier {} fx {} fy {}",
                        k.tier.name(),
                        fx,
                        fy
                    );
                    let want = (s.sad8_half_pel)(
                        &c8.cur.data,
                        c8.cur.stride,
                        c8.cx,
                        c8.cy,
                        &c8.reference.data,
                        c8.reference.stride,
                        c8.rx,
                        c8.ry,
                        fx,
                        fy,
                        c8.cutoff,
                    );
                    let got = (k.sad8_half_pel)(
                        &c8.cur.data,
                        c8.cur.stride,
                        c8.cx,
                        c8.cy,
                        &c8.reference.data,
                        c8.reference.stride,
                        c8.rx,
                        c8.ry,
                        fx,
                        fy,
                        c8.cutoff,
                    );
                    prop_assert_eq!(
                        got,
                        want,
                        "sad8_half_pel tier {} fx {} fy {}",
                        k.tier.name(),
                        fx,
                        fy
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn interpolation_matches_scalar_for_ragged_widths() {
    check(
        "interpolation_matches_scalar_for_ragged_widths",
        &Config::default(),
        |rng| {
            // Widths deliberately straddle the vector lane counts
            // (8/16/32) so every chunked path and its scalar tail runs.
            let w = rng.gen_range(1usize..=40);
            let h = rng.gen_range(1usize..=20);
            let (mx, my) = (rng.gen_range(0usize..16), rng.gen_range(0usize..8));
            let src = Plane::gen(rng, mx, my, w, h);
            let x = rng.gen_range(0..=mx);
            let y = rng.gen_range(0..=my);
            (src, x, y, w, h)
        },
        |(src, x, y, w, h)| {
            let s = scalar();
            for k in vector_tiers() {
                for phase in [
                    HalfPel::Full,
                    HalfPel::Horizontal,
                    HalfPel::Vertical,
                    HalfPel::Diagonal,
                ] {
                    let mut want = vec![0u8; w * h];
                    let mut got = vec![1u8; w * h];
                    (s.interp)(&src.data, src.stride, *x, *y, phase, *w, *h, &mut want);
                    (k.interp)(&src.data, src.stride, *x, *y, phase, *w, *h, &mut got);
                    prop_assert_eq!(
                        &got,
                        &want,
                        "interp tier {} phase {:?} w {} h {}",
                        k.tier.name(),
                        phase,
                        w,
                        h
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn average_and_copy_match_scalar() {
    check(
        "average_and_copy_match_scalar",
        &Config::default(),
        |rng| {
            let len = rng.gen_range(1usize..=100);
            let a = rng.bytes(len..len + 1);
            let b = rng.bytes(len..len + 1);
            let w = rng.gen_range(1usize..=40);
            let h = rng.gen_range(1usize..=20);
            let (mx, my) = (rng.gen_range(0usize..16), rng.gen_range(0usize..8));
            let src = Plane::gen(rng, mx, my, w, h);
            let x = rng.gen_range(0..=mx);
            let y = rng.gen_range(0..=my);
            (a, b, src, x, y, w, h)
        },
        |(a, b, src, x, y, w, h)| {
            let s = scalar();
            for k in vector_tiers() {
                let mut want = vec![0u8; a.len()];
                let mut got = vec![1u8; a.len()];
                (s.avg)(a, b, &mut want);
                (k.avg)(a, b, &mut got);
                prop_assert_eq!(&got, &want, "avg tier {} len {}", k.tier.name(), a.len());
                let mut want = vec![0u8; w * h];
                let mut got = vec![1u8; w * h];
                (s.copy_block)(&src.data, src.stride, *x, *y, *w, *h, &mut want);
                (k.copy_block)(&src.data, src.stride, *x, *y, *w, *h, &mut got);
                prop_assert_eq!(
                    &got,
                    &want,
                    "copy_block tier {} w {} h {}",
                    k.tier.name(),
                    w,
                    h
                );
            }
            Ok(())
        },
    );
}

/// Coefficients spanning the DCT output range. The DC term stays inside
/// ±20000: the scalar intra quantizer's `c + 4` rounding bias is
/// evaluated in `i16` and a real DCT never produces |DC| > 16320
/// (255 × 64), so the extreme corner is outside the kernel contract.
fn coef_block(rng: &mut Rng) -> CoefBlock {
    let mut c = CoefBlock::default();
    for v in &mut c.data {
        *v = rng.gen_range(-2047i16..=2047);
    }
    c.data[0] = rng.gen_range(-20000i16..=20000);
    c
}

/// Quantized levels as the dequantizers receive them.
fn level_block(rng: &mut Rng) -> CoefBlock {
    let mut c = CoefBlock::default();
    for v in &mut c.data {
        *v = match rng.gen_range(0u32..4) {
            0 => 0,
            _ => rng.gen_range(-2048i16..=2047),
        };
    }
    c
}

#[test]
fn quantizers_match_scalar_for_every_qp() {
    check(
        "quantizers_match_scalar_for_every_qp",
        &Config::default(),
        |rng| (coef_block(rng), level_block(rng)),
        |(coefs, levels)| {
            let s = scalar();
            for k in vector_tiers() {
                for qp in 1u8..=31 {
                    prop_assert_eq!(
                        (k.quant_intra)(coefs, qp).data,
                        (s.quant_intra)(coefs, qp).data,
                        "quant_intra tier {} qp {}",
                        k.tier.name(),
                        qp
                    );
                    prop_assert_eq!(
                        (k.quant_inter)(coefs, qp).data,
                        (s.quant_inter)(coefs, qp).data,
                        "quant_inter tier {} qp {}",
                        k.tier.name(),
                        qp
                    );
                    prop_assert_eq!(
                        (k.dequant_intra)(levels, qp).data,
                        (s.dequant_intra)(levels, qp).data,
                        "dequant_intra tier {} qp {}",
                        k.tier.name(),
                        qp
                    );
                    prop_assert_eq!(
                        (k.dequant_inter)(levels, qp).data,
                        (s.dequant_inter)(levels, qp).data,
                        "dequant_inter tier {} qp {}",
                        k.tier.name(),
                        qp
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn vector_tables_are_available_where_expected() {
    // On x86-64 (outside Miri) the SSE2 tier is baseline: this test
    // failing means the differential suites above ran vacuously.
    #[cfg(target_arch = "x86_64")]
    if !cfg!(miri) {
        assert!(
            !vector_tiers().is_empty(),
            "x86-64 must expose at least the SSE2 tier"
        );
    }
    for k in vector_tiers() {
        assert!(k.tier != KernelTier::Scalar);
    }
}
