//! Runtime-dispatched kernel tiers.
//!
//! The paper's thesis is that MPEG-4 runs acceptably on *non-SIMD*
//! general-purpose hardware; testing the converse in-tree requires SIMD
//! variants of the hot kernels that are selectable — and forceable — at
//! run time. This module is the dispatch table: every hot kernel (SAD
//! full/half-pel, bilinear interpolation, motion-comp averaging,
//! quant/dequant, plane copies) is a function pointer in a [`Kernels`]
//! vtable, resolved once at startup from CPU feature detection in the
//! style of mjpegtools' `SIMD_DO` table and libmpeg2's `mpeg2_mc` NEON
//! dispatch: the best available tier wins, and tiers that do not
//! implement a kernel inherit the next-best implementation (the SSE2
//! tier keeps scalar quantization exactly as libmpeg2's MMX level keeps
//! scalar `find_best_one_pel`).
//!
//! # Equivalence policy
//!
//! Every vectorised kernel is **bit-identical** to its scalar reference:
//! all of these kernels are pure integer arithmetic, so equality is
//! exact, not approximate (the float DCT keeps its own `to_bits` pinning
//! in `dct.rs`). What the codec replays into the simulated memory
//! hierarchy is each candidate's `(sum, rows_visited)` pair, and that
//! pair is identical across tiers: the per-candidate cutoff SADs check
//! the cutoff after every row in every tier, and the row-group SAD
//! computes the same rows and the same per-row running sums in every
//! tier, from which the codec reads each candidate's pair. That is what
//! keeps memsim `Counters` bit-identical whichever tier ran. The
//! differential property suites in
//! `tests/dispatch_equiv.rs` and the full-encode sweep in
//! `m4ps-codec/tests/kernel_tiers.rs` pin this.
//!
//! # Forcing a tier
//!
//! `M4PS_KERNELS={scalar,sse2,avx2,auto}` forces the startup resolution
//! (default `auto` = best supported). Forcing an unsupported tier
//! panics loudly — CI detects CPU support first and skips with a notice
//! rather than silently passing. Tests may also swap the active table
//! programmatically with [`force_tier`], or grab a specific tier's
//! table via [`Kernels::for_tier`] without touching global state.

use crate::dct::CoefBlock;
use crate::interp::HalfPel;
use crate::sad::{RowGroup, RowSums};
use std::sync::atomic::{AtomicU8, Ordering};

/// Full-block SAD: `(cur, cur_stride, cx, cy, ref, ref_stride, rx, ry)`.
pub type SadFn = fn(&[u8], usize, usize, usize, &[u8], usize, usize, usize) -> u32;

/// Cutoff SAD: as [`SadFn`] plus the cutoff; returns `(partial_sum,
/// rows_visited)`. Every tier checks the cutoff after every row so the
/// pair is tier-independent.
pub type SadCutoffFn =
    fn(&[u8], usize, usize, usize, &[u8], usize, usize, usize, u32) -> (u32, usize);

/// Half-pel cutoff SAD: as [`SadCutoffFn`] with the fractional flags
/// `(frac_x, frac_y)` before the cutoff.
pub type SadHalfPelFn =
    fn(&[u8], usize, usize, usize, &[u8], usize, usize, usize, bool, bool, u32) -> (u32, usize);

/// 16×16 row-group SAD: `(cur, cur_stride, cx, cy, ref, ref_stride, rx,
/// ry, group, sums) -> rows_computed`, scoring the candidates at `rx,
/// rx + 1, …` at once (see [`crate::sad_16x16_row_group`]). Every tier
/// scores 16 lanes and applies the same group test, so the rows
/// computed and every live lane's sums are tier-independent.
pub type SadRowGroupFn =
    fn(&[u8], usize, usize, usize, &[u8], usize, usize, usize, RowGroup, &mut RowSums) -> usize;

/// Bilinear interpolation: `(ref, ref_stride, rx, ry, phase, w, h, out)`
/// with `out` row-major at stride `w`.
pub type InterpFn = fn(&[u8], usize, usize, usize, HalfPel, usize, usize, &mut [u8]);

/// Motion-comp averaging: `(fwd, bwd, out)`, MPEG `(a+b+1)>>1` rounding.
pub type AvgFn = fn(&[u8], &[u8], &mut [u8]);

/// Plane-copy kernel: `(src, src_stride, sx, sy, w, h, out)` with `out`
/// row-major at stride `w`.
pub type CopyBlockFn = fn(&[u8], usize, usize, usize, usize, usize, &mut [u8]);

/// Quantizer-shaped kernel: `(coefs, qp) -> levels` (or the inverse).
pub type QuantFn = fn(&CoefBlock, u8) -> CoefBlock;

/// A CPU capability tier the dispatcher can resolve to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelTier {
    /// Portable scalar reference implementations (the paper's subject).
    Scalar = 0,
    /// 128-bit SSE2 (`psadbw`, `pavgb`; x86-64 baseline).
    Sse2 = 1,
    /// 256-bit AVX2.
    Avx2 = 2,
}

impl KernelTier {
    /// All tiers, best last.
    pub const ALL: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2];

    /// Stable lowercase name (the `M4PS_KERNELS` value and bench/obs tag).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
        }
    }

    /// Parses a `M4PS_KERNELS` tier name (not `auto`).
    pub fn from_name(s: &str) -> Option<KernelTier> {
        match s {
            "scalar" => Some(KernelTier::Scalar),
            "sse2" => Some(KernelTier::Sse2),
            "avx2" => Some(KernelTier::Avx2),
            _ => None,
        }
    }

    /// `true` when this tier can run on the current CPU. Under Miri only
    /// the scalar tier is reported (vector intrinsics are out of scope
    /// for the interpreter; the CI Miri lane runs scalar only).
    pub fn is_supported(self) -> bool {
        if cfg!(miri) {
            return self == KernelTier::Scalar;
        }
        match self {
            KernelTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => std::is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Every tier the current CPU supports, best last.
pub fn supported_tiers() -> Vec<KernelTier> {
    KernelTier::ALL
        .into_iter()
        .filter(|t| t.is_supported())
        .collect()
}

/// The resolved-once dispatch table: one function pointer per hot
/// kernel. Tables are `'static`; selection swaps which table the
/// [`kernels`] accessor returns.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// The tier this table implements.
    pub tier: KernelTier,
    /// Full 16×16 SAD.
    pub sad16: SadFn,
    /// Full 8×8 SAD.
    pub sad8: SadFn,
    /// 16×16 SAD with per-row early termination.
    pub sad16_cutoff: SadCutoffFn,
    /// 8×8 SAD with per-row early termination.
    pub sad8_cutoff: SadCutoffFn,
    /// 16×16 SAD of up to 16 horizontally adjacent candidates at once.
    pub sad16_row_group: SadRowGroupFn,
    /// 16×16 half-pel SAD with per-row early termination.
    pub sad16_half_pel: SadHalfPelFn,
    /// 8×8 half-pel SAD with per-row early termination.
    pub sad8_half_pel: SadHalfPelFn,
    /// Bilinear half-pel interpolation of a `w×h` block.
    pub interp: InterpFn,
    /// Bidirectional prediction averaging.
    pub avg: AvgFn,
    /// `w×h` plane-window copy.
    pub copy_block: CopyBlockFn,
    /// Intra quantization.
    pub quant_intra: QuantFn,
    /// Inter quantization (dead zone).
    pub quant_inter: QuantFn,
    /// Intra dequantization.
    pub dequant_intra: QuantFn,
    /// Inter dequantization.
    pub dequant_inter: QuantFn,
}

/// The scalar reference table: exactly the crate's public scalar
/// functions, retained verbatim as the differential baseline.
static SCALAR: Kernels = Kernels {
    tier: KernelTier::Scalar,
    sad16: crate::sad::sad_16x16,
    sad8: crate::sad::sad_8x8,
    sad16_cutoff: crate::sad::sad_16x16_with_cutoff,
    sad8_cutoff: crate::sad::sad_8x8_with_cutoff,
    sad16_row_group: crate::sad::sad_16x16_row_group,
    sad16_half_pel: crate::sad::sad_half_pel_with_cutoff::<16>,
    sad8_half_pel: crate::sad::sad_half_pel_with_cutoff::<8>,
    interp: crate::interp::interpolate_half_pel,
    avg: crate::interp::average_pixels,
    copy_block: crate::interp::copy_block,
    quant_intra: crate::quant::quantize_intra,
    quant_inter: crate::quant::quantize_inter,
    dequant_intra: crate::quant::dequantize_intra,
    dequant_inter: crate::quant::dequantize_inter,
};

impl Kernels {
    /// The table for `tier`, or `None` when the CPU does not support it.
    pub fn for_tier(tier: KernelTier) -> Option<&'static Kernels> {
        if !tier.is_supported() {
            return None;
        }
        Some(match tier {
            KernelTier::Scalar => &SCALAR,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => &crate::kernels_x86::SSE2,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => &crate::kernels_x86::AVX2,
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("non-scalar tiers unsupported off x86_64"),
        })
    }
}

/// Sentinel for "not yet resolved from the environment".
const UNRESOLVED: u8 = u8::MAX;

/// The active tier id, `UNRESOLVED` until first use.
static ACTIVE: AtomicU8 = AtomicU8::new(UNRESOLVED);

fn tier_from_id(id: u8) -> KernelTier {
    match id {
        0 => KernelTier::Scalar,
        1 => KernelTier::Sse2,
        2 => KernelTier::Avx2,
        other => unreachable!("invalid tier id {other}"),
    }
}

/// Resolves `M4PS_KERNELS` (default `auto` = best supported tier).
///
/// # Panics
///
/// Panics on an unknown value or a forced tier the CPU cannot run —
/// a forced-tier CI job must fail (or skip with a notice *before*
/// invoking the tests), never silently fall back.
fn resolve_from_env() -> KernelTier {
    let want = std::env::var("M4PS_KERNELS").unwrap_or_default();
    let tier = match want.as_str() {
        "" | "auto" => *supported_tiers()
            .last()
            .expect("scalar is always supported"),
        name => {
            let tier = KernelTier::from_name(name).unwrap_or_else(|| {
                panic!("M4PS_KERNELS={name:?} unknown (expected scalar|sse2|avx2|auto)")
            });
            assert!(
                tier.is_supported(),
                "M4PS_KERNELS={name} forced but this CPU supports only {:?}",
                supported_tiers()
                    .iter()
                    .map(|t| t.name())
                    .collect::<Vec<_>>()
            );
            tier
        }
    };
    ACTIVE.store(tier as u8, Ordering::Release);
    tier
}

/// The currently active tier (resolving `M4PS_KERNELS` on first use).
pub fn active_tier() -> KernelTier {
    match ACTIVE.load(Ordering::Acquire) {
        UNRESOLVED => resolve_from_env(),
        id => tier_from_id(id),
    }
}

/// The active dispatch table. One relaxed-cost atomic load per call;
/// call sites fetch it once per kernel invocation, not per pixel.
pub fn kernels() -> &'static Kernels {
    Kernels::for_tier(active_tier()).expect("active tier is always supported")
}

/// Swaps the active table (tests and tier sweeps; `M4PS_KERNELS` covers
/// the subprocess case). Returns the previously active tier.
///
/// # Panics
///
/// Panics if `tier` is not supported on this CPU.
pub fn force_tier(tier: KernelTier) -> KernelTier {
    assert!(
        tier.is_supported(),
        "cannot force unsupported tier {}",
        tier.name()
    );
    let prev = active_tier();
    ACTIVE.store(tier as u8, Ordering::Release);
    prev
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_supported_and_first() {
        assert!(KernelTier::Scalar.is_supported());
        assert_eq!(supported_tiers()[0], KernelTier::Scalar);
    }

    #[test]
    fn names_round_trip() {
        for t in KernelTier::ALL {
            assert_eq!(KernelTier::from_name(t.name()), Some(t));
        }
        assert_eq!(KernelTier::from_name("neon"), None);
    }

    #[test]
    fn for_tier_matches_request() {
        for t in supported_tiers() {
            let k = Kernels::for_tier(t).expect("supported tier has a table");
            assert_eq!(k.tier, t);
        }
    }

    #[test]
    fn unsupported_tier_has_no_table() {
        for t in KernelTier::ALL {
            if !t.is_supported() {
                assert!(Kernels::for_tier(t).is_none());
            }
        }
    }

    #[test]
    fn force_tier_swaps_active_table() {
        let original = active_tier();
        for t in supported_tiers() {
            force_tier(t);
            assert_eq!(active_tier(), t);
            assert_eq!(kernels().tier, t);
        }
        force_tier(original);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn x86_64_always_has_sse2() {
        // The x86-64 baseline includes SSE2; the tier must be available
        // anywhere this test compiles natively (Miri excepted).
        if !cfg!(miri) {
            assert!(KernelTier::Sse2.is_supported());
        }
    }
}
