//! 8×8 forward and inverse discrete cosine transform.
//!
//! MPEG-4 texture coding (ISO/IEC 14496-2 Annex A) specifies a separable
//! 2-D type-II DCT. We provide a double-precision reference implementation
//! (`*_f64`) and the integer-in/integer-out pair the codec uses, which
//! rounds to the nearest coefficient. The inverse transform satisfies the
//! IEEE-1180-style accuracy needed for drift-free reconstruction at the
//! bit depths this codec uses.

use crate::{Block, BLOCK};

/// Approximate compute operations per 8×8 DCT or IDCT (two passes of
/// eight 8-point transforms, ~32 mul + ~32 add each). Charged to the
/// timing model per transformed block.
pub const DCT_OPS: u64 = 1024;

/// An 8×8 block of DCT coefficients (row-major, DC at index 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoefBlock {
    /// Row-major 8×8 coefficients.
    pub data: [i16; 64],
}

impl Default for CoefBlock {
    fn default() -> Self {
        CoefBlock { data: [0; 64] }
    }
}

impl CoefBlock {
    /// The DC (0,0) coefficient.
    pub fn dc(&self) -> i16 {
        self.data[0]
    }

    /// `true` when every coefficient is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }
}

/// Precomputed transform basis, materialised once.
///
/// `cos` is the basis `cos[k][n] = cos((2n+1) k π / 16)`; `cos_t` is
/// its exact transpose (the same `f64` values, copied) so both loop
/// orientations read contiguous rows; `scale` holds the orthonormal
/// scale factors. The basis is a pure function of the block size, but
/// `cos` is not a `const fn`, so the tables are built lazily and
/// shared — rebuilding them per call cost 64 libm `cos` evaluations
/// per DCT, which dominated encode profiles.
struct Tables {
    cos: [[f64; BLOCK]; BLOCK],
    cos_t: [[f64; BLOCK]; BLOCK],
    scale: [f64; BLOCK],
}

fn tables() -> &'static Tables {
    static TABLES: std::sync::OnceLock<Tables> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut cos = [[0.0; BLOCK]; BLOCK];
        for (k, row) in cos.iter_mut().enumerate() {
            for (n, v) in row.iter_mut().enumerate() {
                *v = (std::f64::consts::PI * (2.0 * n as f64 + 1.0) * k as f64 / 16.0).cos();
            }
        }
        let mut cos_t = [[0.0; BLOCK]; BLOCK];
        for k in 0..BLOCK {
            for n in 0..BLOCK {
                cos_t[n][k] = cos[k][n];
            }
        }
        let mut scale = [(2.0f64 / 8.0).sqrt(); BLOCK];
        scale[0] = (1.0f64 / 8.0).sqrt();
        Tables { cos, cos_t, scale }
    })
}

/// Forward 2-D DCT on `f64` samples. Reference implementation.
///
/// The loops run the eight per-`k` accumulators side by side so the
/// compiler can vectorise across them; each accumulator still sums the
/// same products in the same ascending-`n` order as the textbook
/// per-coefficient loop, so results are bit-identical to it (verified
/// by `matches_naive_transcription_bit_for_bit` below). Rust performs
/// no FP contraction or reassociation, so this holds on every target.
pub fn forward_dct_f64(input: &[f64; 64]) -> [f64; 64] {
    #[cfg(target_arch = "x86_64")]
    if crate::dispatch::active_tier() == crate::dispatch::KernelTier::Avx2 {
        // SAFETY: the dispatch tier is only Avx2 after feature
        // detection succeeded. `vmulpd`/`vaddpd` are IEEE-754 exact per
        // lane and the kernel performs the same operations in the same
        // order, so lane width does not change any rounding (pinned by
        // the bit-for-bit test) — tier selection affects speed only.
        return unsafe { avx2::forward(input) };
    }
    forward_passes(input)
}

#[inline(always)]
fn forward_passes(input: &[f64; 64]) -> [f64; 64] {
    // Both passes walk two independent rows (or columns) per
    // iteration: each accumulator still sums its own products in
    // ascending-`n` order (bit-identical to the one-row form), but the
    // two interleaved dependency chains hide FP add latency and share
    // each basis-row load.
    let t = tables();
    let mut tmp = [0.0f64; 64];
    // Rows.
    for r in 0..BLOCK / 2 {
        let (ra, rb) = (2 * r, 2 * r + 1);
        let mut acc_a = [0.0f64; BLOCK];
        let mut acc_b = [0.0f64; BLOCK];
        for n in 0..BLOCK {
            let xa = input[ra * BLOCK + n];
            let xb = input[rb * BLOCK + n];
            for k in 0..BLOCK {
                acc_a[k] += xa * t.cos_t[n][k];
                acc_b[k] += xb * t.cos_t[n][k];
            }
        }
        for k in 0..BLOCK {
            tmp[ra * BLOCK + k] = t.scale[k] * acc_a[k];
            tmp[rb * BLOCK + k] = t.scale[k] * acc_b[k];
        }
    }
    // Columns.
    let mut out = [0.0f64; 64];
    for c in 0..BLOCK / 2 {
        let (ca, cb) = (2 * c, 2 * c + 1);
        let mut acc_a = [0.0f64; BLOCK];
        let mut acc_b = [0.0f64; BLOCK];
        for n in 0..BLOCK {
            let xa = tmp[n * BLOCK + ca];
            let xb = tmp[n * BLOCK + cb];
            for k in 0..BLOCK {
                acc_a[k] += xa * t.cos_t[n][k];
                acc_b[k] += xb * t.cos_t[n][k];
            }
        }
        for k in 0..BLOCK {
            out[k * BLOCK + ca] = t.scale[k] * acc_a[k];
            out[k * BLOCK + cb] = t.scale[k] * acc_b[k];
        }
    }
    out
}

/// Inverse 2-D DCT on `f64` coefficients. Reference implementation.
///
/// Accumulates the eight per-`n` sums side by side (same bit-exactness
/// argument as [`forward_dct_f64`]): the weight `scale(k) · input` is
/// formed first exactly as the naive loop's left-associated product,
/// then each `acc[n]` adds `weight · cos[k][n]` in ascending-`k` order.
pub fn inverse_dct_f64(input: &[f64; 64]) -> [f64; 64] {
    #[cfg(target_arch = "x86_64")]
    if crate::dispatch::active_tier() == crate::dispatch::KernelTier::Avx2 {
        // SAFETY: as in `forward_dct_f64` — tier implies detection
        // succeeded; rounding unchanged by lane width.
        return unsafe { avx2::inverse(input) };
    }
    inverse_passes(input)
}

/// Explicit 4-lane AVX2 kernels for both transforms.
///
/// Each output coefficient's accumulator executes the same multiplies
/// and additions in the same order as the scalar passes — one product
/// per basis index, summed ascending — only grouped four accumulators
/// to a vector register. `vmulpd`/`vaddpd` round each lane exactly like
/// the corresponding scalar `mulsd`/`addsd` (IEEE-754 binary64), and no
/// FMA contraction or reassociation is introduced, so the results are
/// bit-identical to the scalar code and to the naive transcription
/// (pinned by `matches_naive_transcription_bit_for_bit`).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{tables, BLOCK};
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn forward(input: &[f64; 64]) -> [f64; 64] {
        let t = tables();
        // Rows: tmp[r][k] = scale[k] · Σ_n input[r][n]·cos_t[n][k],
        // vector lanes spanning k.
        let s_lo = _mm256_loadu_pd(t.scale.as_ptr());
        let s_hi = _mm256_loadu_pd(t.scale.as_ptr().add(4));
        let mut tmp = [0.0f64; 64];
        for r in 0..BLOCK {
            let mut acc_lo = _mm256_setzero_pd();
            let mut acc_hi = _mm256_setzero_pd();
            for n in 0..BLOCK {
                let x = _mm256_set1_pd(input[r * BLOCK + n]);
                let c_lo = _mm256_loadu_pd(t.cos_t[n].as_ptr());
                let c_hi = _mm256_loadu_pd(t.cos_t[n].as_ptr().add(4));
                acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(x, c_lo));
                acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(x, c_hi));
            }
            _mm256_storeu_pd(tmp.as_mut_ptr().add(r * BLOCK), _mm256_mul_pd(s_lo, acc_lo));
            _mm256_storeu_pd(
                tmp.as_mut_ptr().add(r * BLOCK + 4),
                _mm256_mul_pd(s_hi, acc_hi),
            );
        }
        // Columns: out[k][c] = scale[k] · Σ_n tmp[n][c]·cos_t[n][k],
        // vector lanes spanning c so every load is a contiguous row.
        let mut out = [0.0f64; 64];
        for k in 0..BLOCK {
            let mut acc_lo = _mm256_setzero_pd();
            let mut acc_hi = _mm256_setzero_pd();
            for n in 0..BLOCK {
                let c = _mm256_set1_pd(t.cos_t[n][k]);
                let x_lo = _mm256_loadu_pd(tmp.as_ptr().add(n * BLOCK));
                let x_hi = _mm256_loadu_pd(tmp.as_ptr().add(n * BLOCK + 4));
                acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(x_lo, c));
                acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(x_hi, c));
            }
            let s = _mm256_set1_pd(t.scale[k]);
            _mm256_storeu_pd(out.as_mut_ptr().add(k * BLOCK), _mm256_mul_pd(s, acc_lo));
            _mm256_storeu_pd(
                out.as_mut_ptr().add(k * BLOCK + 4),
                _mm256_mul_pd(s, acc_hi),
            );
        }
        out
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn inverse(input: &[f64; 64]) -> [f64; 64] {
        let t = tables();
        // Weight rows w[k][c] = scale[k]·input[k][c], formed first
        // exactly like the scalar loop's left-associated product.
        let mut w = [0.0f64; 64];
        for k in 0..BLOCK {
            let s = _mm256_set1_pd(t.scale[k]);
            let i_lo = _mm256_loadu_pd(input.as_ptr().add(k * BLOCK));
            let i_hi = _mm256_loadu_pd(input.as_ptr().add(k * BLOCK + 4));
            _mm256_storeu_pd(w.as_mut_ptr().add(k * BLOCK), _mm256_mul_pd(s, i_lo));
            _mm256_storeu_pd(w.as_mut_ptr().add(k * BLOCK + 4), _mm256_mul_pd(s, i_hi));
        }
        // Columns: tmp[n][c] = Σ_k w[k][c]·cos[k][n], lanes spanning c.
        let mut tmp = [0.0f64; 64];
        for n in 0..BLOCK {
            let mut acc_lo = _mm256_setzero_pd();
            let mut acc_hi = _mm256_setzero_pd();
            for k in 0..BLOCK {
                let c = _mm256_set1_pd(t.cos[k][n]);
                let w_lo = _mm256_loadu_pd(w.as_ptr().add(k * BLOCK));
                let w_hi = _mm256_loadu_pd(w.as_ptr().add(k * BLOCK + 4));
                acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(w_lo, c));
                acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(w_hi, c));
            }
            _mm256_storeu_pd(tmp.as_mut_ptr().add(n * BLOCK), acc_lo);
            _mm256_storeu_pd(tmp.as_mut_ptr().add(n * BLOCK + 4), acc_hi);
        }
        // Rows: out[r][n] = Σ_k (scale[k]·tmp[r][k])·cos[k][n], lanes
        // spanning n.
        let mut out = [0.0f64; 64];
        for r in 0..BLOCK {
            let mut acc_lo = _mm256_setzero_pd();
            let mut acc_hi = _mm256_setzero_pd();
            for k in 0..BLOCK {
                let wv = _mm256_set1_pd(t.scale[k] * tmp[r * BLOCK + k]);
                let c_lo = _mm256_loadu_pd(t.cos[k].as_ptr());
                let c_hi = _mm256_loadu_pd(t.cos[k].as_ptr().add(4));
                acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(wv, c_lo));
                acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(wv, c_hi));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(r * BLOCK), acc_lo);
            _mm256_storeu_pd(out.as_mut_ptr().add(r * BLOCK + 4), acc_hi);
        }
        out
    }
}

#[inline(always)]
fn inverse_passes(input: &[f64; 64]) -> [f64; 64] {
    // Two independent columns (then rows) per iteration, as in
    // `forward_passes`: same per-accumulator operation order, twice the
    // instruction-level parallelism, shared basis-row loads.
    let t = tables();
    let mut tmp = [0.0f64; 64];
    // Columns first (order is irrelevant for a separable transform).
    for c in 0..BLOCK / 2 {
        let (ca, cb) = (2 * c, 2 * c + 1);
        let mut acc_a = [0.0f64; BLOCK];
        let mut acc_b = [0.0f64; BLOCK];
        for k in 0..BLOCK {
            let wa = t.scale[k] * input[k * BLOCK + ca];
            let wb = t.scale[k] * input[k * BLOCK + cb];
            for n in 0..BLOCK {
                acc_a[n] += wa * t.cos[k][n];
                acc_b[n] += wb * t.cos[k][n];
            }
        }
        for n in 0..BLOCK {
            tmp[n * BLOCK + ca] = acc_a[n];
            tmp[n * BLOCK + cb] = acc_b[n];
        }
    }
    let mut out = [0.0f64; 64];
    for r in 0..BLOCK / 2 {
        let (ra, rb) = (2 * r, 2 * r + 1);
        let mut acc_a = [0.0f64; BLOCK];
        let mut acc_b = [0.0f64; BLOCK];
        for k in 0..BLOCK {
            let wa = t.scale[k] * tmp[ra * BLOCK + k];
            let wb = t.scale[k] * tmp[rb * BLOCK + k];
            for n in 0..BLOCK {
                acc_a[n] += wa * t.cos[k][n];
                acc_b[n] += wb * t.cos[k][n];
            }
        }
        out[ra * BLOCK..][..BLOCK].copy_from_slice(&acc_a);
        out[rb * BLOCK..][..BLOCK].copy_from_slice(&acc_b);
    }
    out
}

/// Forward DCT of integer samples with round-to-nearest coefficients.
pub fn forward_dct(block: &Block) -> CoefBlock {
    // An all-zero block transforms to exactly zero (every accumulator
    // sums products with 0.0, scales to ±0.0 and rounds to 0), so the
    // O(N³) float passes can be skipped bit-identically. The encoder's
    // inter path hits this constantly on static content.
    if block.is_zero() {
        return CoefBlock::default();
    }
    let mut f = [0.0f64; 64];
    for (dst, &src) in f.iter_mut().zip(block.data.iter()) {
        *dst = f64::from(src);
    }
    let out = forward_dct_f64(&f);
    let mut c = CoefBlock::default();
    for (dst, &src) in c.data.iter_mut().zip(out.iter()) {
        *dst = src.round().clamp(-32768.0, 32767.0) as i16;
    }
    c
}

/// Inverse DCT of integer coefficients with round-to-nearest samples.
pub fn inverse_dct(coefs: &CoefBlock) -> Block {
    // Mirror of the forward zero short-circuit: dequantized all-zero
    // coefficients reconstruct to exactly zero samples. Quantization
    // zeroes most inter blocks, so the local-decode loop takes this
    // path for the bulk of reconstructions.
    if coefs.is_zero() {
        return Block::default();
    }
    let mut f = [0.0f64; 64];
    for (dst, &src) in f.iter_mut().zip(coefs.data.iter()) {
        *dst = f64::from(src);
    }
    let out = inverse_dct_f64(&f);
    let mut b = Block::default();
    for (dst, &src) in b.data.iter_mut().zip(out.iter()) {
        *dst = src.round().clamp(-32768.0, 32767.0) as i16;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_only_block_transforms_to_flat_dc() {
        // A constant block has all energy in the DC coefficient.
        let b = Block::from_samples([100; 64]);
        let c = forward_dct(&b);
        assert_eq!(c.dc(), 800); // 100 * 8 (1/sqrt(64) * 64 samples * 100)
        for &v in &c.data[1..] {
            assert_eq!(v, 0);
        }
    }

    #[test]
    fn impulse_roundtrips_within_one() {
        let mut b = Block::default();
        b.data[27] = 255;
        let rec = inverse_dct(&forward_dct(&b));
        for i in 0..64 {
            assert!(
                (rec.data[i] - b.data[i]).abs() <= 1,
                "index {i}: {} vs {}",
                rec.data[i],
                b.data[i]
            );
        }
    }

    #[test]
    fn parseval_energy_preserved_f64() {
        // Orthonormal transform preserves the L2 norm.
        let mut input = [0.0f64; 64];
        for (i, v) in input.iter_mut().enumerate() {
            *v = ((i * 37 + 11) % 255) as f64 - 128.0;
        }
        let out = forward_dct_f64(&input);
        let e_in: f64 = input.iter().map(|v| v * v).sum();
        let e_out: f64 = out.iter().map(|v| v * v).sum();
        assert!((e_in - e_out).abs() < 1e-6 * e_in.max(1.0));
    }

    #[test]
    fn inverse_is_exact_inverse_f64() {
        let mut input = [0.0f64; 64];
        for (i, v) in input.iter_mut().enumerate() {
            *v = ((i as f64) * 1.7).sin() * 100.0;
        }
        let rec = inverse_dct_f64(&forward_dct_f64(&input));
        for i in 0..64 {
            assert!((rec[i] - input[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_naive_transcription_bit_for_bit() {
        // The production loops interleave the eight accumulators for
        // vectorisation; this pins them against a direct transcription
        // of the textbook per-coefficient loops. Equality is exact
        // (`to_bits`), not approximate — the restructuring must not
        // change a single rounding.
        fn scale(k: usize) -> f64 {
            if k == 0 {
                (1.0f64 / 8.0).sqrt()
            } else {
                (2.0f64 / 8.0).sqrt()
            }
        }
        let cos = &tables().cos;
        let naive_fwd = |input: &[f64; 64]| {
            let mut tmp = [0.0f64; 64];
            for r in 0..BLOCK {
                for k in 0..BLOCK {
                    let mut acc = 0.0;
                    for n in 0..BLOCK {
                        acc += input[r * BLOCK + n] * cos[k][n];
                    }
                    tmp[r * BLOCK + k] = scale(k) * acc;
                }
            }
            let mut out = [0.0f64; 64];
            for c in 0..BLOCK {
                for k in 0..BLOCK {
                    let mut acc = 0.0;
                    for n in 0..BLOCK {
                        acc += tmp[n * BLOCK + c] * cos[k][n];
                    }
                    out[k * BLOCK + c] = scale(k) * acc;
                }
            }
            out
        };
        let naive_inv = |input: &[f64; 64]| {
            let mut tmp = [0.0f64; 64];
            for c in 0..BLOCK {
                for n in 0..BLOCK {
                    let mut acc = 0.0;
                    for k in 0..BLOCK {
                        acc += scale(k) * input[k * BLOCK + c] * cos[k][n];
                    }
                    tmp[n * BLOCK + c] = acc;
                }
            }
            let mut out = [0.0f64; 64];
            for r in 0..BLOCK {
                for n in 0..BLOCK {
                    let mut acc = 0.0;
                    for k in 0..BLOCK {
                        acc += scale(k) * tmp[r * BLOCK + k] * cos[k][n];
                    }
                    out[r * BLOCK + n] = acc;
                }
            }
            out
        };
        let mut state = 0x2545f4914f6cdd1du64;
        for _ in 0..50 {
            let mut input = [0.0f64; 64];
            for v in input.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *v = f64::from((state % 511) as i32 - 255);
            }
            let fast = forward_dct_f64(&input);
            let slow = naive_fwd(&input);
            for i in 0..64 {
                assert_eq!(fast[i].to_bits(), slow[i].to_bits(), "fwd idx {i}");
            }
            let fast = inverse_dct_f64(&input);
            let slow = naive_inv(&input);
            for i in 0..64 {
                assert_eq!(fast[i].to_bits(), slow[i].to_bits(), "inv idx {i}");
            }
        }
    }

    #[test]
    fn zero_block_short_circuits_exactly() {
        assert_eq!(forward_dct(&Block::default()), CoefBlock::default());
        assert_eq!(inverse_dct(&CoefBlock::default()), Block::default());
        // And the short-circuit agrees with what the full pipeline
        // would have produced.
        let f = forward_dct_f64(&[0.0; 64]);
        assert!(f.iter().all(|v| v.round() == 0.0));
    }

    #[test]
    fn horizontal_gradient_concentrates_in_first_row_coefs() {
        let mut b = Block::default();
        for r in 0..8 {
            for c in 0..8 {
                *b.at_mut(r, c) = (c as i16) * 16;
            }
        }
        let coefs = forward_dct(&b);
        // Energy should live in row 0 (horizontal frequencies) only.
        for r in 1..8 {
            for c in 0..8 {
                assert_eq!(coefs.data[r * 8 + c], 0, "row {r} col {c}");
            }
        }
        assert_ne!(coefs.data[1], 0);
    }
}
