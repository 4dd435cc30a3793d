//! Deterministic procedural textures.

use std::ops::Range;

/// A fast integer hash usable as position-stable noise: returns a value
/// in `0..=255` that is a pure function of its inputs.
///
/// Based on a 64-bit xorshift-multiply mix (splitmix64 finalizer).
pub fn hash_noise(seed: u64, x: i64, y: i64, t: u64) -> u8 {
    hash_at(row_key(seed, y, t), x)
}

/// The part of [`hash_noise`]'s pre-mix key that does not depend on `x`:
/// `hash_noise(seed, x, y, t) == hash_at(row_key(seed, y, t), x)`
/// exactly, because the key is a wrapping sum and its terms commute.
pub(crate) fn row_key(seed: u64, y: i64, t: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((y as u64).wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(t.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// [`hash_noise`] at column `x` of the row whose key is `row_key`.
pub(crate) fn hash_at(row_key: u64, x: i64) -> u8 {
    let mut h = row_key.wrapping_add((x as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h & 0xff) as u8
}

/// Smooth band-limited texture: a sum of two sinusoids plus low-amplitude
/// noise, clamped to `0..=255`. Smoothness matters — pure white noise
/// would make motion estimation useless and DCT residues unrealistic.
///
/// Writes the texture at `(x, y)` for `x` in `xs` to the first
/// `xs.len()` bytes of the `y - ys.start`-th slice of `rows`. Each value
/// is the per-pixel expression the tests keep as `smooth_texture(seed,
/// x, y, 0.0)`, evaluated on the same inputs in the same order; only the
/// factors that depend on one coordinate are computed once per column,
/// row or 4×4 noise cell instead of once per pixel.
///
/// # Panics
///
/// Panics if a row slice is shorter than `xs.len()`.
pub(crate) fn fill_smooth_texture<'a>(
    seed: u64,
    xs: Range<i64>,
    ys: Range<i64>,
    rows: impl IntoIterator<Item = &'a mut [u8]>,
) {
    let width = xs.clone().count();
    // The definition's `+ phase` and `- phase * 0.5` at phase 0.0 return
    // their left operand unchanged, so they are dropped here.
    let sin_x: Vec<f64> = xs.clone().map(|x| (x as f64 * 0.11).sin()).collect();
    // Noise term of each column for the current row of 4×4 cells. `/ 4`
    // truncates, so the cells around 0 are 7 wide; runs of equal `x / 4`
    // are detected rather than assumed.
    let mut noise = vec![0.0f64; width];
    let mut cell_row = None;
    for (y, line) in ys.zip(rows) {
        if cell_row != Some(y / 4) {
            cell_row = Some(y / 4);
            let key = row_key(seed, y / 4, 0);
            let mut cell: Option<(i64, f64)> = None;
            for (n, x) in noise.iter_mut().zip(xs.clone()) {
                *n = match cell {
                    Some((cx, v)) if cx == x / 4 => v,
                    _ => {
                        let v = f64::from(hash_at(key, x / 4)) / 255.0 * 24.0 - 12.0;
                        cell = Some((x / 4, v));
                        v
                    }
                };
            }
        }
        let fy = y as f64;
        let cos_y = (fy * 0.07).cos();
        for (((px, x), &sx), &n) in line[..width]
            .iter_mut()
            .zip(xs.clone())
            .zip(&sin_x)
            .zip(&noise)
        {
            let fx = x as f64;
            let s1 = (sx + cos_y) * 28.0;
            let s2 = ((fx * 0.031 + fy * 0.043).sin()) * 36.0;
            *px = (128.0 + s1 + s2 + n).clamp(0.0, 255.0) as u8;
        }
    }
}

/// The per-pixel texture definition, the reference that
/// [`fill_smooth_texture`] must reproduce at `phase == 0.0`.
#[cfg(test)]
pub(crate) fn smooth_texture(seed: u64, x: i64, y: i64, phase: f64) -> u8 {
    let fx = x as f64;
    let fy = y as f64;
    let s1 = ((fx * 0.11 + phase).sin() + (fy * 0.07 - phase * 0.5).cos()) * 28.0;
    let s2 = ((fx * 0.031 + fy * 0.043).sin()) * 36.0;
    let n = f64::from(hash_noise(seed, x / 4, y / 4, 0)) / 255.0 * 24.0 - 12.0;
    (128.0 + s1 + s2 + n).clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unsplit hash, kept as the reference for `row_key`/`hash_at`.
    fn hash_noise_reference(seed: u64, x: i64, y: i64, t: u64) -> u8 {
        let mut h = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((x as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add((y as u64).wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(t.wrapping_mul(0x2545_f491_4f6c_dd1d));
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h & 0xff) as u8
    }

    #[test]
    fn split_hash_matches_reference() {
        let mut rng = m4ps_testkit::rng::Rng::new(9);
        for _ in 0..10_000 {
            let (seed, t) = (rng.next_u64(), rng.next_u64());
            let (x, y) = (rng.next_u64() as i64, rng.next_u64() as i64);
            assert_eq!(
                hash_noise(seed, x, y, t),
                hash_noise_reference(seed, x, y, t)
            );
        }
        for (x, y) in [(0, 0), (-1, 1), (i64::MIN, i64::MAX), (7, -4)] {
            assert_eq!(hash_noise(3, x, y, 5), hash_noise_reference(3, x, y, 5));
        }
    }

    #[test]
    fn fill_matches_per_pixel_texture() {
        // Negative coordinates cover the 7-wide cells around zero.
        for (seed, xs, ys, stride) in [
            (0u64, -9i64..9, -9i64..9, 18usize),
            (u64::MAX, -120..121, -93..94, 241),
            (42, 0..100, 0..13, 140),
            (7, 700..800, 570..576, 100),
        ] {
            let rows = ys.clone().count();
            let mut out = vec![0xaa; rows * stride];
            fill_smooth_texture(seed, xs.clone(), ys.clone(), out.chunks_exact_mut(stride));
            for (r, y) in ys.clone().enumerate() {
                for (c, x) in xs.clone().enumerate() {
                    assert_eq!(
                        out[r * stride + c],
                        smooth_texture(seed, x, y, 0.0),
                        "({x}, {y})"
                    );
                }
                assert!(out[r * stride + xs.clone().count()..(r + 1) * stride]
                    .iter()
                    .all(|&b| b == 0xaa));
            }
        }
    }

    #[test]
    fn noise_is_deterministic() {
        assert_eq!(hash_noise(1, 2, 3, 4), hash_noise(1, 2, 3, 4));
    }

    #[test]
    fn noise_varies_with_each_input() {
        let base = hash_noise(1, 2, 3, 4);
        // At least one of several neighbours must differ for each input
        // dimension (a constant hash would break texture generation).
        assert!((0..16).any(|d| hash_noise(1 + d, 2, 3, 4) != base));
        assert!((0..16).any(|d| hash_noise(1, 2 + d as i64, 3, 4) != base));
        assert!((0..16).any(|d| hash_noise(1, 2, 3 + d as i64, 4) != base));
        assert!((0..16).any(|d| hash_noise(1, 2, 3, 4 + d) != base));
    }

    #[test]
    fn noise_distribution_is_roughly_uniform() {
        let mut counts = [0u32; 8];
        for i in 0..8000i64 {
            counts[(hash_noise(42, i, -i, 0) / 32) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 700 && c < 1300, "bucket count {c}");
        }
    }

    #[test]
    fn texture_is_smooth_locally() {
        // Adjacent pixels differ by a bounded amount most of the time.
        let mut big_jumps = 0;
        for x in 0..500i64 {
            let a = i16::from(smooth_texture(7, x, 10, 0.3));
            let b = i16::from(smooth_texture(7, x + 1, 10, 0.3));
            if (a - b).abs() > 40 {
                big_jumps += 1;
            }
        }
        assert!(big_jumps < 50, "{big_jumps} large jumps in 500 pixels");
    }

    #[test]
    fn texture_in_range() {
        for x in -100..100i64 {
            let _ = smooth_texture(3, x, x * 2, 1.5); // clamp guarantees u8
        }
    }
}
