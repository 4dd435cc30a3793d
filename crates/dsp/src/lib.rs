//! Signal-processing kernels for the MPEG-4 visual codec.
//!
//! These are the compute kernels the paper names as the classic targets of
//! MPEG memory optimization: the 8×8 discrete cosine transform used for
//! texture coding, quantization, zigzag scanning, the sum-of-absolute-
//! differences (SAD) criterion used by motion estimation, and half-pel
//! interpolation used by motion compensation.
//!
//! The kernels are *pure*: they operate on plain slices and perform no
//! memory-trace accounting. The codec layer issues the corresponding
//! simulated-memory accesses around calls into this crate, and uses the
//! per-kernel `*_OPS` constants to charge compute cycles to the timing
//! model.
//!
//! # Examples
//!
//! ```
//! use m4ps_dsp::{Block, forward_dct, inverse_dct};
//!
//! let mut spatial = Block::default();
//! spatial.data[0] = 128;
//! let freq = forward_dct(&spatial);
//! let back = inverse_dct(&freq);
//! assert!((back.data[0] - spatial.data[0]).abs() <= 1);
//! ```

mod dct;
pub mod dispatch;
mod interp;
#[cfg(target_arch = "x86_64")]
mod kernels_x86;
mod quant;
mod sad;
mod zigzag;

pub use dct::{forward_dct, forward_dct_f64, inverse_dct, inverse_dct_f64, CoefBlock, DCT_OPS};
pub use dispatch::{active_tier, force_tier, kernels, supported_tiers, KernelTier, Kernels};
pub use interp::{average_pixels, copy_block, interpolate_half_pel, HalfPel, INTERP_OPS_PER_PIXEL};
pub use quant::{
    dequantize_inter, dequantize_intra, inter_zero_bound, quantize_inter, quantize_intra, QUANT_OPS,
};
pub use sad::{
    row_group_lane, sad_16x16, sad_16x16_row_group, sad_16x16_with_cutoff, sad_8x8,
    sad_8x8_with_cutoff, sad_half_pel_with_cutoff, RowGroup, RowSums, ROW_GROUP_LANES, SAD16_OPS,
    SAD8_OPS,
};
pub use zigzag::{scan_zigzag, unscan_zigzag, ZIGZAG};

/// Side length of a DCT block.
pub const BLOCK: usize = 8;
/// Side length of a macroblock (luminance).
pub const MB: usize = 16;

/// An 8×8 block of spatial-domain samples (row-major), as signed residues
/// or level-shifted pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Row-major 8×8 sample values.
    pub data: [i16; 64],
}

impl Default for Block {
    fn default() -> Self {
        Block { data: [0; 64] }
    }
}

impl Block {
    /// Creates a block from row-major samples.
    pub fn from_samples(data: [i16; 64]) -> Self {
        Block { data }
    }

    /// Sample at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is 8 or more.
    pub fn at(&self, row: usize, col: usize) -> i16 {
        assert!(row < BLOCK && col < BLOCK);
        self.data[row * BLOCK + col]
    }

    /// Mutable sample at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is 8 or more.
    pub fn at_mut(&mut self, row: usize, col: usize) -> &mut i16 {
        assert!(row < BLOCK && col < BLOCK);
        &mut self.data[row * BLOCK + col]
    }

    /// `true` when every sample is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_indexing_is_row_major() {
        let mut b = Block::default();
        *b.at_mut(2, 3) = 42;
        assert_eq!(b.data[2 * 8 + 3], 42);
        assert_eq!(b.at(2, 3), 42);
    }

    #[test]
    fn zero_detection() {
        let mut b = Block::default();
        assert!(b.is_zero());
        *b.at_mut(7, 7) = -1;
        assert!(!b.is_zero());
    }

    #[test]
    #[should_panic]
    fn out_of_range_index_panics() {
        let b = Block::default();
        b.at(8, 0);
    }
}
