use crate::startcode::StartCode;

/// Accumulates bits most-significant-first into a growable byte buffer.
///
/// This mirrors the big-endian bit order used by all MPEG bitstreams.
///
/// # Examples
///
/// ```
/// use m4ps_bitstream::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.put_bit(true);
/// w.put_bits(0, 7);
/// assert_eq!(w.into_bytes(), vec![0b1000_0000]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits accumulated in the partial byte, MSB-first. Always < 8.
    pending: u8,
    pending_len: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(capacity),
            pending: 0,
            pending_len: 0,
        }
    }

    /// Appends a single bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.pending = (self.pending << 1) | u8::from(bit);
        self.pending_len += 1;
        if self.pending_len == 8 {
            self.bytes.push(self.pending);
            self.pending = 0;
            self.pending_len = 0;
        }
    }

    /// Appends the low `n` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 32, or if `value` does not fit
    /// in `n` bits.
    pub fn put_bits(&mut self, value: u32, n: u32) {
        assert!(
            (1..=crate::MAX_FIELD_BITS).contains(&n),
            "field width {n} out of range"
        );
        if n < 32 {
            assert!(
                value < (1u32 << n),
                "value {value:#x} does not fit in {n} bits"
            );
        }
        for shift in (0..n).rev() {
            self.put_bit((value >> shift) & 1 != 0);
        }
    }

    /// Appends a signed value as `n` bits two's-complement.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the signed range of `n` bits.
    pub fn put_signed(&mut self, value: i32, n: u32) {
        assert!((1..=crate::MAX_FIELD_BITS).contains(&n));
        let lo = -(1i64 << (n - 1));
        let hi = (1i64 << (n - 1)) - 1;
        assert!(
            (lo..=hi).contains(&i64::from(value)),
            "signed value {value} does not fit in {n} bits"
        );
        let mask = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        self.put_bits((value as u32) & mask, n);
    }

    /// Pads with zero bits up to the next byte boundary.
    ///
    /// Returns the number of stuffing bits written (0–7).
    pub fn align(&mut self) -> u32 {
        let pad = (8 - self.pending_len) % 8;
        for _ in 0..pad {
            self.put_bit(false);
        }
        pad
    }

    /// MPEG-4 `next_start_code()` stuffing: a zero bit followed by ones up
    /// to the byte boundary. Always writes at least one bit if unaligned;
    /// if already aligned, writes a full `0111_1111` stuffing byte.
    pub fn stuff_to_alignment(&mut self) {
        self.put_bit(false);
        while self.pending_len != 0 {
            self.put_bit(true);
        }
    }

    /// Writes a byte-aligned startcode (aligning first if necessary).
    pub fn put_start_code(&mut self, code: StartCode) {
        self.align();
        let v = code.value();
        self.bytes
            .extend_from_slice(&[(v >> 24) as u8, (v >> 16) as u8, (v >> 8) as u8, v as u8]);
    }

    /// Number of whole bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.pending_len)
    }

    /// `true` when the writer is at a byte boundary.
    pub fn is_aligned(&self) -> bool {
        self.pending_len == 0
    }

    /// Finishes the stream, zero-padding the final partial byte, and
    /// returns the underlying bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align();
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_pack_msb_first() {
        let mut w = BitWriter::new();
        for bit in [true, false, true, true, false, false, true, false] {
            w.put_bit(bit);
        }
        assert_eq!(w.into_bytes(), vec![0b1011_0010]);
    }

    #[test]
    fn multibit_fields_cross_byte_boundaries() {
        let mut w = BitWriter::new();
        w.put_bits(0b1_0110, 5);
        w.put_bits(0b101_0101_0101, 11);
        assert_eq!(w.into_bytes(), vec![0b1011_0101, 0b0101_0101]);
    }

    #[test]
    fn signed_roundtrip_negative() {
        let mut w = BitWriter::new();
        w.put_signed(-3, 5);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0] >> 3, 0b11101);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut w = BitWriter::new();
        w.put_bits(8, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_panics() {
        let mut w = BitWriter::new();
        w.put_bits(0, 0);
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.put_bits(0b111, 3);
        assert_eq!(w.align(), 5);
        assert!(w.is_aligned());
        assert_eq!(w.into_bytes(), vec![0b1110_0000]);
    }

    #[test]
    fn align_on_boundary_is_noop() {
        let mut w = BitWriter::new();
        w.put_bits(0xab, 8);
        assert_eq!(w.align(), 0);
        assert_eq!(w.bit_len(), 8);
    }

    #[test]
    fn stuffing_writes_zero_then_ones() {
        let mut w = BitWriter::new();
        w.put_bits(0b10, 2);
        w.stuff_to_alignment();
        assert_eq!(w.into_bytes(), vec![0b1001_1111]);
    }

    #[test]
    fn stuffing_on_aligned_stream_writes_full_byte() {
        let mut w = BitWriter::new();
        w.put_bits(0xff, 8);
        w.stuff_to_alignment();
        assert_eq!(w.into_bytes(), vec![0xff, 0b0111_1111]);
    }

    #[test]
    fn startcode_is_byte_aligned() {
        let mut w = BitWriter::new();
        w.put_bits(0b1, 1);
        w.put_start_code(StartCode::VideoObjectPlane);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[1..5], &[0x00, 0x00, 0x01, 0xb6]);
    }

    #[test]
    fn bit_len_tracks_pending_bits() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.put_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.put_bits(0x1ff, 9);
        assert_eq!(w.bit_len(), 12);
    }
}
