use crate::error::BitstreamError;
use crate::startcode::StartCode;

/// Reads bits most-significant-first from a byte slice.
///
/// # Examples
///
/// ```
/// use m4ps_bitstream::BitReader;
///
/// # fn main() -> Result<(), m4ps_bitstream::BitstreamError> {
/// let mut r = BitReader::new(&[0b1011_0010]);
/// assert_eq!(r.get_bits(4)?, 0b1011);
/// assert!(!r.get_bit()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor from the start of `bytes`.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Total number of bits in the underlying slice.
    pub fn total_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Bits remaining from the cursor to the end of the stream.
    pub fn remaining_bits(&self) -> u64 {
        self.total_bits() - self.pos
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// `true` when the cursor sits on a byte boundary.
    pub fn is_aligned(&self) -> bool {
        self.pos.is_multiple_of(8)
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::UnexpectedEnd`] at end of stream.
    pub fn get_bit(&mut self) -> Result<bool, BitstreamError> {
        if self.pos >= self.total_bits() {
            return Err(BitstreamError::UnexpectedEnd {
                requested: 1,
                remaining: 0,
            });
        }
        let byte = self.bytes[(self.pos / 8) as usize];
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit != 0)
    }

    /// Reads `n` bits as an unsigned value, most significant first.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::InvalidFieldWidth`] if `n` is outside
    /// `1..=32`, or [`BitstreamError::UnexpectedEnd`] if fewer than `n`
    /// bits remain.
    pub fn get_bits(&mut self, n: u32) -> Result<u32, BitstreamError> {
        if !(1..=crate::MAX_FIELD_BITS).contains(&n) {
            return Err(BitstreamError::InvalidFieldWidth(n));
        }
        if self.remaining_bits() < u64::from(n) {
            return Err(BitstreamError::UnexpectedEnd {
                requested: n,
                remaining: self.remaining_bits(),
            });
        }
        let mut v: u32 = 0;
        for _ in 0..n {
            v = (v << 1) | u32::from(self.get_bit()?);
        }
        Ok(v)
    }

    /// Reads `n` bits as a two's-complement signed value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BitReader::get_bits`].
    pub fn get_signed(&mut self, n: u32) -> Result<i32, BitstreamError> {
        let raw = self.get_bits(n)?;
        if n == 32 {
            return Ok(raw as i32);
        }
        let sign = 1u32 << (n - 1);
        if raw & sign != 0 {
            Ok((i64::from(raw) - (1i64 << n)) as i32)
        } else {
            Ok(raw as i32)
        }
    }

    /// Returns the next `n` bits without consuming them, zero-extended if
    /// fewer remain.
    pub fn peek_bits(&self, n: u32) -> u32 {
        let mut copy = self.clone();
        let mut v = 0u32;
        for _ in 0..n {
            v <<= 1;
            if let Ok(bit) = copy.get_bit() {
                v |= u32::from(bit);
            }
        }
        v
    }

    /// Skips `n` bits.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::UnexpectedEnd`] if fewer than `n` bits
    /// remain.
    pub fn skip_bits(&mut self, n: u64) -> Result<(), BitstreamError> {
        if self.remaining_bits() < n {
            return Err(BitstreamError::UnexpectedEnd {
                requested: n.min(u64::from(u32::MAX)) as u32,
                remaining: self.remaining_bits(),
            });
        }
        self.pos += n;
        Ok(())
    }

    /// Advances to the next byte boundary (no-op when aligned).
    pub fn align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// Moves the cursor to the absolute bit position `bit`. The
    /// slice-parallel decoder uses this to jump the coordinator's
    /// reader to positions its slice tasks (each holding a clone)
    /// established independently.
    ///
    /// # Panics
    ///
    /// Panics when `bit` lies past the end of the stream.
    pub fn seek_to(&mut self, bit: u64) {
        assert!(bit <= self.total_bits(), "seek past end of stream");
        self.pos = bit;
    }

    /// A clone that sees the stream only up to absolute bit `end`
    /// (rounded down to a byte, clamped to the stream, and never before
    /// the cursor): reads and scans past it behave as at end of stream.
    /// The slice-parallel decoder uses this to keep each slice's reads
    /// and recovery scans inside its own segment.
    pub fn bounded(&self, end: u64) -> Self {
        let end = ((end / 8) as usize).clamp(self.pos.div_ceil(8) as usize, self.bytes.len());
        BitReader {
            bytes: &self.bytes[..end],
            pos: self.pos,
        }
    }

    /// Consumes MPEG-4 stuffing (`0` then `1`s) up to the byte boundary,
    /// if the upcoming bits look like stuffing; otherwise just aligns.
    pub fn skip_stuffing(&mut self) {
        if self.is_aligned() {
            // A full aligned stuffing byte 0b0111_1111 may precede a
            // startcode; consume it if present.
            if self.remaining_bits() >= 8 && self.peek_bits(8) == 0b0111_1111 {
                let _ = self.skip_bits(8);
            }
            return;
        }
        self.align();
    }

    /// Scans forward for the next byte-aligned startcode prefix
    /// (`00 00 01`) and returns the full 32-bit startcode, leaving the
    /// cursor positioned *after* it.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::StartCodeNotFound`] if the stream ends
    /// without a startcode.
    pub fn next_start_code(&mut self) -> Result<u32, BitstreamError> {
        self.align();
        let mut byte = (self.pos / 8) as usize;
        while byte + 4 <= self.bytes.len() {
            if self.bytes[byte] == 0 && self.bytes[byte + 1] == 0 && self.bytes[byte + 2] == 1 {
                let code = u32::from_be_bytes([
                    self.bytes[byte],
                    self.bytes[byte + 1],
                    self.bytes[byte + 2],
                    self.bytes[byte + 3],
                ]);
                self.pos = (byte as u64 + 4) * 8;
                return Ok(code);
            }
            byte += 1;
        }
        self.pos = self.total_bits();
        Err(BitstreamError::StartCodeNotFound)
    }

    /// Scans forward for the next byte-aligned 16-bit `pattern`,
    /// leaving the cursor positioned *after* it. Returns `false` (with
    /// the cursor at end of stream) when the pattern does not occur.
    /// Used for resynchronization markers.
    pub fn scan_aligned_u16(&mut self, pattern: u16) -> bool {
        self.align();
        let mut byte = (self.pos / 8) as usize;
        let hi = (pattern >> 8) as u8;
        let lo = pattern as u8;
        while byte + 2 <= self.bytes.len() {
            if self.bytes[byte] == hi && self.bytes[byte + 1] == lo {
                self.pos = (byte as u64 + 2) * 8;
                return true;
            }
            byte += 1;
        }
        self.pos = self.total_bits();
        false
    }

    /// Like [`BitReader::next_start_code`] but requires the specific
    /// `expected` code at the current aligned position.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::StartCodeMismatch`] when a different code
    /// is present, or [`BitstreamError::UnexpectedEnd`] near end of stream.
    pub fn expect_start_code(&mut self, expected: StartCode) -> Result<(), BitstreamError> {
        self.align();
        let found = self.get_bits(32)?;
        if found != expected.value() {
            return Err(BitstreamError::StartCodeMismatch {
                expected: expected.value(),
                found,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::BitWriter;

    #[test]
    fn reads_msb_first() {
        let mut r = BitReader::new(&[0b1100_0001]);
        assert!(r.get_bit().unwrap());
        assert!(r.get_bit().unwrap());
        assert_eq!(r.get_bits(6).unwrap(), 1);
    }

    #[test]
    fn end_of_stream_errors() {
        let mut r = BitReader::new(&[0xff]);
        r.get_bits(8).unwrap();
        assert_eq!(
            r.get_bit(),
            Err(BitstreamError::UnexpectedEnd {
                requested: 1,
                remaining: 0
            })
        );
    }

    #[test]
    fn field_width_validation() {
        let mut r = BitReader::new(&[0, 0, 0, 0, 0]);
        assert_eq!(r.get_bits(0), Err(BitstreamError::InvalidFieldWidth(0)));
        assert_eq!(r.get_bits(33), Err(BitstreamError::InvalidFieldWidth(33)));
        assert_eq!(r.get_bits(32).unwrap(), 0);
    }

    #[test]
    fn signed_readback() {
        let mut w = BitWriter::new();
        for v in [-16i32, -1, 0, 1, 15] {
            w.put_signed(v, 5);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for v in [-16i32, -1, 0, 1, 15] {
            assert_eq!(r.get_signed(5).unwrap(), v);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = BitReader::new(&[0b1010_1010]);
        assert_eq!(r.peek_bits(4), 0b1010);
        assert_eq!(r.bit_pos(), 0);
        assert_eq!(r.get_bits(4).unwrap(), 0b1010);
    }

    #[test]
    fn peek_past_end_zero_extends() {
        let r = BitReader::new(&[0b1111_1111]);
        assert_eq!(r.peek_bits(12), 0b1111_1111_0000);
    }

    #[test]
    fn scan_finds_startcode_after_garbage() {
        let bytes = [0xde, 0xad, 0x00, 0x00, 0x01, 0xb6, 0x42];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.next_start_code().unwrap(), 0x0000_01b6);
        assert_eq!(r.get_bits(8).unwrap(), 0x42);
    }

    #[test]
    fn scan_without_startcode_errors() {
        let mut r = BitReader::new(&[1, 2, 3, 4, 5]);
        assert_eq!(r.next_start_code(), Err(BitstreamError::StartCodeNotFound));
    }

    #[test]
    fn expect_start_code_mismatch() {
        let bytes = [0x00, 0x00, 0x01, 0xb0];
        let mut r = BitReader::new(&bytes);
        let err = r
            .expect_start_code(StartCode::VideoObjectPlane)
            .unwrap_err();
        assert_eq!(
            err,
            BitstreamError::StartCodeMismatch {
                expected: 0x0000_01b6,
                found: 0x0000_01b0
            }
        );
    }

    #[test]
    fn writer_reader_roundtrip_mixed_fields() {
        let mut w = BitWriter::new();
        w.put_bits(0x3, 2);
        w.put_signed(-100, 9);
        w.put_bits(0xdead_beef & 0xffff, 16);
        w.put_bit(true);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(2).unwrap(), 0x3);
        assert_eq!(r.get_signed(9).unwrap(), -100);
        assert_eq!(r.get_bits(16).unwrap(), 0xbeef);
        assert!(r.get_bit().unwrap());
    }

    #[test]
    fn aligned_u16_scan_finds_pattern_and_positions_after() {
        let bytes = [0xaa, 0x5a, 0x3c, 0x77];
        let mut r = BitReader::new(&bytes);
        assert!(r.scan_aligned_u16(0x5a3c));
        assert_eq!(r.get_bits(8).unwrap(), 0x77);
        let mut r2 = BitReader::new(&bytes);
        assert!(!r2.scan_aligned_u16(0xdead));
        assert_eq!(r2.remaining_bits(), 0);
    }

    #[test]
    fn aligned_u16_scan_is_byte_aligned_only() {
        // The pattern exists only at a non-byte offset: must not match.
        // 0x5A3C shifted by 4 bits: bytes a5 a3 c0.
        let bytes = [0xa5, 0xa3, 0xc0];
        let mut r = BitReader::new(&bytes);
        assert!(!r.scan_aligned_u16(0x5a3c));
    }

    #[test]
    fn skip_stuffing_consumes_aligned_stuffing_byte() {
        let mut w = BitWriter::new();
        w.put_bits(0xaa, 8);
        w.stuff_to_alignment();
        w.put_bits(0x55, 8);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.get_bits(8).unwrap();
        r.skip_stuffing();
        assert_eq!(r.get_bits(8).unwrap(), 0x55);
    }
}
