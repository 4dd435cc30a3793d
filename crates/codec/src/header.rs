//! VOL and VOP headers with startcodes.
//!
//! A trimmed-down but structurally faithful version of the 14496-2
//! header syntax: a video-object-layer header carrying geometry and
//! shape/scalability flags, and a per-VOP header carrying coding type,
//! display index, quantizer and (for arbitrary-shape VOPs) the bounding
//! box of the shape.

use crate::error::CodecError;
use crate::types::VopKind;
use crate::vlc::{get_ue, put_ue};
use m4ps_bitstream::{BitReader, BitWriter, StartCode};

/// Largest frame width or height, in pixels, a VOL may declare: twice
/// the paper's largest size (2048×1024) per side. The decoder sizes its
/// reference frames from the VOL header, so this cap bounds that
/// allocation before any frame exists; the encoder enforces it too, so
/// it never writes a stream the decoder refuses.
pub const MAX_DIMENSION: usize = 4096;

/// Video-object-layer header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolHeader {
    /// Visual object id.
    pub vo_id: u32,
    /// Layer id within the object (0 = base layer).
    pub vol_id: u32,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// `true` for binary (arbitrary) shape, `false` for rectangular.
    pub binary_shape: bool,
    /// `true` when this layer is a (temporal) enhancement layer.
    pub enhancement: bool,
}

impl VolHeader {
    /// Writes the header (with its startcode) to `w`.
    pub fn write(&self, w: &mut BitWriter) {
        w.put_start_code(StartCode::VideoObjectLayer);
        put_ue(w, self.vo_id);
        put_ue(w, self.vol_id);
        put_ue(w, self.width as u32);
        put_ue(w, self.height as u32);
        w.put_bit(self.binary_shape);
        w.put_bit(self.enhancement);
    }

    /// Reads a header, scanning forward to its startcode.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on missing startcode or truncation.
    pub fn read(r: &mut BitReader<'_>) -> Result<VolHeader, CodecError> {
        let code = r.next_start_code()?;
        if code != StartCode::VideoObjectLayer.value() {
            return Err(CodecError::Bitstream(
                m4ps_bitstream::BitstreamError::StartCodeMismatch {
                    expected: StartCode::VideoObjectLayer.value(),
                    found: code,
                },
            ));
        }
        Self::parse_fields(r)
    }

    /// Parses the header fields following an already-consumed startcode.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or illegal field values.
    pub fn parse_fields(r: &mut BitReader<'_>) -> Result<VolHeader, CodecError> {
        let vo_id = get_ue(r)?;
        let vol_id = get_ue(r)?;
        let width = get_ue(r)? as usize;
        let height = get_ue(r)? as usize;
        if width == 0
            || height == 0
            || width > MAX_DIMENSION
            || height > MAX_DIMENSION
            || !width.is_multiple_of(2)
            || !height.is_multiple_of(2)
        {
            return Err(CodecError::InvalidStream("illegal VOL dimensions"));
        }
        let binary_shape = r.get_bit()?;
        let enhancement = r.get_bit()?;
        Ok(VolHeader {
            vo_id,
            vol_id,
            width,
            height,
            binary_shape,
            enhancement,
        })
    }
}

/// Per-VOP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VopHeader {
    /// Coding type (I/P/B).
    pub kind: VopKind,
    /// Display (temporal) index of this VOP.
    pub display_index: u32,
    /// Quantizer parameter used for this VOP.
    pub qp: u8,
    /// Bounding box `(x0, y0, w, h)` in macroblock-aligned pixels; only
    /// present for binary-shape layers.
    pub bbox: Option<(usize, usize, usize, usize)>,
    /// Resynchronization-marker interval in macroblocks (error
    /// resilience); `None` = no markers.
    pub resync_interval: Option<usize>,
    /// Number of macroblock-row slices this VOP is partitioned into
    /// (1 = unsliced). Each slice after the first opens with a
    /// byte-aligned marker carrying its first macroblock index, and no
    /// prediction crosses a slice boundary.
    pub slices: usize,
}

impl VopHeader {
    /// Writes the header (with its startcode) to `w`.
    ///
    /// # Panics
    ///
    /// Panics if `qp` is outside `1..=31` or a bounding box is not
    /// macroblock aligned.
    pub fn write(&self, w: &mut BitWriter) {
        assert!((1..=31).contains(&self.qp));
        w.put_start_code(StartCode::VideoObjectPlane);
        w.put_bits(self.kind.code(), 2);
        put_ue(w, self.display_index);
        w.put_bits(u32::from(self.qp), 5);
        match self.bbox {
            None => w.put_bit(false),
            Some((x0, y0, bw, bh)) => {
                assert!(
                    x0 % 16 == 0 && y0 % 16 == 0 && bw % 16 == 0 && bh % 16 == 0,
                    "bbox must be macroblock aligned"
                );
                w.put_bit(true);
                put_ue(w, (x0 / 16) as u32);
                put_ue(w, (y0 / 16) as u32);
                put_ue(w, (bw / 16) as u32);
                put_ue(w, (bh / 16) as u32);
            }
        }
        put_ue(w, self.resync_interval.unwrap_or(0) as u32);
        put_ue(w, self.slices.saturating_sub(1) as u32);
    }

    /// Reads a header, scanning forward to its startcode.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on missing startcode, truncation, or
    /// illegal field values.
    pub fn read(r: &mut BitReader<'_>) -> Result<VopHeader, CodecError> {
        let code = r.next_start_code()?;
        if code != StartCode::VideoObjectPlane.value() {
            return Err(CodecError::Bitstream(
                m4ps_bitstream::BitstreamError::StartCodeMismatch {
                    expected: StartCode::VideoObjectPlane.value(),
                    found: code,
                },
            ));
        }
        Self::parse_fields(r)
    }

    /// Parses the header fields following an already-consumed startcode.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or illegal field values.
    pub fn parse_fields(r: &mut BitReader<'_>) -> Result<VopHeader, CodecError> {
        let kind = VopKind::from_code(r.get_bits(2)?)
            .ok_or(CodecError::InvalidStream("illegal vop_coding_type"))?;
        let display_index = get_ue(r)?;
        let qp = r.get_bits(5)? as u8;
        if qp == 0 {
            return Err(CodecError::InvalidStream("vop_quant must be nonzero"));
        }
        let bbox = if r.get_bit()? {
            let x0 = get_ue(r)? as usize * 16;
            let y0 = get_ue(r)? as usize * 16;
            let bw = get_ue(r)? as usize * 16;
            let bh = get_ue(r)? as usize * 16;
            if bw == 0 || bh == 0 {
                return Err(CodecError::InvalidStream("empty shape bounding box"));
            }
            Some((x0, y0, bw, bh))
        } else {
            None
        };
        let resync = get_ue(r)? as usize;
        let slices = get_ue(r)? as usize + 1;
        if slices > 4096 {
            return Err(CodecError::InvalidStream("implausible slice count"));
        }
        Ok(VopHeader {
            kind,
            display_index,
            qp,
            bbox,
            resync_interval: (resync > 0).then_some(resync),
            slices,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vol_header_roundtrip() {
        let h = VolHeader {
            vo_id: 2,
            vol_id: 1,
            width: 720,
            height: 576,
            binary_shape: true,
            enhancement: false,
        };
        let mut w = BitWriter::new();
        h.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(VolHeader::read(&mut r).unwrap(), h);
    }

    #[test]
    fn vop_header_roundtrip_rectangular() {
        let h = VopHeader {
            kind: VopKind::P,
            display_index: 17,
            qp: 12,
            bbox: None,
            resync_interval: Some(22),
            slices: 1,
        };
        let mut w = BitWriter::new();
        w.put_bits(0x5a, 8); // arbitrary preceding payload
        h.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.get_bits(8).unwrap();
        assert_eq!(VopHeader::read(&mut r).unwrap(), h);
    }

    #[test]
    fn vop_header_roundtrip_with_bbox() {
        let h = VopHeader {
            kind: VopKind::B,
            display_index: 3,
            qp: 31,
            bbox: Some((32, 48, 160, 96)),
            resync_interval: None,
            slices: 3,
        };
        let mut w = BitWriter::new();
        h.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(VopHeader::read(&mut r).unwrap(), h);
    }

    #[test]
    fn zero_qp_is_rejected_on_read() {
        let mut w = BitWriter::new();
        w.put_start_code(StartCode::VideoObjectPlane);
        w.put_bits(VopKind::I.code(), 2);
        put_ue(&mut w, 0);
        w.put_bits(0, 5); // qp = 0: illegal
        w.put_bit(false);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(VopHeader::read(&mut r).is_err());
    }

    #[test]
    #[should_panic(expected = "macroblock aligned")]
    fn unaligned_bbox_panics_on_write() {
        let h = VopHeader {
            kind: VopKind::I,
            display_index: 0,
            qp: 8,
            bbox: Some((8, 0, 32, 32)),
            resync_interval: None,
            slices: 1,
        };
        let mut w = BitWriter::new();
        h.write(&mut w);
    }

    #[test]
    fn odd_vol_dimensions_rejected() {
        let mut w = BitWriter::new();
        w.put_start_code(StartCode::VideoObjectLayer);
        put_ue(&mut w, 0);
        put_ue(&mut w, 0);
        put_ue(&mut w, 721);
        put_ue(&mut w, 576);
        w.put_bit(false);
        w.put_bit(false);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(VolHeader::read(&mut r).is_err());
    }
}
