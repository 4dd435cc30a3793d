//! Encoder configuration.

use crate::error::CodecError;

/// Motion-search algorithm.
///
/// The paper's description ("MPEG-4 performs this search sequentially
/// over restricted windows inside the image, with an offset between
/// searches of just one pixel") is exhaustive full search, the MoMuSys
/// default. The fast strategies exist for the ablation benches that
/// quantify how much of the observed locality comes from the search
/// discipline itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// Exhaustive scan of every integer-pel candidate in the window.
    FullSearch,
    /// Classic three-step (logarithmic) search.
    ThreeStep,
    /// Diamond search (large diamond until centered, then small).
    Diamond,
}

/// Group-of-pictures structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GopStructure {
    /// Distance between I-VOPs in display order (the GOP length).
    pub intra_period: usize,
    /// Number of B-VOPs between consecutive anchors.
    pub b_frames: usize,
}

impl GopStructure {
    /// The classic IBBP structure (two B-VOPs between anchors, I every
    /// 12 frames).
    pub fn ibbp() -> Self {
        GopStructure {
            intra_period: 12,
            b_frames: 2,
        }
    }
}

/// Full encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    /// GOP structure.
    pub gop: GopStructure,
    /// Integer-pel search range ±R around the predictor.
    pub search_range: i16,
    /// Search algorithm.
    pub search: SearchStrategy,
    /// Enable half-pel refinement around the integer-pel winner.
    pub half_pel: bool,
    /// Initial quantizer parameter (1..=31).
    pub initial_qp: u8,
    /// Target bitrate in bits/s (`None` = constant QP). The paper uses
    /// 38400.
    pub bitrate: Option<u32>,
    /// Frame rate in Hz (the paper uses 30).
    pub frame_rate: f64,
    /// Issue software prefetches in the streaming copy loops, mimicking
    /// the MIPSpro compiler's conservative insertion.
    pub software_prefetch: bool,
    /// Enable the advanced-prediction mode: four 8×8 motion vectors per
    /// macroblock where they beat the single 16×16 vector.
    pub four_mv: bool,
    /// Error resilience: insert a resynchronization marker every this
    /// many macroblocks (prediction state resets at each marker).
    pub resync_mb_interval: Option<usize>,
    /// Number of macroblock-row slices each VOP is partitioned into
    /// (1 = unsliced). Slices are independently decodable segments —
    /// prediction state resets at every slice boundary — and they are
    /// the unit of work for the parallel encoder. The slice count is an
    /// *encoding* parameter carried in the bitstream: it changes what
    /// is coded, while the thread count only changes who codes it, so
    /// output stays bit-exact for any thread count.
    pub slices: usize,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            gop: GopStructure::ibbp(),
            search_range: 8,
            search: SearchStrategy::FullSearch,
            half_pel: true,
            initial_qp: 8,
            bitrate: Some(38_400),
            frame_rate: 30.0,
            software_prefetch: true,
            four_mv: false,
            resync_mb_interval: None,
            slices: 1,
        }
    }
}

impl EncoderConfig {
    /// The configuration used for the paper-reproduction experiments
    /// (defaults; spelled out for discoverability).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A cheap configuration for unit tests: small search range, IPP,
    /// constant QP.
    pub fn fast_test() -> Self {
        EncoderConfig {
            gop: GopStructure {
                intra_period: 8,
                b_frames: 0,
            },
            search_range: 4,
            search: SearchStrategy::Diamond,
            half_pel: false,
            initial_qp: 8,
            bitrate: None,
            frame_rate: 30.0,
            software_prefetch: false,
            four_mv: false,
            resync_mb_interval: None,
            slices: 1,
        }
    }

    /// Returns `self` with the VOP slice count set (builder style).
    #[must_use]
    pub fn with_slices(mut self, slices: usize) -> Self {
        self.slices = slices;
        self
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidConfig`] for out-of-range parameters.
    pub fn validate(&self) -> Result<(), CodecError> {
        if self.initial_qp == 0 || self.initial_qp > 31 {
            return Err(CodecError::InvalidConfig("initial_qp must be 1..=31"));
        }
        if self.search_range < 1 || self.search_range > 15 {
            return Err(CodecError::InvalidConfig("search_range must be 1..=15"));
        }
        if self.gop.intra_period == 0 {
            return Err(CodecError::InvalidConfig("intra_period must be >= 1"));
        }
        if self.gop.b_frames > 4 {
            return Err(CodecError::InvalidConfig("b_frames must be <= 4"));
        }
        if self.gop.b_frames + 1 > self.gop.intra_period {
            return Err(CodecError::InvalidConfig(
                "intra_period must exceed the B-run length",
            ));
        }
        if self.frame_rate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(CodecError::InvalidConfig("frame_rate must be positive"));
        }
        if self.resync_mb_interval == Some(0) {
            return Err(CodecError::InvalidConfig(
                "resync_mb_interval must be at least 1",
            ));
        }
        if self.slices == 0 || self.slices > 64 {
            return Err(CodecError::InvalidConfig("slices must be 1..=64"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper() {
        let c = EncoderConfig::default();
        c.validate().unwrap();
        assert_eq!(c.bitrate, Some(38_400));
        assert_eq!(c.frame_rate, 30.0);
        assert_eq!(c.search, SearchStrategy::FullSearch);
        assert_eq!(c.gop.b_frames, 2);
        assert!(EncoderConfig::fast_test().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = EncoderConfig {
            initial_qp: 0,
            ..EncoderConfig::default()
        };
        assert!(c.validate().is_err());
        c = EncoderConfig::default();
        c.initial_qp = 32;
        assert!(c.validate().is_err());
        c = EncoderConfig::default();
        c.search_range = 0;
        assert!(c.validate().is_err());
        c = EncoderConfig::default();
        c.search_range = 16;
        assert!(c.validate().is_err());
        c = EncoderConfig::default();
        c.gop.intra_period = 0;
        assert!(c.validate().is_err());
        c = EncoderConfig::default();
        c.gop.b_frames = 5;
        assert!(c.validate().is_err());
        c = EncoderConfig::default();
        c.gop.intra_period = 2;
        c.gop.b_frames = 2;
        assert!(c.validate().is_err());
        c = EncoderConfig::default();
        c.resync_mb_interval = Some(0);
        assert!(c.validate().is_err());
        c = EncoderConfig::default();
        c.slices = 0;
        assert!(c.validate().is_err());
        c = EncoderConfig::default();
        c.slices = 65;
        assert!(c.validate().is_err());
        assert!(EncoderConfig::default().with_slices(4).validate().is_ok());
    }
}
