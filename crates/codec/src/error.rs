use m4ps_bitstream::BitstreamError;
use std::error::Error;
use std::fmt;

/// Error produced by encoding or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Underlying bitstream failure.
    Bitstream(BitstreamError),
    /// Frame dimensions incompatible with the coder configuration.
    DimensionMismatch {
        /// What was expected (width, height).
        expected: (usize, usize),
        /// What was supplied.
        found: (usize, usize),
    },
    /// The bitstream is syntactically valid but semantically impossible
    /// (e.g. a B-VOP before any anchor frame).
    InvalidStream(&'static str),
    /// A configuration parameter is out of its legal range.
    InvalidConfig(&'static str),
    /// A slice task panicked; the slice-parallel executor caught the
    /// panic at the task boundary, so the pool and the other slices of
    /// the VOP are unaffected.
    SliceTaskPanicked,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Bitstream(e) => write!(f, "bitstream error: {e}"),
            CodecError::DimensionMismatch { expected, found } => write!(
                f,
                "dimension mismatch: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            CodecError::InvalidStream(msg) => write!(f, "invalid stream: {msg}"),
            CodecError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CodecError::SliceTaskPanicked => write!(f, "slice task panicked"),
        }
    }
}

impl Error for CodecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CodecError::Bitstream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BitstreamError> for CodecError {
    fn from(e: BitstreamError) -> Self {
        CodecError::Bitstream(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CodecError::DimensionMismatch {
            expected: (720, 576),
            found: (704, 576),
        };
        assert!(e.to_string().contains("720x576"));
        let b: CodecError = BitstreamError::StartCodeNotFound.into();
        assert!(b.to_string().contains("startcode"));
    }
}
