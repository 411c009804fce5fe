use std::error::Error;
use std::fmt;

/// Errors produced by geodab configuration and fingerprinting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeodabError {
    /// The winnowing lower bound `k` must be at least 2 (a 1-gram carries
    /// no ordering information).
    InvalidLowerBound(usize),
    /// The winnowing upper bound `t` must satisfy `t >= k`.
    InvalidUpperBound {
        /// The offending upper bound.
        t: usize,
        /// The configured lower bound.
        k: usize,
    },
    /// The geohash prefix width must be between 1 and 31 bits so that both
    /// the prefix and the hash suffix fit a 32-bit geodab.
    InvalidPrefixBits(u8),
    /// The normalization depth must be between 1 and 64 bits.
    InvalidNormalizationDepth(u8),
}

impl fmt::Display for GeodabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeodabError::InvalidLowerBound(k) => {
                write!(f, "winnowing lower bound k={k} must be at least 2")
            }
            GeodabError::InvalidUpperBound { t, k } => {
                write!(f, "winnowing upper bound t={t} must be at least k={k}")
            }
            GeodabError::InvalidPrefixBits(b) => {
                write!(f, "geodab prefix width {b} must be between 1 and 31 bits")
            }
            GeodabError::InvalidNormalizationDepth(d) => {
                write!(f, "normalization depth {d} must be between 1 and 64 bits")
            }
        }
    }
}

impl Error for GeodabError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<GeodabError>();
    }

    #[test]
    fn display_is_informative() {
        assert!(GeodabError::InvalidLowerBound(1)
            .to_string()
            .contains("k=1"));
        assert!(GeodabError::InvalidUpperBound { t: 3, k: 6 }
            .to_string()
            .contains("t=3"));
    }
}
