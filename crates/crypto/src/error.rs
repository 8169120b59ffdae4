//! Error type shared by the crypto primitives.

use std::error::Error;
use std::fmt;

/// Errors produced by the cryptographic primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CryptoError {
    /// A key had an unsupported length for the requested algorithm.
    InvalidKeyLength {
        /// Length that was supplied, in bytes.
        got: usize,
        /// Length the algorithm expects, in bytes.
        expected: usize,
    },
    /// Input was not a whole number of cipher blocks.
    InvalidBlockLength {
        /// Length that was supplied, in bytes.
        got: usize,
    },
    /// An authentication tag or integrity check did not verify.
    IntegrityFailure,
    /// A wrapped key failed its unwrap integrity check.
    UnwrapFailure,
    /// A point or scalar was not a valid X25519 input.
    InvalidPoint,
    /// An explicitly requested AES or SHA-256 backend is not usable in this
    /// build or on this host (e.g. `AesBackend::AesNi` or
    /// `ShaBackend::ShaNi` without the `aesni` cargo feature, or on a CPU
    /// without the instructions).
    BackendUnavailable {
        /// Stable name of the backend that was requested.
        backend: &'static str,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::InvalidKeyLength { got, expected } => {
                write!(f, "invalid key length {got}, expected {expected}")
            }
            CryptoError::InvalidBlockLength { got } => {
                write!(f, "input length {got} is not a multiple of the block size")
            }
            CryptoError::IntegrityFailure => write!(f, "integrity check failed"),
            CryptoError::UnwrapFailure => write!(f, "key unwrap integrity check failed"),
            CryptoError::InvalidPoint => write!(f, "invalid X25519 point or scalar"),
            CryptoError::BackendUnavailable { backend } => {
                write!(f, "requested backend `{backend}` is unavailable in this build/host")
            }
        }
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let variants = [
            CryptoError::InvalidKeyLength { got: 3, expected: 16 },
            CryptoError::InvalidBlockLength { got: 7 },
            CryptoError::IntegrityFailure,
            CryptoError::UnwrapFailure,
            CryptoError::InvalidPoint,
            CryptoError::BackendUnavailable { backend: "aesni" },
        ];
        for v in variants {
            let s = v.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
