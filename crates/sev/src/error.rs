//! SEV firmware command errors.

use crate::firmware::{GuestState, PlatformState};
use fidelius_hw::{Asid, Hpa, HwError};
use std::error::Error;
use std::fmt;

/// Errors returned by SEV firmware commands.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SevError {
    /// The platform is in the wrong state for this command.
    InvalidPlatformState {
        /// Current state.
        actual: PlatformState,
    },
    /// The guest context is in the wrong state for this command.
    InvalidGuestState {
        /// State the command requires.
        expected: GuestState,
        /// Current state.
        actual: GuestState,
    },
    /// No context exists for this handle.
    UnknownHandle(u32),
    /// The ASID is already bound to another active guest.
    AsidInUse(Asid),
    /// The guest is not activated (no ASID bound).
    NotActivated,
    /// A transport/launch measurement did not verify.
    BadMeasurement,
    /// Key unwrap failed (wrong session parameters or tampering).
    BadSessionKeys,
    /// The session nonce was already consumed by an earlier successful
    /// LAUNCH/RECEIVE on this platform — a stale-measurement / rollback
    /// replay. Only the retrofitted firmware reports this; vanilla SEV
    /// firmware has no anti-replay state and accepts the stale session.
    SessionNonceReplayed,
    /// A command's data argument had the wrong length — e.g. a
    /// `RECEIVE_UPDATE_DATA` chunk the hypervisor shortened or lengthened
    /// in transit, which is not exactly one page.
    InvalidLength {
        /// Length that was supplied, in bytes.
        got: usize,
        /// Length the command requires, in bytes.
        expected: usize,
    },
    /// A command's physical-address argument was unusable: not 16-byte
    /// aligned where the memory engine needs whole blocks, or the span
    /// `[pa, pa + len)` does not lie inside DRAM (including spans whose end
    /// overflows). Checked before the command sizes anything from `len`.
    InvalidAddress {
        /// Start of the span that was supplied.
        pa: Hpa,
        /// Length of the span, in bytes.
        len: u64,
    },
    /// An underlying hardware access failed.
    Hw(HwError),
}

impl fmt::Display for SevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SevError::InvalidPlatformState { actual } => {
                write!(f, "invalid platform state {actual:?}")
            }
            SevError::InvalidGuestState { expected, actual } => {
                write!(f, "guest state is {actual:?}, command requires {expected:?}")
            }
            SevError::UnknownHandle(h) => write!(f, "unknown guest handle {h}"),
            SevError::AsidInUse(a) => write!(f, "asid {} already in use", a.0),
            SevError::NotActivated => write!(f, "guest has no asid bound"),
            SevError::BadMeasurement => write!(f, "measurement verification failed"),
            SevError::BadSessionKeys => write!(f, "session key unwrap failed"),
            SevError::SessionNonceReplayed => {
                write!(f, "session nonce already consumed (rollback replay)")
            }
            SevError::InvalidLength { got, expected } => {
                write!(f, "invalid data length {got}, command requires {expected}")
            }
            SevError::InvalidAddress { pa, len } => {
                write!(f, "invalid physical span {:#x} + {len} bytes", pa.0)
            }
            SevError::Hw(e) => write!(f, "hardware error: {e}"),
        }
    }
}

impl Error for SevError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SevError::Hw(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HwError> for SevError {
    fn from(e: HwError) -> Self {
        SevError::Hw(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SevError::AsidInUse(Asid(4));
        assert_eq!(e.to_string(), "asid 4 already in use");
        assert!(e.source().is_none());
        let hw = SevError::Hw(HwError::OutOfFrames);
        assert!(hw.source().is_some());
        let len = SevError::InvalidLength { got: 100, expected: 4096 };
        assert_eq!(len.to_string(), "invalid data length 100, command requires 4096");
        let span = SevError::InvalidAddress { pa: Hpa(0x1008), len: 32 };
        assert_eq!(span.to_string(), "invalid physical span 0x1008 + 32 bytes");
    }
}
