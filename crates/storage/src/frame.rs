//! The checksummed frame: a length- and CRC-framed container wrapped
//! around every durable blob (pipeline artifacts, index checkpoints).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"DOMDFRM\0"
//! 8       4     container version (FRAME_VERSION)
//! 12      8     payload length in bytes
//! 20      4     CRC-32 of the payload
//! 24      len   payload
//! ```
//!
//! [`decode`] refuses anything the header cannot vouch for — truncation,
//! bit-flips, a duplicated tail — with a typed [`FrameError`] naming the
//! expected vs. found value and the byte offset, so a `kill -9` at any
//! byte surfaces as a diagnosable corruption instead of a garbage parse.

use crate::crc::crc32;
use std::fmt;

/// Magic prefix of every framed file.
pub const MAGIC: [u8; 8] = *b"DOMDFRM\0";

/// Container layout version (independent of the payload's own version).
pub const FRAME_VERSION: u32 = 1;

/// Size of the fixed header preceding the payload.
pub const HEADER_LEN: usize = 24;

/// Why a framed blob failed verification. Every variant names the byte
/// offset it was detected at plus the expected vs. found values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header (or declared payload) requires.
    Truncated {
        /// Byte offset at which the missing data was expected.
        offset: u64,
        /// Bytes required from that offset.
        expected: u64,
        /// Bytes actually present from that offset.
        found: u64,
    },
    /// The magic prefix is wrong — not a framed file at all.
    BadMagic {
        /// The 8 bytes found where [`MAGIC`] should be.
        found: [u8; 8],
    },
    /// The container version is not one this binary reads.
    UnsupportedVersion {
        /// Version recorded in the header.
        found: u32,
        /// Version this binary writes.
        expected: u32,
    },
    /// The payload does not hash to the recorded CRC — a bit-flip or a
    /// torn in-place rewrite.
    ChecksumMismatch {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload as read.
        found: u32,
    },
    /// Bytes follow the declared payload — a duplicated tail or an
    /// append by a foreign writer.
    TrailingBytes {
        /// Total length the header declares (header + payload).
        expected: u64,
        /// Total length found.
        found: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { offset, expected, found } => write!(
                f,
                "truncated frame: expected {expected} bytes at offset {offset}, found {found}"
            ),
            FrameError::BadMagic { found } => {
                write!(f, "bad magic at offset 0: expected {MAGIC:?}, found {found:?}")
            }
            FrameError::UnsupportedVersion { found, expected } => write!(
                f,
                "unsupported container version at offset 8: expected {expected}, found {found}"
            ),
            FrameError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch at offset 20: header records {expected:#010x}, \
                 payload hashes to {found:#010x}"
            ),
            FrameError::TrailingBytes { expected, found } => write!(
                f,
                "{} trailing byte(s) after the declared payload (expected total {expected}, \
                 found {found})",
                found - expected
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// The header that precedes `payload` in its frame; the only header writer.
pub fn header(payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FRAME_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    h[20..].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Wraps `payload` in the checksummed frame.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    [&header(payload)[..], payload].concat()
}

/// Verifies the frame around `bytes` and returns the payload slice.
pub fn decode(bytes: &[u8]) -> Result<&[u8], FrameError> {
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::Truncated {
            offset: 0,
            expected: HEADER_LEN as u64,
            found: bytes.len() as u64,
        });
    }
    let magic = crate::bytes::array8(bytes, 0);
    if magic != MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let version = crate::bytes::le_u32(bytes, 8);
    if version != FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion { found: version, expected: FRAME_VERSION });
    }
    let len = crate::bytes::le_u64(bytes, 12);
    let crc = crate::bytes::le_u32(bytes, 20);
    let body = &bytes[HEADER_LEN..];
    if (body.len() as u64) < len {
        return Err(FrameError::Truncated {
            offset: HEADER_LEN as u64,
            expected: len,
            found: body.len() as u64,
        });
    }
    if (body.len() as u64) > len {
        return Err(FrameError::TrailingBytes {
            expected: HEADER_LEN as u64 + len,
            found: bytes.len() as u64,
        });
    }
    let found = crc32(body);
    if found != crc {
        return Err(FrameError::ChecksumMismatch { expected: crc, found });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for payload in [&b""[..], b"x", b"a longer payload with\nnewlines\nand \xff bytes"] {
            let framed = encode(payload);
            assert_eq!(decode(&framed).unwrap(), payload);
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let framed = encode(b"payload under test");
        for cut in 0..framed.len() {
            match decode(&framed[..cut]) {
                Err(FrameError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
        assert!(decode(&framed).is_ok());
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let framed = encode(b"bit flip corpus");
        for byte in 0..framed.len() {
            for bit in [0, 3, 7] {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(decode(&bad).is_err(), "flip at byte {byte} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn duplicate_tail_is_detected() {
        let mut framed = encode(b"tail");
        let tail = framed[framed.len() - 4..].to_vec();
        framed.extend_from_slice(&tail);
        match decode(&framed) {
            Err(FrameError::TrailingBytes { expected, found }) => {
                assert_eq!(found - expected, 4);
            }
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
    }

    #[test]
    fn errors_name_expected_found_and_offset() {
        let framed = encode(b"abc");
        let e = decode(&framed[..10]).unwrap_err().to_string();
        assert!(e.contains("offset 0") && e.contains("24") && e.contains("10"), "{e}");
        let mut flipped = framed.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        let e = decode(&flipped).unwrap_err().to_string();
        assert!(e.contains("offset 20") && e.contains("0x"), "{e}");
    }
}
