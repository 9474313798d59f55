//! The typed error taxonomy for trace/pcap ingest.
//!
//! Everything that can go wrong while reading a capture back is a variant
//! here. A reader's `read` returns the first problem as a typed value, so a
//! corrupted capture ends the replay with a message naming the damage and
//! never unwinds the process. Decode errors (wire validation, bad tags)
//! are confined to one record or frame; I/O errors and truncation mean the
//! byte stream itself is gone.

use crate::wire::WireError;
use std::fmt;
use std::io;

/// Any error produced by the trace/pcap ingest path.
#[derive(Debug)]
pub enum Error {
    /// The underlying reader failed.
    Io(io::Error),
    /// A frame failed wire-level validation (length, checksum, field).
    Wire(WireError),
    /// The stream does not start with the expected magic for `format`.
    BadMagic(&'static str),
    /// A `CSPT` stream with a version this build cannot read.
    UnsupportedVersion(u16),
    /// A pcap stream with a link type other than Ethernet.
    UnsupportedLinkType(u32),
    /// A record's direction tag is out of range.
    BadDirectionTag(u8),
    /// A record's packet-kind tag is out of range.
    BadKindTag(u8),
    /// The stream ended in the middle of a record or header.
    TruncatedRecord,
    /// A pcap frame body ended before its declared length.
    TruncatedFrame,
    /// A pcap frame header declares a length beyond the snap length —
    /// either corruption or an attempt to make the reader buffer it.
    OversizedFrame(u32),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Wire(e) => write!(f, "wire decode error: {e}"),
            Error::BadMagic(format) => write!(f, "bad magic: not a {format} stream"),
            Error::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            Error::UnsupportedLinkType(lt) => write!(f, "unsupported pcap link type {lt}"),
            Error::BadDirectionTag(t) => write!(f, "bad direction tag {t}"),
            Error::BadKindTag(t) => write!(f, "bad kind tag {t}"),
            Error::TruncatedRecord => write!(f, "stream truncated mid-record"),
            Error::TruncatedFrame => write!(f, "pcap frame truncated"),
            Error::OversizedFrame(n) => write!(f, "pcap frame of {n} bytes exceeds snap length"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = Error::from(WireError::Truncated);
        assert!(e.to_string().contains("wire decode"));
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::BadMagic("pcap");
        assert!(e.to_string().contains("pcap"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
