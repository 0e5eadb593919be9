//! Frame layer: version byte, frame tags, and typed wire errors.
//!
//! Every message on a connection is one *frame*:
//!
//! ```text
//! +---------+---------+-------------------+------------------+
//! | version | tag     | payload length    | payload          |
//! | 1 byte  | 1 byte  | varint (LEB128)   | `length` bytes   |
//! +---------+---------+-------------------+------------------+
//! ```
//!
//! The payload encoding per tag lives in [`crate::codec`], on top of the
//! shared primitives in [`flstore_fl::codec`]; the normative spec is
//! `docs/WIRE.md`, whose tag table is machine-checked against [`FRAMES`]
//! by the workspace's `tests/doc_tables.rs`.
//!
//! Decoding is total: malformed input of any shape — truncated streams,
//! oversized length prefixes, unknown tags, overlong varints — surfaces
//! as a typed [`WireError`], never a panic (`#![forbid(unsafe_code)]`
//! holds for the whole crate).

use std::fmt;
use std::io::{self, Read, Write};

use flstore_fl::codec::{put_varint, read_varint, DecodeError};

/// Protocol version carried as the first byte of every frame. Bumped on
/// any incompatible change to the frame layout or payload encodings.
pub const WIRE_VERSION: u8 = 2;

/// Hard bound on a frame's payload length — the shared codec's one
/// length bound. A length prefix above this is rejected as
/// [`WireError::Oversized`] *before* any allocation, so a corrupt or
/// hostile length cannot balloon memory.
pub use flstore_fl::codec::MAX_LEN as MAX_FRAME_LEN;

/// Frame tag: `Ingest` request (a full round record for one job).
pub const TAG_INGEST: u8 = 0x01;
/// Frame tag: `Serve` request (one non-training workload request).
pub const TAG_SERVE: u8 = 0x02;
/// Frame tag: `Evict` request (drop one cached object by key).
pub const TAG_EVICT: u8 = 0x03;
/// Frame tag: `Stats` request (telemetry probe; a batch barrier).
pub const TAG_STATS: u8 = 0x04;
/// Frame tag: `Ingested` response (receipt for an `Ingest`).
pub const TAG_INGESTED: u8 = 0x81;
/// Frame tag: `Served` response (workload output + measured outcome).
pub const TAG_SERVED: u8 = 0x82;
/// Frame tag: `Evicted` response (whether the key was cached).
pub const TAG_EVICTED: u8 = 0x83;
/// Frame tag: `StatsReport` response (telemetry snapshot).
pub const TAG_STATS_REPORT: u8 = 0x84;
/// Frame tag: `Rejected` response (typed [`flstore_core::api::ApiError`]
/// envelope — admission rejections, workload failures, and overload
/// backpressure all arrive here, never as drops or resets).
pub const TAG_REJECTED: u8 = 0x85;

/// The frame inventory: `(tag, name, direction, summary)` for every tag
/// the protocol defines. The workspace's `tests/doc_tables.rs` compares
/// it with the tag table in `docs/WIRE.md`, so the spec cannot drift
/// from the implementation.
pub const FRAMES: &[(u8, &str, &str, &str)] = &[
    (
        TAG_INGEST,
        "Ingest",
        "request",
        "ingest one round record for a job",
    ),
    (
        TAG_SERVE,
        "Serve",
        "request",
        "serve one non-training workload request",
    ),
    (
        TAG_EVICT,
        "Evict",
        "request",
        "evict one cached object by metadata key",
    ),
    (
        TAG_STATS,
        "Stats",
        "request",
        "telemetry probe; acts as a batch barrier",
    ),
    (
        TAG_INGESTED,
        "Ingested",
        "response",
        "ingest receipt (cached/evicted/backed-up/denied counts)",
    ),
    (
        TAG_SERVED,
        "Served",
        "response",
        "workload output plus measured latency/cost outcome",
    ),
    (
        TAG_EVICTED,
        "Evicted",
        "response",
        "eviction acknowledgement (whether the key was cached)",
    ),
    (
        TAG_STATS_REPORT,
        "StatsReport",
        "response",
        "telemetry snapshot (hit rates, faults, per-tenant quota)",
    ),
    (
        TAG_REJECTED,
        "Rejected",
        "response",
        "typed ApiError envelope, including Overloaded backpressure",
    ),
];

/// A typed wire failure. Every way a frame or payload can be malformed
/// maps to a variant here; decode never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame (header or payload).
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared payload length.
        declared: u64,
        /// The bound it exceeded.
        max: u64,
    },
    /// The frame's version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The frame tag is not in [`FRAMES`].
    UnknownTag(u8),
    /// A varint ran past its maximum width (10 bytes for a `u64`).
    VarintOverflow,
    /// The payload decoded, but bytes were left over.
    TrailingBytes {
        /// How many bytes remained unconsumed.
        remaining: usize,
    },
    /// The payload violated a documented invariant (bad enum tag, invalid
    /// UTF-8, a non-finite cost, a P3 request without a target client,
    /// ...). The message names the field.
    Malformed(&'static str),
    /// The underlying socket failed. Only the [`std::io::ErrorKind`] is
    /// kept so the error stays comparable in tests.
    Io(io::ErrorKind),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "stream truncated inside a frame"),
            WireError::Oversized { declared, max } => {
                write!(f, "frame length {declared} exceeds the {max}-byte bound")
            }
            WireError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::UnknownTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            WireError::VarintOverflow => write!(f, "varint wider than 10 bytes"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the payload")
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => WireError::Truncated,
            kind => WireError::Io(kind),
        }
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::Oversized { declared, max } => WireError::Oversized { declared, max },
            DecodeError::VarintOverflow => WireError::VarintOverflow,
            DecodeError::TrailingBytes { remaining } => WireError::TrailingBytes { remaining },
            DecodeError::Malformed(what) => WireError::Malformed(what),
        }
    }
}

/// Writes one frame: version, tag, varint payload length, payload.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    let mut header = Vec::with_capacity(12);
    header.push(WIRE_VERSION);
    header.push(tag);
    put_varint(&mut header, payload.len() as u64);
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame, returning `(tag, payload)`.
///
/// A clean EOF *between* frames returns `Ok(None)` (the peer closed the
/// connection at a frame boundary); EOF *inside* a frame is
/// [`WireError::Truncated`]. The length prefix is validated against
/// [`MAX_FRAME_LEN`] before the payload is allocated.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    let mut version = [0u8; 1];
    // EOF before the first byte of a frame is a clean close.
    match r.read(&mut version) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(r),
        Err(e) => return Err(e.into()),
    }
    if version[0] != WIRE_VERSION {
        return Err(WireError::BadVersion(version[0]));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    if !FRAMES.iter().any(|&(t, _, _, _)| t == tag[0]) {
        return Err(WireError::UnknownTag(tag[0]));
    }

    // Length varint, byte by byte (we cannot over-read from a stream).
    let declared = read_varint(|| {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        Ok::<u8, WireError>(byte[0])
    })?;
    if declared > MAX_FRAME_LEN {
        return Err(WireError::Oversized {
            declared,
            max: MAX_FRAME_LEN,
        });
    }
    let mut payload = vec![0u8; declared as usize];
    r.read_exact(&mut payload)?;
    Ok(Some((tag[0], payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_STATS, b"xyz").unwrap();
        let (tag, payload) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(tag, TAG_STATS);
        assert_eq!(payload, b"xyz");
    }

    #[test]
    fn eof_between_frames_is_clean() {
        assert_eq!(read_frame(&mut [].as_slice()).unwrap(), None);
    }

    #[test]
    fn eof_inside_frame_is_truncated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_STATS, &[7u8; 32]).unwrap();
        buf.truncate(buf.len() - 5);
        assert_eq!(read_frame(&mut buf.as_slice()), Err(WireError::Truncated));
    }

    #[test]
    fn bad_version_and_unknown_tag_are_typed() {
        assert_eq!(
            read_frame(&mut [9u8, TAG_STATS, 0].as_slice()),
            Err(WireError::BadVersion(9))
        );
        assert_eq!(
            read_frame(&mut [WIRE_VERSION, 0x7f, 0].as_slice()),
            Err(WireError::UnknownTag(0x7f))
        );
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = vec![WIRE_VERSION, TAG_STATS];
        put_varint(&mut buf, MAX_FRAME_LEN + 1);
        assert_eq!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::Oversized {
                declared: MAX_FRAME_LEN + 1,
                max: MAX_FRAME_LEN,
            })
        );
    }
}
