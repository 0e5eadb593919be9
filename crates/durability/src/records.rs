//! On-disk ledger record format (docs/LEDGER.md).
//!
//! A ledger file is a 5-byte header (`"FLSL"` magic + version byte)
//! followed by length-prefixed records:
//!
//! ```text
//! [tag u8][payload-len varint LEB128][payload bytes]
//! ```
//!
//! Varints, bounds and every payload field are the shared record
//! codec's ([`flstore_fl::codec`], normative spec docs/WIRE.md §2): an
//! `Ingest` payload is a time varint followed by the very bytes the wire
//! protocol's `Ingest` frame carries for the same round, so the ledger
//! has no encoding of its own beyond the framing and the seal.
//!
//! The decoder is **total**: every byte sequence either parses, stops
//! cleanly at a torn tail (a crash mid-append), or returns a typed
//! [`LedgerError`]. It never panics and never reads past a declared
//! length.

use std::fmt;

use flstore_core::durable::{LedgerEvent, StateDigest};
use flstore_fl::codec::{
    get_byte_size, get_cost_breakdown, get_meta_key, get_record, get_sim_time, get_str, get_usize,
    get_vec, put_byte_size, put_cost_breakdown, put_meta_key, put_record, put_sim_time, put_str,
    put_varint, put_vec, DecodeError, Reader, MAX_LEN,
};
use flstore_fl::job::RoundRecord;
use flstore_fl::metadata::MetaKey;
use flstore_sim::bytes::ByteSize;
use flstore_sim::time::SimTime;
use flstore_workloads::request::{get_workload_request, put_workload_request, WorkloadRequest};

/// Ledger file magic: the first four bytes of every ledger/segment file.
const LEDGER_MAGIC: [u8; 4] = *b"FLSL";

/// Current on-disk format version (the fifth header byte).
const LEDGER_VERSION: u8 = 2;

/// `Ingest` record tag.
pub const TAG_INGEST: u8 = 0x01;
/// `Serve` record tag.
pub const TAG_SERVE: u8 = 0x02;
/// `ServeBatch` record tag.
const TAG_SERVE_BATCH: u8 = 0x03;
/// `Evict` record tag.
pub const TAG_EVICT: u8 = 0x04;
/// `Reclaim` record tag.
const TAG_RECLAIM: u8 = 0x05;
/// `Digest` (segment seal) record tag.
const TAG_DIGEST: u8 = 0x06;

/// The record inventory: `(tag, name, payload layout, summary)`.
///
/// The workspace's `tests/doc_tables.rs` compares it with
/// `docs/LEDGER.md`'s tag table, row for row.
pub const RECORDS: &[(u8, &str, &str, &str)] = &[
    (
        TAG_INGEST,
        "Ingest",
        "[time varint][round record]",
        "one ingested training round",
    ),
    (
        TAG_SERVE,
        "Serve",
        "[time varint][workload request]",
        "one served request (serves mutate cache state)",
    ),
    (
        TAG_SERVE_BATCH,
        "ServeBatch",
        "[time varint][count varint][workload request]*",
        "one served batch, preserving the exact batch shape",
    ),
    (
        TAG_EVICT,
        "Evict",
        "[metadata key]",
        "an explicit eviction envelope",
    ),
    (
        TAG_RECLAIM,
        "Reclaim",
        "[need varint]",
        "an external reclamation request (pressure plane)",
    ),
    (
        TAG_DIGEST,
        "Digest",
        "[row strings][resident varint][served varint][faults varint][cost breakdown]",
        "segment seal: the state fingerprint replay must reach",
    ),
];

/// One decoded ledger record, owning its data (the borrowed counterpart
/// is [`LedgerEvent`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerRecord {
    /// An ingested round.
    Ingest {
        /// Ingest time.
        now: SimTime,
        /// The round.
        record: RoundRecord,
    },
    /// A served request.
    Serve {
        /// Serve time.
        now: SimTime,
        /// The request.
        request: WorkloadRequest,
    },
    /// A served batch.
    ServeBatch {
        /// Batch serve time.
        now: SimTime,
        /// The batch, in order.
        requests: Vec<WorkloadRequest>,
    },
    /// An explicit eviction.
    Evict {
        /// The evicted key.
        key: MetaKey,
    },
    /// An external reclamation.
    Reclaim {
        /// Bytes requested.
        need: ByteSize,
    },
    /// A segment seal fingerprint.
    Digest(StateDigest),
}

/// A typed ledger failure. [`LedgerError::TornTail`] is special: it marks
/// a crash mid-append and is *tolerated* in the final file of a recovery
/// (the records before it are intact); every other variant is hard
/// corruption.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// The file is shorter than the 5-byte header or does not start with
    /// the `FLSL` magic.
    BadMagic,
    /// The header's version byte is not `LEDGER_VERSION`.
    BadVersion(u8),
    /// The file ended inside a record (torn write). `offset` is the start
    /// of the torn record — the last valid boundary.
    TornTail {
        /// Byte offset of the last intact record boundary.
        offset: usize,
    },
    /// A declared payload length exceeded the codec's bound ([`MAX_LEN`]):
    /// corruption, not a large record.
    Oversized {
        /// The declared length.
        declared: u64,
        /// Offset of the offending record.
        offset: usize,
    },
    /// A record tag not in [`RECORDS`].
    UnknownTag {
        /// The tag byte.
        tag: u8,
        /// Offset of the offending record.
        offset: usize,
    },
    /// A length varint ran past 10 bytes.
    VarintOverflow {
        /// Offset of the offending record.
        offset: usize,
    },
    /// A complete payload failed to decode (short, long, or malformed).
    Corrupt {
        /// Offset of the offending record.
        offset: usize,
        /// What failed.
        what: String,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::BadMagic => write!(f, "not a ledger file (bad magic)"),
            LedgerError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported ledger version {v} (expected {LEDGER_VERSION})"
                )
            }
            LedgerError::TornTail { offset } => {
                write!(f, "torn record tail after byte {offset}")
            }
            LedgerError::Oversized { declared, offset } => write!(
                f,
                "record at byte {offset} declares {declared} bytes (max {MAX_LEN})"
            ),
            LedgerError::UnknownTag { tag, offset } => {
                write!(f, "unknown record tag {tag:#04x} at byte {offset}")
            }
            LedgerError::VarintOverflow { offset } => {
                write!(f, "length varint wider than 10 bytes at byte {offset}")
            }
            LedgerError::Corrupt { offset, what } => {
                write!(f, "corrupt record at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// The 5-byte file header every ledger/segment file starts with.
pub fn header() -> [u8; 5] {
    let mut h = [0u8; 5];
    h[..4].copy_from_slice(&LEDGER_MAGIC);
    h[4] = LEDGER_VERSION;
    h
}

fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 6);
    out.push(tag);
    put_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

fn put_digest(buf: &mut Vec<u8>, d: &StateDigest) {
    put_vec(buf, &d.rows, |b, row| put_str(b, row));
    put_byte_size(buf, d.resident);
    put_varint(buf, d.served as u64);
    put_varint(buf, d.faults);
    put_cost_breakdown(buf, &d.background_cost);
}

fn get_digest(r: &mut Reader<'_>) -> Result<StateDigest, DecodeError> {
    Ok(StateDigest {
        rows: get_vec(r, get_str)?,
        resident: get_byte_size(r)?,
        served: get_usize(r)?,
        faults: r.varint()?,
        background_cost: get_cost_breakdown(r)?,
    })
}

/// Encodes one borrowed store event as a complete record
/// (`[tag][len][payload]`).
pub fn encode_event(event: &LedgerEvent<'_>) -> Vec<u8> {
    let mut payload = Vec::new();
    let tag = match event {
        LedgerEvent::Ingest { now, record } => {
            put_sim_time(&mut payload, *now);
            put_record(&mut payload, record);
            TAG_INGEST
        }
        LedgerEvent::Serve { now, request } => {
            put_sim_time(&mut payload, *now);
            put_workload_request(&mut payload, request);
            TAG_SERVE
        }
        LedgerEvent::ServeBatch { now, requests } => {
            put_sim_time(&mut payload, *now);
            put_vec(&mut payload, requests, put_workload_request);
            TAG_SERVE_BATCH
        }
        LedgerEvent::Evict { key } => {
            put_meta_key(&mut payload, key);
            TAG_EVICT
        }
        LedgerEvent::Reclaim { need } => {
            put_byte_size(&mut payload, *need);
            TAG_RECLAIM
        }
    };
    frame(tag, &payload)
}

/// Encodes one owned record (used for [`LedgerRecord::Digest`] seals and
/// round-trip tests).
pub fn encode_record(record: &LedgerRecord) -> Vec<u8> {
    match record {
        LedgerRecord::Ingest { now, record } => {
            encode_event(&LedgerEvent::Ingest { now: *now, record })
        }
        LedgerRecord::Serve { now, request } => {
            encode_event(&LedgerEvent::Serve { now: *now, request })
        }
        LedgerRecord::ServeBatch { now, requests } => encode_event(&LedgerEvent::ServeBatch {
            now: *now,
            requests,
        }),
        LedgerRecord::Evict { key } => encode_event(&LedgerEvent::Evict { key }),
        LedgerRecord::Reclaim { need } => encode_event(&LedgerEvent::Reclaim { need: *need }),
        LedgerRecord::Digest(digest) => {
            let mut payload = Vec::new();
            put_digest(&mut payload, digest);
            frame(TAG_DIGEST, &payload)
        }
    }
}

/// The parse of one ledger file: every intact record, the byte offsets of
/// the record boundaries, and whether the file ended cleanly or torn.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLedger {
    /// Every complete record, in file order.
    pub records: Vec<LedgerRecord>,
    /// Byte offsets of record boundaries: the header end, then the end of
    /// each complete record. A crash (truncation) at any of these offsets
    /// loses only the records after it.
    pub boundaries: Vec<usize>,
    /// `Some(offset)` if the file ends inside a record (crash mid-append);
    /// `offset` is the last intact boundary.
    pub torn: Option<usize>,
}

fn decode_payload(tag: u8, payload: &[u8], offset: usize) -> Result<LedgerRecord, LedgerError> {
    let decode: fn(&mut Reader<'_>) -> Result<LedgerRecord, DecodeError> = match tag {
        TAG_INGEST => |r| {
            Ok(LedgerRecord::Ingest {
                now: get_sim_time(r)?,
                record: get_record(r)?,
            })
        },
        TAG_SERVE => |r| {
            Ok(LedgerRecord::Serve {
                now: get_sim_time(r)?,
                request: get_workload_request(r)?,
            })
        },
        TAG_SERVE_BATCH => |r| {
            Ok(LedgerRecord::ServeBatch {
                now: get_sim_time(r)?,
                requests: get_vec(r, get_workload_request)?,
            })
        },
        TAG_EVICT => |r| {
            Ok(LedgerRecord::Evict {
                key: get_meta_key(r)?,
            })
        },
        TAG_RECLAIM => |r| {
            Ok(LedgerRecord::Reclaim {
                need: get_byte_size(r)?,
            })
        },
        TAG_DIGEST => |r| Ok(LedgerRecord::Digest(get_digest(r)?)),
        other => return Err(LedgerError::UnknownTag { tag: other, offset }),
    };
    let mut r = Reader::new(payload);
    decode(&mut r)
        .and_then(|record| r.finish().map(|()| record))
        .map_err(|e| LedgerError::Corrupt {
            offset,
            what: e.to_string(),
        })
}

/// Parses one ledger file's bytes. Total: returns every intact record and
/// classifies how the file ends. Hard corruption (bad magic, unknown tag,
/// oversized or undecodable record) is an error; a torn tail is reported
/// in [`ParsedLedger::torn`], not an error — the *caller* decides whether
/// a torn tail is acceptable (it is only in the final, active file).
pub fn parse_ledger(bytes: &[u8]) -> Result<ParsedLedger, LedgerError> {
    let mut r = Reader::new(bytes);
    if r.bytes(4).ok() != Some(&LEDGER_MAGIC[..]) {
        return Err(LedgerError::BadMagic);
    }
    match r.u8() {
        Ok(LEDGER_VERSION) => {}
        Ok(version) => return Err(LedgerError::BadVersion(version)),
        Err(_) => return Err(LedgerError::BadMagic),
    }
    let mut records = Vec::new();
    let mut boundaries = vec![r.position()];
    let mut torn = None;
    loop {
        let offset = r.position();
        let Ok(tag) = r.u8() else {
            break; // clean end at a record boundary
        };
        // A record is torn when the file ends anywhere inside it: in the
        // length varint or short of the declared payload.
        let payload = match r.len_prefix().and_then(|len| r.bytes(len)) {
            Ok(payload) => payload,
            Err(DecodeError::Truncated) => {
                torn = Some(offset);
                break;
            }
            Err(DecodeError::Oversized { declared, .. }) => {
                return Err(LedgerError::Oversized { declared, offset })
            }
            Err(_) => return Err(LedgerError::VarintOverflow { offset }),
        };
        records.push(decode_payload(tag, payload, offset)?);
        boundaries.push(r.position());
    }
    Ok(ParsedLedger {
        records,
        boundaries,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flstore_fl::ids::{JobId, Round};
    use flstore_fl::job::{FlJobConfig, FlJobSim};
    use flstore_workloads::request::RequestId;
    use flstore_workloads::taxonomy::WorkloadKind;

    fn sample_records() -> Vec<LedgerRecord> {
        let job = FlJobConfig::quick_test(JobId::new(3));
        let round = FlJobSim::new(job).next().expect("one round");
        let request = WorkloadRequest::new(
            RequestId::new(9),
            WorkloadKind::Inference,
            JobId::new(3),
            round.round,
            None,
        );
        vec![
            LedgerRecord::Ingest {
                now: SimTime::from_micros(1_000_000),
                record: round,
            },
            LedgerRecord::Serve {
                now: SimTime::from_micros(2_000_000),
                request,
            },
            LedgerRecord::ServeBatch {
                now: SimTime::from_micros(3_000_000),
                requests: vec![request, request],
            },
            LedgerRecord::Evict {
                key: MetaKey::aggregate(JobId::new(3), Round::new(1)),
            },
            LedgerRecord::Reclaim {
                need: ByteSize::from_mb(12),
            },
            LedgerRecord::Digest(StateDigest {
                rows: vec!["k size=1".to_string()],
                resident: ByteSize::from_mb(1),
                served: 3,
                faults: 1,
                background_cost: Default::default(),
            }),
        ]
    }

    fn ledger_of(records: &[LedgerRecord]) -> Vec<u8> {
        let mut bytes = header().to_vec();
        for r in records {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    #[test]
    fn every_record_kind_round_trips() {
        let records = sample_records();
        let bytes = ledger_of(&records);
        let parsed = parse_ledger(&bytes).unwrap();
        assert_eq!(parsed.records, records);
        assert_eq!(parsed.torn, None);
        assert_eq!(parsed.boundaries.len(), records.len() + 1);
        assert_eq!(*parsed.boundaries.last().unwrap(), bytes.len());
    }

    #[test]
    fn truncation_at_every_offset_is_classified() {
        // Total decoder: any truncation either lands on a boundary (clean)
        // or reports a torn tail at the last intact boundary — never a
        // panic, never a hard error for a mere prefix.
        let records = sample_records();
        let bytes = ledger_of(&records);
        let full = parse_ledger(&bytes).unwrap();
        for cut in 5..bytes.len() {
            let parsed = parse_ledger(&bytes[..cut]).unwrap();
            let intact = full.boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(parsed.records, full.records[..intact], "cut at {cut}");
            if full.boundaries.contains(&cut) {
                assert_eq!(parsed.torn, None, "cut at {cut} is a boundary");
            } else {
                assert_eq!(parsed.torn, Some(full.boundaries[intact]), "cut at {cut}");
            }
        }
    }

    #[test]
    fn bad_header_is_rejected() {
        assert_eq!(parse_ledger(b""), Err(LedgerError::BadMagic));
        assert_eq!(parse_ledger(b"FLS"), Err(LedgerError::BadMagic));
        assert_eq!(parse_ledger(b"XXXX\x02"), Err(LedgerError::BadMagic));
        // Replace, not fork: a v1 (JSON-payload) file is a typed error.
        assert_eq!(parse_ledger(b"FLSL\x01"), Err(LedgerError::BadVersion(1)));
        assert!(parse_ledger(b"FLSL\x02").unwrap().records.is_empty());
    }

    #[test]
    fn unknown_tag_is_hard_corruption() {
        let mut bytes = header().to_vec();
        bytes.extend_from_slice(&frame(0x7f, &[1, 2, 3]));
        assert_eq!(
            parse_ledger(&bytes),
            Err(LedgerError::UnknownTag {
                tag: 0x7f,
                offset: 5
            })
        );
    }

    #[test]
    fn oversized_length_is_hard_corruption() {
        let mut bytes = header().to_vec();
        bytes.push(TAG_RECLAIM);
        put_varint(&mut bytes, MAX_LEN + 1);
        assert_eq!(
            parse_ledger(&bytes),
            Err(LedgerError::Oversized {
                declared: MAX_LEN + 1,
                offset: 5
            })
        );
    }

    #[test]
    fn runaway_length_varint_is_hard_corruption() {
        let mut bytes = header().to_vec();
        bytes.push(TAG_RECLAIM);
        bytes.extend_from_slice(&[0xff; 10]);
        assert_eq!(
            parse_ledger(&bytes),
            Err(LedgerError::VarintOverflow { offset: 5 })
        );
    }

    #[test]
    fn trailing_payload_bytes_are_hard_corruption() {
        let mut payload = Vec::new();
        put_varint(&mut payload, 42);
        payload.push(0xAA); // junk after the need varint
        let mut bytes = header().to_vec();
        bytes.extend_from_slice(&frame(TAG_RECLAIM, &payload));
        assert!(matches!(
            parse_ledger(&bytes),
            Err(LedgerError::Corrupt { offset: 5, .. })
        ));
    }

    #[test]
    fn record_table_matches_tags() {
        let tags: Vec<u8> = RECORDS.iter().map(|(t, ..)| *t).collect();
        assert_eq!(
            tags,
            vec![
                TAG_INGEST,
                TAG_SERVE,
                TAG_SERVE_BATCH,
                TAG_EVICT,
                TAG_RECLAIM,
                TAG_DIGEST
            ]
        );
    }
}
