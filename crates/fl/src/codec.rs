//! The one binary record codec: byte-level primitives and the encoders
//! of the FL model types.
//!
//! Every byte shape this repository gives a model record is produced
//! here: the wire protocol's `Ingest` frames (`flstore-net`), the
//! write-ahead ledger's records (`flstore-durability`) and the cached /
//! persisted / spilled blob payloads ([`crate::metadata::MetaValue`])
//! all call these functions, so a [`RoundRecord`] is the same bytes
//! wherever it rests. The normative layout is `docs/WIRE.md` §2 and §4.
//!
//! Primitives:
//!
//! * integers and lengths — unsigned LEB128 varints;
//! * `f64`/`f32` — IEEE-754 bits, little endian (bit-exact, no
//!   formatting round-trip);
//! * `bool` — one byte, `0` or `1` (anything else is malformed);
//! * `Option<T>` — one presence byte (`0`/`1`) then `T`;
//! * `String` / `Vec<T>` — varint count then elements;
//! * enums — one tag byte in declaration order.
//!
//! The encoding is canonical — the same value always produces the same
//! bytes — and decoding is total: every malformed input surfaces as a
//! typed [`DecodeError`], never a panic, and no declared length is
//! trusted for an allocation before the bytes behind it were seen.

use std::fmt;

use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::{Cost, CostBreakdown};
use flstore_sim::time::{SimDuration, SimTime};

use crate::aggregate::AggregateModel;
use crate::hyperparams::HyperParams;
use crate::ids::{ClientId, JobId, Round};
use crate::job::RoundRecord;
use crate::metadata::{MetaKey, MetaKind, MetaValue};
use crate::metrics::{ClientRoundInfo, RoundMetrics};
use crate::update::{ModelUpdate, UpdateMetrics};
use crate::weights::WeightVector;

/// Hard bound on any declared length: a wire frame's payload, a ledger
/// record's payload, and every count or byte length inside one. A length
/// above this is rejected as [`DecodeError::Oversized`] *before* any
/// allocation, so a corrupt or hostile prefix cannot balloon memory.
pub const MAX_LEN: u64 = 64 * 1024 * 1024;

/// A typed decode failure. Every way encoded bytes can be malformed maps
/// to a variant here; decode never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes ended inside a value.
    Truncated,
    /// A length prefix exceeded [`MAX_LEN`].
    Oversized {
        /// The declared length.
        declared: u64,
        /// The bound it exceeded.
        max: u64,
    },
    /// A varint ran past its maximum width (10 bytes for a `u64`).
    VarintOverflow,
    /// The value decoded, but bytes were left over.
    TrailingBytes {
        /// How many bytes remained unconsumed.
        remaining: usize,
    },
    /// The bytes violated a documented invariant (bad enum tag, invalid
    /// UTF-8, a non-finite cost, ...). The message names the field.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "bytes end inside a value"),
            DecodeError::Oversized { declared, max } => {
                write!(f, "length {declared} exceeds the {max}-byte bound")
            }
            DecodeError::VarintOverflow => write!(f, "varint wider than 10 bytes"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the value")
            }
            DecodeError::Malformed(what) => write!(f, "malformed: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Varints and the bounds-checked reader
// ---------------------------------------------------------------------------

/// Appends `v` as an unsigned LEB128 varint (7 bits per byte, little
/// endian, high bit = continuation). At most 10 bytes for a `u64`.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one unsigned LEB128 varint from a byte source, one byte per
/// `next` call — the only LEB128 decode loop in the workspace. In-memory
/// decoding goes through [`Reader::varint`]; a stream that must not
/// over-read (a socket's frame length) passes its own `next`.
pub fn read_varint<E: From<DecodeError>>(
    mut next: impl FnMut() -> Result<u8, E>,
) -> Result<u64, E> {
    let mut value: u64 = 0;
    for i in 0..10 {
        let byte = next()?;
        let bits = u64::from(byte & 0x7f);
        // The 10th byte may only carry the u64's single remaining bit.
        if i == 9 && bits > 1 {
            return Err(DecodeError::VarintOverflow.into());
        }
        value |= bits << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(DecodeError::VarintOverflow.into())
}

/// A bounds-checked cursor over encoded bytes. All reads return
/// [`DecodeError::Truncated`] past the end instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps encoded bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`DecodeError::TrailingBytes`] unless the bytes were
    /// consumed exactly.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(DecodeError::TrailingBytes { remaining }),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads an unsigned LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        read_varint(|| self.u8())
    }

    /// Reads a varint and narrows it to `usize`, bounds-checked against
    /// [`MAX_LEN`].
    pub fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let declared = self.varint()?;
        let oversized = DecodeError::Oversized {
            declared,
            max: MAX_LEN,
        };
        if declared > MAX_LEN {
            return Err(oversized);
        }
        usize::try_from(declared).map_err(|_| oversized)
    }
}

// ---------------------------------------------------------------------------
// Scalars, options, lists
// ---------------------------------------------------------------------------

/// Appends an `f64` as its IEEE-754 bits, little endian.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Reads an `f64` (any bit pattern, NaN payloads included).
pub fn get_f64(r: &mut Reader<'_>) -> Result<f64, DecodeError> {
    let bytes = r.bytes(8)?;
    Ok(f64::from_bits(u64::from_le_bytes(
        bytes.try_into().expect("8 bytes"),
    )))
}

/// A finite, non-negative `f64` — the invariant `Cost::from_dollars` and
/// `WorkUnits::from_ref_seconds` assert. Checked *before* construction so
/// hostile bytes get a typed error, not a panic.
pub fn get_nonneg_f64(r: &mut Reader<'_>, what: &'static str) -> Result<f64, DecodeError> {
    let v = get_f64(r)?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(DecodeError::Malformed(what))
    }
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn get_f32(r: &mut Reader<'_>) -> Result<f32, DecodeError> {
    let bytes = r.bytes(4)?;
    Ok(f32::from_bits(u32::from_le_bytes(
        bytes.try_into().expect("4 bytes"),
    )))
}

/// Appends a `bool` as one byte.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Reads a `bool`; any byte but `0`/`1` is malformed.
pub fn get_bool(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError::Malformed("bool byte must be 0 or 1")),
    }
}

/// Reads a varint that must fit a `u32`.
pub fn get_u32(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
    u32::try_from(r.varint()?).map_err(|_| DecodeError::Malformed("u32 field out of range"))
}

/// Reads a varint that must fit a `usize`.
pub fn get_usize(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    usize::try_from(r.varint()?).map_err(|_| DecodeError::Malformed("usize field out of range"))
}

/// Appends a string: varint byte length, then the UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Reads a string, validating UTF-8.
pub fn get_str(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    let n = r.len_prefix()?;
    let bytes = r.bytes(n)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Malformed("string is not UTF-8"))
}

/// Appends an `Option<T>`: one presence byte, then `T` if present.
pub fn put_option<T>(buf: &mut Vec<u8>, v: Option<&T>, write: impl FnOnce(&mut Vec<u8>, &T)) {
    put_bool(buf, v.is_some());
    if let Some(v) = v {
        write(buf, v);
    }
}

/// Reads an `Option<T>`.
pub fn get_option<T>(
    r: &mut Reader<'_>,
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    get_bool(r)?.then(|| read(r)).transpose()
}

/// Appends a list: varint element count, then the elements.
pub fn put_vec<T>(buf: &mut Vec<u8>, items: &[T], mut write: impl FnMut(&mut Vec<u8>, &T)) {
    put_varint(buf, items.len() as u64);
    for item in items {
        write(buf, item);
    }
}

/// Reads a list.
pub fn get_vec<T>(
    r: &mut Reader<'_>,
    mut read: impl FnMut(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let n = r.len_prefix()?;
    // Capacity is clamped so a hostile count cannot balloon memory: reads
    // hit `Truncated` long before a fake multi-million count fills in.
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(read(r)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Ids, time, sizes, costs
// ---------------------------------------------------------------------------

/// Appends a job id (varint).
pub fn put_job(buf: &mut Vec<u8>, job: JobId) {
    put_varint(buf, u64::from(job.as_u32()));
}

/// Reads a job id.
pub fn get_job(r: &mut Reader<'_>) -> Result<JobId, DecodeError> {
    Ok(JobId::new(get_u32(r)?))
}

/// Appends a client id (varint).
pub fn put_client(buf: &mut Vec<u8>, client: ClientId) {
    put_varint(buf, u64::from(client.as_u32()));
}

/// Reads a client id.
pub fn get_client(r: &mut Reader<'_>) -> Result<ClientId, DecodeError> {
    Ok(ClientId::new(get_u32(r)?))
}

/// Appends a round number (varint).
pub fn put_round(buf: &mut Vec<u8>, round: Round) {
    put_varint(buf, u64::from(round.as_u32()));
}

/// Reads a round number.
pub fn get_round(r: &mut Reader<'_>) -> Result<Round, DecodeError> {
    Ok(Round::new(get_u32(r)?))
}

/// Appends a virtual-clock instant (varint microseconds).
pub fn put_sim_time(buf: &mut Vec<u8>, t: SimTime) {
    put_varint(buf, t.as_micros());
}

/// Reads a virtual-clock instant.
pub fn get_sim_time(r: &mut Reader<'_>) -> Result<SimTime, DecodeError> {
    Ok(SimTime::from_micros(r.varint()?))
}

/// Appends a virtual-clock duration (varint microseconds).
pub fn put_sim_duration(buf: &mut Vec<u8>, d: SimDuration) {
    put_varint(buf, d.as_micros());
}

/// Reads a virtual-clock duration.
pub fn get_sim_duration(r: &mut Reader<'_>) -> Result<SimDuration, DecodeError> {
    Ok(SimDuration::from_micros(r.varint()?))
}

/// Appends a byte count (varint).
pub fn put_byte_size(buf: &mut Vec<u8>, b: ByteSize) {
    put_varint(buf, b.as_bytes());
}

/// Reads a byte count.
pub fn get_byte_size(r: &mut Reader<'_>) -> Result<ByteSize, DecodeError> {
    Ok(ByteSize::from_bytes(r.varint()?))
}

/// Appends the five-part cost breakdown (compute, storage, transfer,
/// requests, infra), each as `f64` dollars.
pub fn put_cost_breakdown(buf: &mut Vec<u8>, c: &CostBreakdown) {
    for part in [c.compute, c.storage, c.transfer, c.requests, c.infra] {
        put_f64(buf, part.as_dollars());
    }
}

/// Reads a cost breakdown; every part must be finite and non-negative.
pub fn get_cost_breakdown(r: &mut Reader<'_>) -> Result<CostBreakdown, DecodeError> {
    let mut cost =
        || get_nonneg_f64(r, "cost must be finite and non-negative").map(Cost::from_dollars);
    Ok(CostBreakdown {
        compute: cost()?,
        storage: cost()?,
        transfer: cost()?,
        requests: cost()?,
        infra: cost()?,
    })
}

// ---------------------------------------------------------------------------
// FL record types
// ---------------------------------------------------------------------------

fn put_weights(buf: &mut Vec<u8>, w: &WeightVector) {
    // The bulk of every record: reserve once instead of growing per f32.
    buf.reserve(4 * w.dim());
    put_vec(buf, w.as_slice(), |b, v| put_f32(b, *v));
}

fn get_weights(r: &mut Reader<'_>) -> Result<WeightVector, DecodeError> {
    Ok(WeightVector::from_vec(get_vec(r, get_f32)?))
}

/// Appends one round's hyperparameters.
pub fn put_hyperparams(buf: &mut Vec<u8>, h: &HyperParams) {
    put_round(buf, h.round);
    put_f64(buf, h.learning_rate);
    put_varint(buf, u64::from(h.batch_size));
    put_varint(buf, u64::from(h.local_epochs));
    put_f64(buf, h.momentum);
    put_f64(buf, h.weight_decay);
    put_f64(buf, h.server_lr);
    put_f64(buf, h.sample_fraction);
}

/// Reads one round's hyperparameters.
pub fn get_hyperparams(r: &mut Reader<'_>) -> Result<HyperParams, DecodeError> {
    Ok(HyperParams {
        round: get_round(r)?,
        learning_rate: get_f64(r)?,
        batch_size: get_u32(r)?,
        local_epochs: get_u32(r)?,
        momentum: get_f64(r)?,
        weight_decay: get_f64(r)?,
        server_lr: get_f64(r)?,
        sample_fraction: get_f64(r)?,
    })
}

/// Appends one client's model update.
pub fn put_update(buf: &mut Vec<u8>, u: &ModelUpdate) {
    put_job(buf, u.job);
    put_client(buf, u.client);
    put_round(buf, u.round);
    put_weights(buf, &u.weights);
    put_f64(buf, u.metrics.local_loss);
    put_f64(buf, u.metrics.local_accuracy);
    put_f64(buf, u.metrics.train_time_s);
    put_f64(buf, u.metrics.upload_time_s);
    put_varint(buf, u64::from(u.metrics.num_samples));
    put_varint(buf, u64::from(u.metrics.staleness));
    put_bool(buf, u.ground_truth_malicious);
}

/// Reads one client's model update.
pub fn get_update(r: &mut Reader<'_>) -> Result<ModelUpdate, DecodeError> {
    Ok(ModelUpdate {
        job: get_job(r)?,
        client: get_client(r)?,
        round: get_round(r)?,
        weights: get_weights(r)?,
        metrics: UpdateMetrics {
            local_loss: get_f64(r)?,
            local_accuracy: get_f64(r)?,
            train_time_s: get_f64(r)?,
            upload_time_s: get_f64(r)?,
            num_samples: get_u32(r)?,
            staleness: get_u32(r)?,
        },
        ground_truth_malicious: get_bool(r)?,
    })
}

/// Appends one round's aggregated model.
pub fn put_aggregate(buf: &mut Vec<u8>, a: &AggregateModel) {
    put_job(buf, a.job);
    put_round(buf, a.round);
    put_weights(buf, &a.weights);
    put_f64(buf, a.loss);
    put_f64(buf, a.accuracy);
    put_varint(buf, u64::from(a.num_clients));
}

/// Reads one round's aggregated model.
pub fn get_aggregate(r: &mut Reader<'_>) -> Result<AggregateModel, DecodeError> {
    Ok(AggregateModel {
        job: get_job(r)?,
        round: get_round(r)?,
        weights: get_weights(r)?,
        loss: get_f64(r)?,
        accuracy: get_f64(r)?,
        num_clients: get_u32(r)?,
    })
}

fn put_client_info(buf: &mut Vec<u8>, c: &ClientRoundInfo) {
    put_client(buf, c.client);
    put_bool(buf, c.available);
    put_bool(buf, c.participated);
    put_bool(buf, c.completed);
    put_f64(buf, c.compute_speed);
    put_f64(buf, c.uplink_mbps);
    put_f64(buf, c.reliability);
    put_f64(buf, c.payout_balance);
    put_varint(buf, u64::from(c.participation_count));
    put_f64(buf, c.last_loss);
}

fn get_client_info(r: &mut Reader<'_>) -> Result<ClientRoundInfo, DecodeError> {
    Ok(ClientRoundInfo {
        client: get_client(r)?,
        available: get_bool(r)?,
        participated: get_bool(r)?,
        completed: get_bool(r)?,
        compute_speed: get_f64(r)?,
        uplink_mbps: get_f64(r)?,
        reliability: get_f64(r)?,
        payout_balance: get_f64(r)?,
        participation_count: get_u32(r)?,
        last_loss: get_f64(r)?,
    })
}

/// Appends one round's operational metrics.
pub fn put_round_metrics(buf: &mut Vec<u8>, m: &RoundMetrics) {
    put_round(buf, m.round);
    put_f64(buf, m.global_loss);
    put_f64(buf, m.global_accuracy);
    put_f64(buf, m.training_round_secs);
    put_vec(buf, &m.clients, put_client_info);
}

/// Reads one round's operational metrics.
pub fn get_round_metrics(r: &mut Reader<'_>) -> Result<RoundMetrics, DecodeError> {
    Ok(RoundMetrics {
        round: get_round(r)?,
        global_loss: get_f64(r)?,
        global_accuracy: get_f64(r)?,
        training_round_secs: get_f64(r)?,
        clients: get_vec(r, get_client_info)?,
    })
}

/// Appends one full round record — the bytes a wire `Ingest` frame
/// carries after `[now][job]` and a ledger `Ingest` record after its
/// time varint.
pub fn put_record(buf: &mut Vec<u8>, rec: &RoundRecord) {
    put_round(buf, rec.round);
    put_hyperparams(buf, &rec.hyperparams);
    put_vec(buf, &rec.updates, put_update);
    put_aggregate(buf, &rec.aggregate);
    put_round_metrics(buf, &rec.metrics);
}

/// Reads one full round record.
pub fn get_record(r: &mut Reader<'_>) -> Result<RoundRecord, DecodeError> {
    Ok(RoundRecord {
        round: get_round(r)?,
        hyperparams: get_hyperparams(r)?,
        updates: get_vec(r, get_update)?,
        aggregate: get_aggregate(r)?,
        metrics: get_round_metrics(r)?,
    })
}

// ---------------------------------------------------------------------------
// Metadata keys and values
// ---------------------------------------------------------------------------

fn meta_kind_tag(kind: MetaKind) -> u8 {
    match kind {
        MetaKind::ClientUpdate => 0,
        MetaKind::Aggregate => 1,
        MetaKind::HyperParams => 2,
        MetaKind::RoundMetrics => 3,
    }
}

fn get_meta_kind(r: &mut Reader<'_>) -> Result<MetaKind, DecodeError> {
    Ok(match r.u8()? {
        0 => MetaKind::ClientUpdate,
        1 => MetaKind::Aggregate,
        2 => MetaKind::HyperParams,
        3 => MetaKind::RoundMetrics,
        _ => return Err(DecodeError::Malformed("unknown metadata kind tag")),
    })
}

/// Appends a metadata key.
pub fn put_meta_key(buf: &mut Vec<u8>, k: &MetaKey) {
    put_job(buf, k.job);
    put_round(buf, k.round);
    put_option(buf, k.client.as_ref(), |b, c| put_client(b, *c));
    buf.push(meta_kind_tag(k.kind));
}

/// Reads a metadata key.
pub fn get_meta_key(r: &mut Reader<'_>) -> Result<MetaKey, DecodeError> {
    Ok(MetaKey {
        job: get_job(r)?,
        round: get_round(r)?,
        client: get_option(r, get_client)?,
        kind: get_meta_kind(r)?,
    })
}

/// Appends a metadata value: its kind tag byte, then the same bytes the
/// value occupies inside a round record.
pub fn put_meta_value(buf: &mut Vec<u8>, v: &MetaValue) {
    buf.push(meta_kind_tag(v.key().kind));
    match v {
        MetaValue::Update(u) => put_update(buf, u),
        MetaValue::Aggregate(a) => put_aggregate(buf, a),
        MetaValue::Hyper(h) => put_hyperparams(buf, h),
        MetaValue::Metrics(m) => put_round_metrics(buf, m),
    }
}

/// Reads a metadata value.
pub fn get_meta_value(r: &mut Reader<'_>) -> Result<MetaValue, DecodeError> {
    Ok(match get_meta_kind(r)? {
        MetaKind::ClientUpdate => MetaValue::Update(get_update(r)?),
        MetaKind::Aggregate => MetaValue::Aggregate(get_aggregate(r)?),
        MetaKind::HyperParams => MetaValue::Hyper(get_hyperparams(r)?),
        MetaKind::RoundMetrics => MetaValue::Metrics(get_round_metrics(r)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn varint_rejects_overlong() {
        // 11 continuation bytes can never be a valid u64 varint.
        let buf = [0x80u8; 11];
        assert_eq!(Reader::new(&buf).varint(), Err(DecodeError::VarintOverflow));
        // A 10th byte carrying more than the one remaining bit overflows.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert_eq!(Reader::new(&buf).varint(), Err(DecodeError::VarintOverflow));
    }
}
