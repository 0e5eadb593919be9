//! The v2 ledger decoder under hostile bytes, in the style of
//! `crates/net/tests/malformed.rs`: every single-bit flip of a real
//! ledger is classified (records, a torn tail, or a typed error — never
//! a panic), and every float bit pattern survives a round trip.

use flstore_core::durable::StateDigest;
use flstore_durability::records::{encode_record, header, parse_ledger, LedgerRecord};
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim};
use flstore_fl::metadata::MetaKey;
use flstore_fl::weights::WeightVector;
use flstore_sim::bytes::ByteSize;
use flstore_sim::time::SimTime;
use flstore_workloads::request::{RequestId, WorkloadRequest};
use flstore_workloads::taxonomy::WorkloadKind;

/// One record of every kind, over a deliberately small round.
fn sample_records() -> Vec<LedgerRecord> {
    let job = FlJobConfig {
        weight_dim: 4,
        ..FlJobConfig::quick_test(JobId::new(3))
    };
    let round = FlJobSim::new(job.clone()).next().expect("one round");
    let request = WorkloadRequest::new(
        RequestId::new(9),
        WorkloadKind::Debugging,
        job.job,
        round.round,
        Some(round.updates[0].client),
    );
    vec![
        LedgerRecord::Evict {
            key: MetaKey::aggregate(job.job, round.round),
        },
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
        LedgerRecord::Reclaim {
            need: ByteSize::from_mb(12),
        },
        LedgerRecord::Digest(StateDigest {
            rows: vec!["k size=1".to_string(), "l size=2".to_string()],
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
fn every_single_bit_flip_is_classified() {
    let bytes = ledger_of(&sample_records());
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            // A flipped length can only ever name bytes already in the
            // file: whatever parses stays inside it.
            if let Ok(parsed) = parse_ledger(&flipped) {
                assert!(parsed.boundaries.iter().all(|&b| b <= flipped.len()));
                assert!(parsed.torn.is_none_or(|t| t < flipped.len()));
            }
        }
    }
}

#[test]
fn special_floats_round_trip_bit_exact() {
    // NaN payloads, -0.0 and subnormals survive the ledger bit for bit
    // (the v1 JSON payloads could not represent a NaN at all).
    let mut records = sample_records();
    let LedgerRecord::Ingest { record, .. } = &mut records[1] else {
        panic!("the second sample is the ingest");
    };
    let specials = [
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xffa5_5a5a),
        -0.0,
        f32::from_bits(1),
        f32::MIN_POSITIVE / 2.0,
    ];
    record.updates[0].weights = WeightVector::from_vec(specials.to_vec());
    record.updates[0].metrics.local_loss = f64::from_bits(0x7ff8_dead_beef_0001);
    record.aggregate.loss = -0.0;
    record.metrics.global_loss = f64::from_bits(1);
    let bytes = ledger_of(&records);
    let parsed = parse_ledger(&bytes).expect("a well-formed ledger");
    assert_eq!(ledger_of(&parsed.records), bytes);
    let LedgerRecord::Ingest { record, .. } = &parsed.records[1] else {
        panic!("the ingest comes back second");
    };
    let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(record.updates[0].weights.as_slice()), bits(&specials));
}
