//! The blob decoder (`MetaValue::from_blob`, i.e. the shared record
//! codec behind every cached, persisted and spilled payload) is total and
//! bit-exact: hostile bytes decode to a value or to `None`, never a
//! panic, and every float bit pattern survives.

use flstore_cloud::blob::Blob;
use flstore_fl::codec::{put_varint, MAX_LEN};
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim};
use flstore_fl::metadata::{round_blobs, MetaValue};
use flstore_fl::weights::WeightVector;
use flstore_fl::zoo::ModelArch;
use flstore_sim::bytes::ByteSize;

fn blob_of(payload: Vec<u8>) -> Blob {
    Blob::with_payload(payload.into(), ByteSize::from_kb(1))
}

#[test]
fn truncations_and_bit_flips_never_panic() {
    let job = FlJobConfig {
        weight_dim: 4,
        ..FlJobConfig::quick_test(JobId::new(6))
    };
    let record = FlJobSim::new(job.clone()).next().expect("has rounds");
    for (_, blob) in round_blobs(&record, job.job, &job.model) {
        let payload = blob.payload().to_vec();
        for cut in 0..payload.len() {
            let cut_blob = blob_of(payload[..cut].to_vec());
            assert_eq!(MetaValue::from_blob(&cut_blob), None, "cut at {cut}");
        }
        for pos in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[pos] ^= 1 << bit;
                let _ = MetaValue::from_blob(&blob_of(flipped));
            }
        }
    }
}

#[test]
fn hostile_counts_reserve_nothing() {
    // A count within the bound but with no elements behind it is
    // `Truncated` (capacity is clamped, nothing is reserved); past the
    // bound it is refused before any read.
    for count in [MAX_LEN, MAX_LEN + 1] {
        let mut hostile = vec![1, 0, 0]; // aggregate: job 0, round 0
        put_varint(&mut hostile, count); // weight count
        assert_eq!(MetaValue::from_blob(&blob_of(hostile)), None);
    }
}

#[test]
fn special_floats_round_trip_bit_exact() {
    // NaN payloads, -0.0 and subnormals survive a blob bit for bit.
    let mut sim = FlJobSim::new(FlJobConfig::quick_test(JobId::new(7)));
    let mut update = sim.next().expect("has rounds").updates.remove(0);
    let specials = [
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xffa5_5a5a),
        -0.0,
        f32::from_bits(1),
        f32::MIN_POSITIVE / 2.0,
    ];
    update.weights = WeightVector::from_vec(specials.to_vec());
    update.metrics.local_loss = f64::from_bits(0x7ff8_dead_beef_0001);
    update.metrics.train_time_s = -0.0;
    let blob = MetaValue::Update(update).to_blob(&ModelArch::RESNET18);
    let back = MetaValue::from_blob(&blob).expect("decodable");
    assert_eq!(back.to_blob(&ModelArch::RESNET18).payload(), blob.payload());
    let MetaValue::Update(back) = back else {
        panic!("an update decodes to an update");
    };
    let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(back.weights.as_slice()), bits(&specials));
}
