//! Property-based invariants for the FL substrate.

use proptest::prelude::*;

use flstore_fl::aggregate::fedavg;
use flstore_fl::ids::{ClientId, JobId, Round};
use flstore_fl::job::{FlJobConfig, FlJobSim};
use flstore_fl::metadata::{MetaKey, MetaValue};
use flstore_fl::update::{ModelUpdate, UpdateMetrics};
use flstore_fl::weights::WeightVector;
use flstore_fl::zoo::ModelArch;

fn weight_pair() -> impl Strategy<Value = (WeightVector, WeightVector)> {
    (4usize..64).prop_flat_map(|dim| {
        (
            prop::collection::vec(-100.0f32..100.0, dim),
            prop::collection::vec(-100.0f32..100.0, dim),
        )
            .prop_map(|(a, b)| (WeightVector::from_vec(a), WeightVector::from_vec(b)))
    })
}

fn weight_vec() -> impl Strategy<Value = WeightVector> {
    prop::collection::vec(-100.0f32..100.0, 4..64).prop_map(WeightVector::from_vec)
}

fn update_with(weights: WeightVector, client: u32, samples: u32) -> ModelUpdate {
    ModelUpdate {
        job: JobId::new(0),
        client: ClientId::new(client),
        round: Round::new(0),
        weights,
        metrics: UpdateMetrics {
            local_loss: 1.0,
            local_accuracy: 0.5,
            train_time_s: 10.0,
            upload_time_s: 1.0,
            num_samples: samples,
            staleness: 0,
        },
        ground_truth_malicious: false,
    }
}

proptest! {
    #[test]
    fn cosine_similarity_is_bounded_and_symmetric((a, b) in weight_pair()) {
        let ab = a.cosine_similarity(&b);
        let ba = b.cosine_similarity(&a);
        prop_assert!((-1.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn l2_distance_is_a_metric((a, b) in weight_pair()) {
        prop_assert!(a.l2_distance(&b) >= 0.0);
        prop_assert!((a.l2_distance(&b) - b.l2_distance(&a)).abs() < 1e-6);
        prop_assert!(a.l2_distance(&a) < 1e-6);
    }

    #[test]
    fn weight_bytes_round_trip(v in weight_vec()) {
        // Weights have one byte shape: the shared codec's, inside a blob.
        let value = MetaValue::Update(update_with(v, 1, 10));
        let blob = value.to_blob(&ModelArch::RESNET18);
        prop_assert_eq!(MetaValue::from_blob(&blob), Some(value));
    }

    #[test]
    fn fedavg_stays_in_coordinate_hull(
        dim in 2usize..16,
        rows in prop::collection::vec((prop::collection::vec(-50.0f32..50.0, 16), 1u32..1000), 1..8),
    ) {
        let updates: Vec<ModelUpdate> = rows
            .iter()
            .enumerate()
            .map(|(i, (vals, samples))| {
                update_with(WeightVector::from_vec(vals[..dim].to_vec()), i as u32, *samples)
            })
            .collect();
        let agg = fedavg(JobId::new(0), Round::new(0), &updates).expect("non-empty");
        for d in 0..dim {
            let column: Vec<f32> = updates.iter().map(|u| u.weights.as_slice()[d]).collect();
            let lo = column.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = column.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let v = agg.weights.as_slice()[d];
            prop_assert!(v >= lo - 1e-3 && v <= hi + 1e-3,
                "coordinate {d}: {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn metadata_blob_round_trip_any_round(seed in 0u64..500) {
        let cfg = FlJobConfig {
            seed,
            rounds: 2,
            ..FlJobConfig::quick_test(JobId::new(3))
        };
        let mut sim = FlJobSim::new(cfg);
        let record = sim.next().expect("rounds");
        for u in &record.updates {
            let v = MetaValue::Update(u.clone());
            let blob = v.to_blob(&ModelArch::RESNET18);
            prop_assert_eq!(MetaValue::from_blob(&blob), Some(v));
        }
    }

    #[test]
    fn job_rounds_have_consistent_shape(seed in 0u64..200) {
        let cfg = FlJobConfig {
            seed,
            rounds: 5,
            ..FlJobConfig::quick_test(JobId::new(4))
        };
        let pool = cfg.total_clients;
        let per_round = cfg.clients_per_round;
        for (i, record) in FlJobSim::new(cfg).enumerate() {
            prop_assert_eq!(record.round.as_u32(), i as u32);
            prop_assert!(!record.updates.is_empty());
            prop_assert!(record.updates.len() <= per_round as usize);
            prop_assert_eq!(record.metrics.clients.len(), pool as usize);
            prop_assert_eq!(record.aggregate.num_clients as usize, record.updates.len());
            // Updates come from distinct clients.
            let mut clients: Vec<u32> =
                record.updates.iter().map(|u| u.client.as_u32()).collect();
            clients.sort_unstable();
            clients.dedup();
            prop_assert_eq!(clients.len(), record.updates.len());
            // Losses and accuracies are sane.
            for u in &record.updates {
                prop_assert!(u.metrics.local_loss.is_finite() && u.metrics.local_loss >= 0.0);
                prop_assert!((0.0..=1.0).contains(&u.metrics.local_accuracy));
                prop_assert!(u.metrics.train_time_s > 0.0);
            }
        }
    }

    #[test]
    fn meta_keys_are_injective(
        job in 0u32..100, round in 0u32..1000, client in 0u32..250,
        job2 in 0u32..100, round2 in 0u32..1000, client2 in 0u32..250,
    ) {
        let a = MetaKey::update(JobId::new(job), Round::new(round), ClientId::new(client));
        let b = MetaKey::update(JobId::new(job2), Round::new(round2), ClientId::new(client2));
        if (job, round, client) != (job2, round2, client2) {
            prop_assert_ne!(a.object_key(), b.object_key());
        } else {
            prop_assert_eq!(a.object_key(), b.object_key());
        }
    }
}
