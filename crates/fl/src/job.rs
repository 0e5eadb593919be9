//! The FL job simulator: a deterministic generator of rounds.
//!
//! The reproduction does not train neural networks; it generates the
//! *metadata stream* a real FL job emits — per-client weight updates with
//! realistic statistical structure (a shared global signal, latent client
//! clusters, per-client bias, malicious outliers), loss/accuracy
//! trajectories, timing, and pool-wide operational state. Non-training
//! workloads run real algorithms over this stream, and the storage systems
//! move its (logically full-sized) bytes.

use serde::{Deserialize, Serialize};

use flstore_sim::rng::DetRng;

use crate::aggregate::{fedavg, AggregateModel};
use crate::client::{generate_population, ClientProfile};
use crate::dataset::DatasetSpec;
use crate::hyperparams::HyperParams;
use crate::ids::{JobId, Round};
use crate::metrics::{ClientRoundInfo, RoundMetrics};
use crate::update::{ModelUpdate, UpdateMetrics};
use crate::weights::{WeightVector, DEFAULT_DIM};
use crate::zoo::ModelArch;

/// Configuration of one simulated FL job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlJobConfig {
    /// Job identifier.
    pub job: JobId,
    /// Model architecture being trained.
    pub model: ModelArch,
    /// Dataset descriptor.
    pub dataset: DatasetSpec,
    /// Size of the client pool.
    pub total_clients: u32,
    /// Clients selected per round.
    pub clients_per_round: u32,
    /// Total training rounds.
    pub rounds: u32,
    /// Fraction of the pool that is malicious.
    pub malicious_fraction: f64,
    /// Dirichlet concentration for non-IID label splits.
    pub dirichlet_alpha: f64,
    /// Reduced weight dimensionality.
    pub weight_dim: usize,
    /// Number of latent client clusters (personalization structure).
    pub latent_clusters: usize,
    /// Seed for all randomness in the job.
    pub seed: u64,
}

impl FlJobConfig {
    /// The paper's evaluation setting (§5.1): 10 clients per round from a
    /// pool of 250, 1000 rounds.
    pub fn paper_eval(job: JobId, model: ModelArch) -> Self {
        FlJobConfig {
            job,
            model,
            dataset: DatasetSpec::CIFAR10,
            total_clients: 250,
            clients_per_round: 10,
            rounds: 1000,
            malicious_fraction: 0.1,
            dirichlet_alpha: 0.5,
            weight_dim: DEFAULT_DIM,
            latent_clusters: 5,
            seed: 0xF15_0000 + job.as_u32() as u64,
        }
    }

    /// The motivation setting (Figs. 1–2): 200 clients, EfficientNet.
    pub fn motivation(job: JobId) -> Self {
        FlJobConfig {
            total_clients: 200,
            ..FlJobConfig::paper_eval(job, ModelArch::EFFICIENTNET_V2_S)
        }
    }

    /// A small configuration for fast unit tests.
    pub fn quick_test(job: JobId) -> Self {
        FlJobConfig {
            total_clients: 20,
            clients_per_round: 5,
            rounds: 12,
            weight_dim: 32,
            ..FlJobConfig::paper_eval(job, ModelArch::RESNET18)
        }
    }

    /// Logical bytes of metadata one round produces (updates + aggregate +
    /// hyperparameters + round metrics). Used for capacity analyses (§2.2).
    pub fn round_metadata_bytes(&self) -> flstore_sim::bytes::ByteSize {
        let model = self.model.size();
        // clients_per_round updates + 1 aggregate, plus small records.
        model * (self.clients_per_round as u64 + 1)
            + flstore_sim::bytes::ByteSize::from_kb(2)
            + flstore_sim::bytes::ByteSize::from_bytes(96 * self.total_clients as u64 + 1024)
    }
}

/// Everything one round produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round number.
    pub round: Round,
    /// The hyperparameters used.
    pub hyperparams: HyperParams,
    /// Updates from clients that completed training.
    pub updates: Vec<ModelUpdate>,
    /// The FedAvg aggregate.
    pub aggregate: AggregateModel,
    /// Pool-wide operational metadata.
    pub metrics: RoundMetrics,
}

/// Deterministic round-by-round FL job simulator.
///
/// Implements [`Iterator`], yielding one [`RoundRecord`] per round.
///
/// # Examples
///
/// ```
/// use flstore_fl::job::{FlJobConfig, FlJobSim};
/// use flstore_fl::ids::JobId;
///
/// let mut sim = FlJobSim::new(FlJobConfig::quick_test(JobId::new(1)));
/// let first = sim.next().expect("configured rounds");
/// assert_eq!(first.round.as_u32(), 0);
/// assert!(!first.updates.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FlJobSim {
    cfg: FlJobConfig,
    population: Vec<ClientProfile>,
    cluster_dirs: Vec<WeightVector>,
    client_bias: Vec<WeightVector>,
    client_cluster: Vec<usize>,
    global: WeightVector,
    payout: Vec<f64>,
    participation: Vec<u32>,
    last_loss: Vec<f64>,
    round: u32,
    rng_select: DetRng,
    rng_weights: DetRng,
    rng_metrics: DetRng,
}

impl FlJobSim {
    /// Builds the simulator (generates the client population and latent
    /// structure; O(total_clients × weight_dim)).
    ///
    /// # Panics
    ///
    /// Panics if the configuration selects zero clients per round or has an
    /// empty pool.
    pub fn new(cfg: FlJobConfig) -> Self {
        assert!(cfg.total_clients > 0, "client pool must be non-empty");
        assert!(
            cfg.clients_per_round > 0 && cfg.clients_per_round <= cfg.total_clients,
            "clients_per_round must be in 1..=total_clients"
        );
        assert!(
            cfg.latent_clusters > 0,
            "at least one latent cluster required"
        );
        let population = generate_population(
            cfg.seed,
            cfg.total_clients,
            cfg.dataset.classes,
            cfg.dirichlet_alpha,
            cfg.malicious_fraction,
        );
        let mut rng_structure = DetRng::stream(cfg.seed, "latent-structure");
        let cluster_dirs: Vec<WeightVector> = (0..cfg.latent_clusters)
            .map(|_| WeightVector::gaussian(&mut rng_structure, cfg.weight_dim, 1.0))
            .collect();
        let client_bias: Vec<WeightVector> = (0..cfg.total_clients)
            .map(|_| WeightVector::gaussian(&mut rng_structure, cfg.weight_dim, 1.0))
            .collect();
        let client_cluster: Vec<usize> = (0..cfg.total_clients as usize)
            .map(|_| rng_structure.index(cfg.latent_clusters))
            .collect();
        let global = WeightVector::gaussian(&mut rng_structure, cfg.weight_dim, 1.0);
        let n = cfg.total_clients as usize;
        FlJobSim {
            rng_select: DetRng::stream(cfg.seed, "selection"),
            rng_weights: DetRng::stream(cfg.seed, "weights"),
            rng_metrics: DetRng::stream(cfg.seed, "metrics"),
            population,
            cluster_dirs,
            client_bias,
            client_cluster,
            global,
            payout: vec![0.0; n],
            participation: vec![0; n],
            last_loss: vec![2.3; n],
            round: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FlJobConfig {
        &self.cfg
    }

    /// Latent cluster assignment of each client (ground truth for
    /// clustering-workload tests).
    pub fn ground_truth_clusters(&self) -> &[usize] {
        &self.client_cluster
    }

    /// Global loss/accuracy trajectory at a round.
    fn trajectory(&self, round: u32) -> (f64, f64) {
        let progress = round as f64 / self.cfg.rounds.max(1) as f64;
        let decay = (-3.0 * progress).exp();
        let loss = 0.25 + 2.05 * decay;
        let acc = 0.85 - 0.75 * decay;
        (loss, acc)
    }

    fn synth_update(
        &mut self,
        client_idx: usize,
        round: Round,
        noise_scale: f64,
        global_loss: f64,
    ) -> ModelUpdate {
        let profile = &self.population[client_idx];
        let malicious = profile.is_malicious;
        let dim = self.cfg.weight_dim;
        let weights = if malicious {
            // Unrelated direction with inflated norm: the signature
            // norm/cosine-based filters look for.
            WeightVector::gaussian(&mut self.rng_weights, dim, 2.5)
        } else {
            let mut w = self.global.clone();
            w.axpy(0.5, &self.cluster_dirs[self.client_cluster[client_idx]]);
            w.axpy(0.2, &self.client_bias[client_idx]);
            let noise = WeightVector::gaussian(&mut self.rng_weights, dim, noise_scale);
            w.axpy(1.0, &noise);
            w
        };
        let loss_noise = self.rng_metrics.normal(0.0, 0.05).abs();
        let local_loss = if malicious {
            global_loss * 1.5 + 0.8 + loss_noise
        } else {
            global_loss * (0.9 + 0.2 * self.rng_metrics.u01()) + loss_noise
        };
        let local_accuracy = if malicious {
            (0.3 * self.rng_metrics.u01()).max(0.02)
        } else {
            (1.05 - local_loss / 2.55).clamp(0.02, 0.99)
        };
        let ref_train_secs = 60.0 * self.cfg.model.compute_scale();
        let train_time_s =
            profile.local_train_secs(ref_train_secs) * (0.9 + 0.2 * self.rng_metrics.u01());
        let upload_time_s = profile.upload_secs(self.cfg.model.size().as_bytes());
        self.last_loss[client_idx] = local_loss;
        ModelUpdate {
            job: self.cfg.job,
            client: profile.id,
            round,
            weights,
            metrics: UpdateMetrics {
                local_loss,
                local_accuracy,
                train_time_s,
                upload_time_s,
                num_samples: profile.num_samples,
                staleness: 0,
            },
            ground_truth_malicious: malicious,
        }
    }

    /// Advances one round.
    pub fn next_round(&mut self) -> Option<RoundRecord> {
        if self.round >= self.cfg.rounds {
            return None;
        }
        let round = Round::new(self.round);
        let (global_loss, global_acc) = self.trajectory(self.round);
        let progress = self.round as f64 / self.cfg.rounds.max(1) as f64;
        let noise_scale = 0.3 * (-2.0 * progress).exp() + 0.05;

        // Global signal drifts slowly toward convergence.
        let drift = WeightVector::gaussian(&mut self.rng_weights, self.cfg.weight_dim, 1.0);
        self.global.axpy(0.02 * noise_scale, &drift);

        // Availability, selection, dropout.
        let n = self.population.len();
        let available: Vec<usize> = (0..n)
            .filter(|i| self.rng_select.chance(self.population[*i].availability))
            .collect();
        let k = (self.cfg.clients_per_round as usize).min(available.len().max(1));
        let selected: Vec<usize> = if available.len() <= k {
            available.clone()
        } else {
            self.rng_select
                .choose_k(available.len(), k)
                .into_iter()
                .map(|j| available[j])
                .collect()
        };
        let mut completed: Vec<usize> = selected
            .iter()
            .copied()
            .filter(|i| self.rng_select.chance(self.population[*i].reliability))
            .collect();
        if completed.is_empty() {
            // A round always produces at least one update (the aggregator
            // waits for stragglers in the limit).
            completed.push(selected.first().copied().unwrap_or(0));
        }

        let updates: Vec<ModelUpdate> = completed
            .iter()
            .map(|i| self.synth_update(*i, round, noise_scale, global_loss))
            .collect();
        let aggregate =
            fedavg(self.cfg.job, round, &updates).expect("completed set is never empty");

        // Payouts: completing clients earn credit proportional to alignment
        // with the aggregate (a simple contribution proxy).
        for u in &updates {
            let idx = u.client.as_u32() as usize;
            let contribution = u.weights.cosine_similarity(&aggregate.weights).max(0.0);
            self.payout[idx] += 0.5 + contribution;
            self.participation[idx] += 1;
        }

        let training_round_secs = updates
            .iter()
            .map(|u| u.metrics.train_time_s + u.metrics.upload_time_s)
            .fold(0.0, f64::max);

        let selected_set: std::collections::HashSet<usize> = selected.iter().copied().collect();
        let completed_set: std::collections::HashSet<usize> = completed.iter().copied().collect();
        let available_set: std::collections::HashSet<usize> = available.into_iter().collect();
        let clients: Vec<ClientRoundInfo> = (0..n)
            .map(|i| ClientRoundInfo {
                client: self.population[i].id,
                available: available_set.contains(&i),
                participated: selected_set.contains(&i),
                completed: completed_set.contains(&i),
                compute_speed: self.population[i].compute_speed,
                uplink_mbps: self.population[i].uplink_mbps,
                reliability: self.population[i].reliability,
                payout_balance: self.payout[i],
                participation_count: self.participation[i],
                last_loss: self.last_loss[i],
            })
            .collect();

        let metrics = RoundMetrics {
            round,
            global_loss,
            global_accuracy: global_acc,
            training_round_secs,
            clients,
        };
        let hyperparams = HyperParams::schedule(
            round,
            self.cfg.rounds,
            self.cfg.clients_per_round as f64 / self.cfg.total_clients as f64,
        );

        self.round += 1;
        Some(RoundRecord {
            round,
            hyperparams,
            updates,
            aggregate,
            metrics,
        })
    }
}

impl Iterator for FlJobSim {
    type Item = RoundRecord;

    fn next(&mut self) -> Option<RoundRecord> {
        self.next_round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_configured_rounds() {
        let sim = FlJobSim::new(FlJobConfig::quick_test(JobId::new(1)));
        let records: Vec<RoundRecord> = sim.collect();
        assert_eq!(records.len(), 12);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.round.as_u32(), i as u32);
            assert!(!r.updates.is_empty());
            assert!(r.updates.len() <= 5);
            assert_eq!(r.metrics.clients.len(), 20);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a: Vec<RoundRecord> = FlJobSim::new(FlJobConfig::quick_test(JobId::new(2))).collect();
        let b: Vec<RoundRecord> = FlJobSim::new(FlJobConfig::quick_test(JobId::new(2))).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn loss_decreases_accuracy_increases() {
        let records: Vec<RoundRecord> =
            FlJobSim::new(FlJobConfig::quick_test(JobId::new(3))).collect();
        let first = &records[0].metrics;
        let last = &records[records.len() - 1].metrics;
        assert!(first.global_loss > last.global_loss);
        assert!(first.global_accuracy < last.global_accuracy);
    }

    #[test]
    fn malicious_updates_are_outliers() {
        let mut cfg = FlJobConfig::quick_test(JobId::new(4));
        cfg.malicious_fraction = 0.3;
        cfg.clients_per_round = 10;
        let records: Vec<RoundRecord> = FlJobSim::new(cfg).collect();
        let mut honest_sims = Vec::new();
        let mut malicious_sims = Vec::new();
        for r in &records {
            for u in &r.updates {
                let sim = u.weights.cosine_similarity(&r.aggregate.weights);
                if u.ground_truth_malicious {
                    malicious_sims.push(sim);
                } else {
                    honest_sims.push(sim);
                }
            }
        }
        assert!(
            !malicious_sims.is_empty(),
            "expected malicious participants"
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&honest_sims) > mean(&malicious_sims) + 0.3,
            "honest {} vs malicious {}",
            mean(&honest_sims),
            mean(&malicious_sims)
        );
    }

    #[test]
    fn same_cluster_clients_are_closer() {
        let cfg = FlJobConfig {
            malicious_fraction: 0.0,
            clients_per_round: 20,
            total_clients: 20,
            ..FlJobConfig::quick_test(JobId::new(5))
        };
        let sim = FlJobSim::new(cfg);
        let clusters = sim.ground_truth_clusters().to_vec();
        let records: Vec<RoundRecord> = sim.collect();
        let last = &records[records.len() - 1];
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for a in &last.updates {
            for b in &last.updates {
                if a.client >= b.client {
                    continue;
                }
                let d = a.weights.l2_distance(&b.weights);
                if clusters[a.client.as_u32() as usize] == clusters[b.client.as_u32() as usize] {
                    same.push(d);
                } else {
                    diff.push(d);
                }
            }
        }
        if same.is_empty() || diff.is_empty() {
            return; // tiny pool may miss a pairing; other seeds cover it
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&same) < mean(&diff));
    }

    #[test]
    fn payouts_accumulate_for_participants() {
        let records: Vec<RoundRecord> =
            FlJobSim::new(FlJobConfig::quick_test(JobId::new(6))).collect();
        let last = &records[records.len() - 1].metrics;
        let total_payout: f64 = last.clients.iter().map(|c| c.payout_balance).sum();
        assert!(total_payout > 0.0);
        let participated: u32 = last.clients.iter().map(|c| c.participation_count).sum();
        assert!(participated >= records.len() as u32);
    }

    #[test]
    fn round_metadata_bytes_scale_with_model() {
        let small = FlJobConfig::paper_eval(JobId::new(7), ModelArch::MOBILENET_V3_SMALL);
        let large = FlJobConfig::paper_eval(JobId::new(7), ModelArch::SWIN_V2_TINY);
        assert!(large.round_metadata_bytes() > small.round_metadata_bytes());
        // 10 updates + 1 aggregate of EfficientNet ≈ 0.9 GB.
        let eff = FlJobConfig::paper_eval(JobId::new(8), ModelArch::EFFICIENTNET_V2_S);
        let gb = eff.round_metadata_bytes().as_gb_f64();
        assert!((0.8..1.1).contains(&gb), "round bytes {gb} GB");
    }

    #[test]
    #[should_panic(expected = "clients_per_round")]
    fn oversubscribed_round_panics() {
        let cfg = FlJobConfig {
            clients_per_round: 100,
            total_clients: 10,
            ..FlJobConfig::quick_test(JobId::new(9))
        };
        let _ = FlJobSim::new(cfg);
    }
}
