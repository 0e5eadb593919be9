//! Conventional FL aggregator baselines (paper §5.1, Fig. 3).
//!
//! Both baselines keep the compute plane (a dedicated SageMaker-class VM)
//! separate from the data plane:
//!
//! * **ObjStore-Agg** — data plane is an S3-class object store: every
//!   request fetches its inputs across the slow object-store path, computes
//!   on the VM, and writes the result back.
//! * **Cache-Agg** — data plane is an ElastiCache-class in-memory cluster
//!   (with object-store backing): faster fetches, but the cluster bills
//!   node-hours around the clock and the data still crosses planes to reach
//!   the VM.

use flstore_cloud::blob::Blob;
use flstore_cloud::memcache::{MemCache, MemCacheConfig};
use flstore_cloud::objstore::{ObjectStore, ObjectStoreConfig};
use flstore_cloud::vm::{VmInstance, VmType};
use flstore_core::store::IngestReceipt;
use flstore_fl::decoded::{DecodedCache, DecodedStats};
use flstore_fl::ids::JobId;
use flstore_fl::job::RoundRecord;
use flstore_fl::metadata::{round_entries, SharedValue};
use flstore_fl::zoo::ModelArch;
use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::{Cost, CostBreakdown};
use flstore_sim::latency::LatencyBreakdown;
use flstore_sim::time::{SimDuration, SimTime};
use flstore_workloads::request::{JobCatalog, WorkloadRequest};
use flstore_workloads::run::{execute, WorkloadOutcome};
use flstore_workloads::service::{RequestOutcome, ServiceLedger};

use crate::error::BaselineError;

/// Which data plane backs the aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPlaneKind {
    /// S3-class object store (the ObjStore-Agg baseline).
    ObjectStore,
    /// ElastiCache-class in-memory cluster with object-store backing
    /// (the Cache-Agg baseline).
    MemCache,
}

impl DataPlaneKind {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            DataPlaneKind::ObjectStore => "ObjStore-Agg",
            DataPlaneKind::MemCache => "Cache-Agg",
        }
    }
}

/// Baseline configuration.
#[derive(Debug, Clone)]
pub struct AggregatorConfig {
    /// Aggregator instance type (the paper deploys ml.m5.4xlarge).
    pub vm: VmType,
    /// Concurrent request slots on the aggregator.
    pub worker_slots: usize,
    /// Data plane selection.
    pub data_plane: DataPlaneKind,
    /// Object-store parameters (persistent plane; also Cache-Agg backing).
    pub objstore: ObjectStoreConfig,
    /// Cache parameters (Cache-Agg only). When `None` for a
    /// [`DataPlaneKind::MemCache`] baseline, the cluster is sized for
    /// `working_set`.
    pub cache: Option<MemCacheConfig>,
    /// Working set the Cache-Agg cluster must hold (defaults to ~1000
    /// rounds of the job's metadata when building via
    /// [`AggregatorBaseline::new`]).
    pub working_set: ByteSize,
    /// Request routing/bookkeeping overhead.
    pub routing_overhead: SimDuration,
}

impl AggregatorConfig {
    /// The paper's ObjStore-Agg setup for one job.
    pub fn objstore_agg() -> Self {
        AggregatorConfig {
            vm: VmType::ML_M5_4XLARGE,
            worker_slots: 1,
            data_plane: DataPlaneKind::ObjectStore,
            objstore: ObjectStoreConfig::default(),
            cache: None,
            working_set: ByteSize::ZERO,
            routing_overhead: SimDuration::from_millis(2),
        }
    }

    /// The paper's Cache-Agg setup: an ElastiCache cluster sized to hold the
    /// job's metadata working set.
    pub fn cache_agg(working_set: ByteSize) -> Self {
        AggregatorConfig {
            data_plane: DataPlaneKind::MemCache,
            working_set,
            ..AggregatorConfig::objstore_agg()
        }
    }
}

/// A conventional aggregator baseline serving non-training requests.
///
/// # Examples
///
/// ```
/// use flstore_baselines::agg::{AggregatorBaseline, AggregatorConfig};
/// use flstore_fl::ids::JobId;
/// use flstore_fl::job::{FlJobConfig, FlJobSim};
/// use flstore_sim::time::SimTime;
///
/// let cfg = FlJobConfig::quick_test(JobId::new(1));
/// let mut agg = AggregatorBaseline::new(
///     AggregatorConfig::objstore_agg(),
///     cfg.job,
///     cfg.model,
///     SimTime::ZERO,
/// );
/// let mut sim = FlJobSim::new(cfg);
/// let record = sim.next().expect("rounds");
/// agg.ingest_round(SimTime::ZERO, &record);
/// ```
#[derive(Debug)]
pub struct AggregatorBaseline {
    cfg: AggregatorConfig,
    vm: VmInstance,
    objstore: ObjectStore,
    cache: Option<MemCache>,
    /// One decoded handle per ingested object — bounded by the same set
    /// `objstore` retains for the experiment's lifetime, so the layer
    /// tracks (not outgrows) existing memory behaviour. Entries survive
    /// memcache eviction on purpose: the backing-store refetch returns
    /// the identical payload bytes, so the old decode stays valid.
    decoded: DecodedCache,
    catalog: JobCatalog,
    ledger: ServiceLedger,
}

impl AggregatorBaseline {
    /// Launches the baseline at `now` for one job.
    pub fn new(cfg: AggregatorConfig, job: JobId, model: ModelArch, now: SimTime) -> Self {
        let cache = match cfg.data_plane {
            DataPlaneKind::ObjectStore => None,
            DataPlaneKind::MemCache => {
                let cache_cfg = cfg
                    .cache
                    .unwrap_or_else(|| MemCacheConfig::sized_for(cfg.working_set));
                Some(MemCache::new(cache_cfg, now))
            }
        };
        AggregatorBaseline {
            vm: VmInstance::launch(cfg.vm, now, cfg.worker_slots.max(1)),
            objstore: ObjectStore::new(cfg.objstore),
            cache,
            decoded: DecodedCache::new(),
            catalog: JobCatalog::new(job, model),
            ledger: ServiceLedger::new(),
            cfg,
        }
    }

    /// The baseline's label ("ObjStore-Agg" / "Cache-Agg").
    pub fn label(&self) -> &'static str {
        self.cfg.data_plane.label()
    }

    /// The serving ledger.
    pub fn ledger(&self) -> &ServiceLedger {
        &self.ledger
    }

    /// The job catalog.
    pub fn catalog(&self) -> &JobCatalog {
        &self.catalog
    }

    /// The aggregator VM.
    pub fn vm(&self) -> &VmInstance {
        &self.vm
    }

    /// Decoded-value layer statistics: how often the aggregator re-parsed
    /// blobs vs. reused a shared decoded handle.
    pub fn decoded_stats(&self) -> DecodedStats {
        self.decoded.stats()
    }

    /// Always-on infrastructure cost from launch to `now`: the aggregator
    /// instance plus (for Cache-Agg) the cache cluster node-hours.
    pub fn infra_cost(&self, now: SimTime) -> Cost {
        let mut cost = self.vm.uptime_cost(now);
        if let Some(cache) = &self.cache {
            cost += cache.infra_cost(now);
        }
        cost
    }

    /// Total experiment cost at `now`: per-request spend + background
    /// ingest spend + always-on infrastructure + storage rent.
    pub fn total_cost(&mut self, now: SimTime) -> CostBreakdown {
        let mut total = self.ledger.total_cost();
        total.infra += self.infra_cost(now);
        total.storage += self.objstore.storage_cost(now);
        total
    }

    /// Ingests a round: all metadata is stored in the data plane (and, for
    /// Cache-Agg, written through to the backing object store). The
    /// receipt reports what the cache actually did: `cached` counts
    /// objects that ended resident in the memcache cluster (0 for
    /// ObjStore-Agg, fewer than `backed_up` when an undersized cluster
    /// refuses oversized blobs), and `evicted` counts LRU victims shed to
    /// make room.
    pub fn ingest_round(&mut self, now: SimTime, record: &RoundRecord) -> IngestReceipt {
        let before_evictions = self.cache.as_ref().map_or(0, |c| c.stats().evictions);
        self.catalog.observe_round(record);
        let items = round_entries(record, self.catalog.job(), self.catalog.model());
        let stored = items.len();
        let okeys: Vec<_> = items.iter().map(|e| e.key.object_key()).collect();
        for e in items {
            let okey = e.key.object_key();
            let cost = self.objstore.put_async(now, okey.clone(), e.blob.clone());
            self.ledger.background_cost += cost;
            // The producer holds the decoded value: seed the decoded layer
            // so serving never re-parses bytes it already understood.
            self.decoded.seed(e.key, &e.blob, e.value);
            if let Some(cache) = &mut self.cache {
                cache.set(now, okey, e.blob);
            }
        }
        let cached = match &self.cache {
            // What actually ended resident: an undersized cluster refuses
            // oversized blobs and LRU-evicts earlier entries (possibly
            // from this very round).
            Some(cache) => okeys.iter().filter(|k| cache.contains(k)).count(),
            None => 0,
        };
        let evicted =
            (self.cache.as_ref().map_or(0, |c| c.stats().evictions) - before_evictions) as usize;
        IngestReceipt {
            cached,
            evicted,
            backed_up: stored,
            // Baselines have no per-tenant quota gate.
            quota_denied: 0,
        }
    }

    /// Evicts `key` from the baseline's volatile layers (memcache entry,
    /// decoded handle); the backing object store keeps its copy, exactly
    /// like `FlStore::evict` keeps the persistent one. Returns whether any
    /// layer actually held the key.
    pub fn evict(&mut self, key: &flstore_fl::metadata::MetaKey) -> bool {
        let mut dropped = false;
        if let Some(cache) = &mut self.cache {
            dropped |= cache.remove(&key.object_key());
        }
        let before = self.decoded.stats().invalidations;
        self.decoded.invalidate(key);
        dropped || self.decoded.stats().invalidations > before
    }

    /// Serves one non-training request: fetch inputs across the network from
    /// the data plane, compute on the aggregator VM, store the result back.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::NoData`] when no ingested round satisfies the
    ///   request;
    /// * [`BaselineError::Store`] when the data plane lost an object;
    /// * [`BaselineError::Workload`] when the workload rejects its inputs.
    pub fn serve(
        &mut self,
        now: SimTime,
        request: &WorkloadRequest,
    ) -> Result<(WorkloadOutcome, RequestOutcome), BaselineError> {
        let needs = self.catalog.data_needs(request);
        if needs.is_empty() {
            return Err(BaselineError::NoData {
                request: request.id,
            });
        }

        let mut latency = LatencyBreakdown {
            routing: self.cfg.routing_overhead,
            ..LatencyBreakdown::ZERO
        };
        let mut cost = CostBreakdown::ZERO;
        let mut cache_hits = 0usize;
        let mut cache_misses = 0usize;

        // GET phase: fetch every input across the plane boundary.
        let mut blobs: Vec<Blob> = Vec::with_capacity(needs.len());
        match self.cfg.data_plane {
            DataPlaneKind::ObjectStore => {
                let okeys: Vec<_> = needs.iter().map(|k| k.object_key()).collect();
                let (fetched, receipt) = self.objstore.get_many(now, &okeys)?;
                cache_misses += fetched.len(); // every fetch crosses to S3
                latency.communication += receipt.latency;
                cost += receipt.cost;
                blobs = fetched;
            }
            DataPlaneKind::MemCache => {
                for key in &needs {
                    let okey = key.object_key();
                    let cache = self.cache.as_mut().expect("Cache-Agg has a cache");
                    match cache.get(now, &okey) {
                        Some((blob, receipt)) => {
                            cache_hits += 1;
                            latency.communication += receipt.latency;
                            cost += receipt.cost;
                            blobs.push(blob);
                        }
                        None => {
                            // Cold object: fall back to the backing store,
                            // then populate the cache (read-through).
                            let (blob, receipt) = self.objstore.get(now, &okey)?;
                            cache_misses += 1;
                            latency.communication += receipt.latency;
                            cost += receipt.cost;
                            let cache = self.cache.as_mut().expect("Cache-Agg has a cache");
                            cache.set(now, okey, blob.clone());
                            blobs.push(blob);
                        }
                    }
                }
            }
        }

        // Decode (at most once per object lifetime) and execute on the VM.
        // The decoded layer validates byte identity: a blob overwritten in
        // the data plane re-decodes, an unchanged one is an `Arc` clone.
        let values: Vec<SharedValue> = needs
            .iter()
            .zip(&blobs)
            .filter_map(|(key, blob)| self.decoded.get_or_decode(key, blob))
            .collect();
        let outcome = execute(request, &values, self.catalog.model().compute_scale())?;
        let fetch_done = now + latency.routing + latency.communication;
        let assignment = self.vm.execute(fetch_done, outcome.work);
        latency.queueing += assignment.queue_wait;
        let service = assignment.end.duration_since(assignment.start);
        latency.computation += service;
        // The VM is occupied for the whole fetch + compute span of this
        // request; that instance time is the request's compute bill.
        cost.compute += self.vm.busy_cost_of(latency.communication + service);

        // PUT phase: store the result back in the data plane (paper Fig. 3
        // step 3).
        let result_blob = Blob::synthetic(outcome.result_bytes);
        let result_key = flstore_cloud::blob::ObjectKey::new(format!("results/{}", request.id));
        let put = self.objstore.put(now, result_key, result_blob);
        latency.communication += put.latency;
        cost += put.cost;

        let measured = RequestOutcome {
            request: request.id,
            kind: request.kind,
            arrived: now,
            finished: now + latency.total(),
            latency,
            cost,
            cache_hits,
            cache_misses,
            recovered_from_fault: false,
        };
        self.ledger.outcomes.push(measured);
        Ok((outcome, measured))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flstore_fl::job::{FlJobConfig, FlJobSim};
    use flstore_workloads::request::RequestId;
    use flstore_workloads::taxonomy::WorkloadKind;

    struct Rig {
        agg: AggregatorBaseline,
        records: Vec<RoundRecord>,
        now: SimTime,
    }

    fn rig(data_plane: DataPlaneKind, rounds: u32) -> Rig {
        let job_cfg = FlJobConfig {
            rounds,
            ..FlJobConfig::quick_test(JobId::new(1))
        };
        let cfg = match data_plane {
            DataPlaneKind::ObjectStore => AggregatorConfig::objstore_agg(),
            DataPlaneKind::MemCache => {
                AggregatorConfig::cache_agg(job_cfg.round_metadata_bytes() * rounds as u64)
            }
        };
        let mut agg = AggregatorBaseline::new(cfg, job_cfg.job, job_cfg.model, SimTime::ZERO);
        let records: Vec<RoundRecord> = FlJobSim::new(job_cfg).collect();
        let mut now = SimTime::ZERO;
        for r in &records {
            agg.ingest_round(now, r);
            now += SimDuration::from_secs(120);
        }
        Rig { agg, records, now }
    }

    fn p2_request(rig: &Rig, id: u64, round_idx: usize) -> WorkloadRequest {
        WorkloadRequest::new(
            RequestId::new(id),
            WorkloadKind::MaliciousFiltering,
            JobId::new(1),
            rig.records[round_idx].round,
            None,
        )
    }

    #[test]
    fn objstore_agg_is_communication_bound() {
        let mut rig = rig(DataPlaneKind::ObjectStore, 5);
        let req = p2_request(&rig, 1, 4);
        let (_, measured) = rig.agg.serve(rig.now, &req).expect("servable");
        let frac = measured.latency.communication_fraction();
        assert!(frac > 0.8, "communication fraction {frac}");
        assert!(measured.latency.communication > SimDuration::from_secs(10));
        assert_eq!(measured.cache_hits, 0);
    }

    #[test]
    fn cache_agg_is_faster_but_not_free() {
        let mut obj = rig(DataPlaneKind::ObjectStore, 5);
        let mut mem = rig(DataPlaneKind::MemCache, 5);
        let req_o = p2_request(&obj, 1, 4);
        let req_m = p2_request(&mem, 1, 4);
        let (_, o) = obj.agg.serve(obj.now, &req_o).expect("servable");
        let (_, m) = mem.agg.serve(mem.now, &req_m).expect("servable");
        assert!(
            m.latency.total() < o.latency.total(),
            "cache {} vs objstore {}",
            m.latency.total(),
            o.latency.total()
        );
        assert!(m.latency.communication > SimDuration::from_secs(1));
        assert!(m.cache_hits > 0);
    }

    #[test]
    fn cache_agg_infra_cost_dominates_window() {
        let mut mem = rig(DataPlaneKind::MemCache, 5);
        let req = p2_request(&mem, 1, 4);
        mem.agg.serve(mem.now, &req).expect("servable");
        let end = mem.now + SimDuration::from_hours(50);
        let infra = mem.agg.infra_cost(end);
        let request_spend = mem.agg.ledger().request_cost().total();
        assert!(
            infra.as_dollars() > 10.0 * request_spend.as_dollars(),
            "infra {infra} vs requests {request_spend}"
        );
        let total = mem.agg.total_cost(end);
        assert!(total.infra >= infra);
    }

    #[test]
    fn serving_never_reparses_ingested_metadata() {
        // Both data planes serve the bytes ingest wrote, so the decoded
        // layer (seeded at ingest) satisfies every request with `Arc`
        // clones: zero parses, however often the same data is served.
        for plane in [DataPlaneKind::ObjectStore, DataPlaneKind::MemCache] {
            let mut rig = rig(plane, 5);
            for i in 0..4 {
                let req = p2_request(&rig, i + 1, 4);
                rig.agg.serve(rig.now, &req).expect("servable");
            }
            let stats = rig.agg.decoded_stats();
            assert_eq!(
                stats.decodes,
                0,
                "{}: re-parsed ingested bytes",
                plane.label()
            );
            assert!(stats.hits > 0, "{}: no decoded hits", plane.label());
            assert!(stats.seeded > 0);
        }
    }

    #[test]
    fn results_are_identical_across_architectures() {
        // The same request over the same data must produce the same output
        // regardless of which architecture serves it.
        let mut obj = rig(DataPlaneKind::ObjectStore, 6);
        let mut mem = rig(DataPlaneKind::MemCache, 6);
        let req = p2_request(&obj, 9, 5);
        let (out_o, _) = obj.agg.serve(obj.now, &req).expect("servable");
        let (out_m, _) = mem.agg.serve(mem.now, &req).expect("servable");
        assert_eq!(out_o.output, out_m.output);
    }

    #[test]
    fn vm_queues_concurrent_requests() {
        let mut rig = rig(DataPlaneKind::ObjectStore, 4);
        let a = p2_request(&rig, 1, 3);
        let b = p2_request(&rig, 2, 3);
        let (_, ma) = rig.agg.serve(rig.now, &a).expect("servable");
        let (_, mb) = rig.agg.serve(rig.now, &b).expect("servable");
        assert!(ma.latency.queueing.is_zero());
        assert!(!mb.latency.queueing.is_zero(), "second request must queue");
    }

    #[test]
    fn unknown_round_errors() {
        let mut rig = rig(DataPlaneKind::ObjectStore, 3);
        let req = WorkloadRequest::new(
            RequestId::new(1),
            WorkloadKind::Clustering,
            JobId::new(1),
            flstore_fl::ids::Round::new(400),
            None,
        );
        assert!(matches!(
            rig.agg.serve(rig.now, &req).unwrap_err(),
            BaselineError::NoData { .. }
        ));
    }
}
