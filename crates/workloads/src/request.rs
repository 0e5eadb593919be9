//! Non-training requests and the catalog that resolves their data needs.
//!
//! A [`WorkloadRequest`] names *what* to compute (workload kind, target
//! round, optionally a client and a history window). The [`JobCatalog`] —
//! the directory any FL aggregator naturally maintains — resolves the
//! request into the concrete [`MetaKey`]s it must read, following Table 1's
//! access patterns.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use flstore_fl::codec::{
    get_client, get_job, get_option, get_round, get_u32, put_client, put_job, put_option,
    put_round, put_varint, DecodeError, Reader,
};
use flstore_fl::ids::{ClientId, JobId, Round};
use flstore_fl::job::RoundRecord;
use flstore_fl::metadata::MetaKey;
use flstore_fl::zoo::ModelArch;

use crate::taxonomy::{PolicyClass, WorkloadKind};

/// Identifier of one non-training request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request id.
    pub const fn new(id: u64) -> Self {
        RequestId(id)
    }

    /// Raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Default history window for P3 (across-round) requests.
const DEFAULT_P3_WINDOW: u32 = 4;
/// Rounds of metadata a P4 request *reads*: the latest round's records
/// (which carry cumulative per-client state). The paper's tunable `R`
/// (default 10) governs how many rounds the tailored policy *retains*,
/// not how many one request consumes — see `TailoredPolicy::p4_window`
/// in `flstore-core`.
const DEFAULT_P4_READ_WINDOW: u32 = 1;

/// One non-training request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WorkloadRequest {
    /// Request identifier.
    pub id: RequestId,
    /// Which workload to run.
    pub kind: WorkloadKind,
    /// Which job's metadata to read.
    pub job: JobId,
    /// Target round.
    pub round: Round,
    /// Target client for P3-class (across-round) workloads.
    pub client: Option<ClientId>,
    /// History window (rounds) for P3/P4-class workloads.
    pub window: u32,
}

impl WorkloadRequest {
    /// Creates a request with the class-appropriate default window.
    ///
    /// # Panics
    ///
    /// Panics if a P3-class workload (debugging, reputation) is requested
    /// without a target client.
    pub fn new(
        id: RequestId,
        kind: WorkloadKind,
        job: JobId,
        round: Round,
        client: Option<ClientId>,
    ) -> Self {
        let window = match kind.policy_class() {
            PolicyClass::P3AcrossRounds => {
                assert!(
                    client.is_some(),
                    "{kind} tracks a client across rounds and needs a target client"
                );
                DEFAULT_P3_WINDOW
            }
            PolicyClass::P4Metadata => DEFAULT_P4_READ_WINDOW,
            _ => 1,
        };
        WorkloadRequest {
            id,
            kind,
            job,
            round,
            client,
            window,
        }
    }

    /// The rounds this request's history window covers (ending at `round`).
    fn window_rounds(&self) -> Vec<Round> {
        let end = self.round.as_u32();
        let start = end.saturating_sub(self.window.saturating_sub(1));
        (start..=end).map(Round::new).collect()
    }
}

/// Appends a workload kind as its tag byte (declaration order).
pub fn put_kind(buf: &mut Vec<u8>, kind: WorkloadKind) {
    buf.push(match kind {
        WorkloadKind::Personalized => 0,
        WorkloadKind::Clustering => 1,
        WorkloadKind::Debugging => 2,
        WorkloadKind::MaliciousFiltering => 3,
        WorkloadKind::Incentives => 4,
        WorkloadKind::SchedulingCluster => 5,
        WorkloadKind::ReputationCalc => 6,
        WorkloadKind::SchedulingPerf => 7,
        WorkloadKind::CosineSimilarity => 8,
        WorkloadKind::Inference => 9,
    });
}

/// Reads a workload kind tag.
pub fn get_kind(r: &mut Reader<'_>) -> Result<WorkloadKind, DecodeError> {
    Ok(match r.u8()? {
        0 => WorkloadKind::Personalized,
        1 => WorkloadKind::Clustering,
        2 => WorkloadKind::Debugging,
        3 => WorkloadKind::MaliciousFiltering,
        4 => WorkloadKind::Incentives,
        5 => WorkloadKind::SchedulingCluster,
        6 => WorkloadKind::ReputationCalc,
        7 => WorkloadKind::SchedulingPerf,
        8 => WorkloadKind::CosineSimilarity,
        9 => WorkloadKind::Inference,
        _ => return Err(DecodeError::Malformed("unknown workload kind tag")),
    })
}

/// Appends a request in the shared binary encoding (`docs/WIRE.md` §4):
/// the bytes a wire `Serve` frame and a ledger `Serve` record carry.
pub fn put_workload_request(buf: &mut Vec<u8>, w: &WorkloadRequest) {
    put_varint(buf, w.id.as_u64());
    put_kind(buf, w.kind);
    put_job(buf, w.job);
    put_round(buf, w.round);
    put_option(buf, w.client.as_ref(), |b, c| put_client(b, *c));
    put_varint(buf, u64::from(w.window));
}

/// Reads a request, validating the invariant [`WorkloadRequest::new`]
/// asserts so hostile bytes never reach a panicking constructor.
pub fn get_workload_request(r: &mut Reader<'_>) -> Result<WorkloadRequest, DecodeError> {
    let id = RequestId::new(r.varint()?);
    let kind = get_kind(r)?;
    let job = get_job(r)?;
    let round = get_round(r)?;
    let client = get_option(r, get_client)?;
    let window = get_u32(r)?;
    if kind.policy_class() == PolicyClass::P3AcrossRounds && client.is_none() {
        return Err(DecodeError::Malformed(
            "client-tracking (P3) request without a target client",
        ));
    }
    Ok(WorkloadRequest {
        id,
        kind,
        job,
        round,
        client,
        window,
    })
}

/// Directory of what metadata exists for one job: which clients completed
/// each round. Executors use it to resolve requests into key sets.
///
/// # Examples
///
/// ```
/// use flstore_workloads::request::{JobCatalog, RequestId, WorkloadRequest};
/// use flstore_workloads::taxonomy::WorkloadKind;
/// use flstore_fl::job::{FlJobConfig, FlJobSim};
/// use flstore_fl::ids::JobId;
///
/// let cfg = FlJobConfig::quick_test(JobId::new(1));
/// let mut sim = FlJobSim::new(cfg.clone());
/// let mut catalog = JobCatalog::new(cfg.job, cfg.model);
/// let record = sim.next().expect("rounds");
/// catalog.observe_round(&record);
/// let inference = WorkloadRequest::new(RequestId::new(1), WorkloadKind::Inference, cfg.job, record.round, None);
/// assert_eq!(catalog.data_needs(&inference).len(), 1); // the round's aggregate
/// ```
#[derive(Debug, Clone)]
pub struct JobCatalog {
    job: JobId,
    model: ModelArch,
    participants: HashMap<Round, Vec<ClientId>>,
}

impl JobCatalog {
    /// Creates an empty catalog for `job` training `model`.
    pub fn new(job: JobId, model: ModelArch) -> Self {
        JobCatalog {
            job,
            model,
            participants: HashMap::new(),
        }
    }

    /// The job this catalog indexes.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The model the job trains.
    pub fn model(&self) -> &ModelArch {
        &self.model
    }

    /// Records a completed round.
    pub fn observe_round(&mut self, record: &RoundRecord) {
        let clients: Vec<ClientId> = record.updates.iter().map(|u| u.client).collect();
        self.participants.insert(record.round, clients);
    }

    /// Clients that completed `round`, if observed.
    fn participants(&self, round: Round) -> Option<&[ClientId]> {
        self.participants.get(&round).map(|v| v.as_slice())
    }

    /// Resolves the metadata keys a request must read, per Table 1:
    ///
    /// * P1: the aggregate of the target round;
    /// * P2: every participant update of the target round plus its aggregate;
    /// * P3: the target client's update (when it participated) and the
    ///   aggregate for each round in the window;
    /// * P4: the round-metrics and hyperparameter records for each round in
    ///   the window.
    ///
    /// Rounds not (yet) observed contribute no keys.
    pub fn data_needs(&self, request: &WorkloadRequest) -> Vec<MetaKey> {
        let job = self.job;
        match request.kind.policy_class() {
            PolicyClass::P1IndividualOrAggregate => {
                if self.participants.contains_key(&request.round) {
                    vec![MetaKey::aggregate(job, request.round)]
                } else {
                    Vec::new()
                }
            }
            PolicyClass::P2AllUpdatesInRound => {
                let mut keys = Vec::new();
                if let Some(clients) = self.participants(request.round) {
                    for c in clients {
                        keys.push(MetaKey::update(job, request.round, *c));
                    }
                    keys.push(MetaKey::aggregate(job, request.round));
                }
                keys
            }
            PolicyClass::P3AcrossRounds => {
                let client = request
                    .client
                    .expect("P3 requests are constructed with a client");
                let mut keys = Vec::new();
                for r in request.window_rounds() {
                    if let Some(clients) = self.participants(r) {
                        if clients.contains(&client) {
                            keys.push(MetaKey::update(job, r, client));
                        }
                        keys.push(MetaKey::aggregate(job, r));
                    }
                }
                keys
            }
            PolicyClass::P4Metadata => {
                let mut keys = Vec::new();
                for r in request.window_rounds() {
                    if self.participants.contains_key(&r) {
                        keys.push(MetaKey::metrics(job, r));
                        keys.push(MetaKey::hyperparams(job, r));
                    }
                }
                keys
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flstore_fl::job::{FlJobConfig, FlJobSim};
    use flstore_fl::metadata::MetaKind;

    fn catalog_with_rounds(n: usize) -> (JobCatalog, Vec<RoundRecord>) {
        let cfg = FlJobConfig::quick_test(JobId::new(1));
        let mut catalog = JobCatalog::new(cfg.job, cfg.model);
        let records: Vec<RoundRecord> = FlJobSim::new(cfg).take(n).collect();
        for r in &records {
            catalog.observe_round(r);
        }
        (catalog, records)
    }

    #[test]
    fn p1_needs_only_aggregate() {
        let (catalog, records) = catalog_with_rounds(3);
        let req = WorkloadRequest::new(
            RequestId::new(1),
            WorkloadKind::Inference,
            catalog.job(),
            records[2].round,
            None,
        );
        let needs = catalog.data_needs(&req);
        assert_eq!(needs.len(), 1);
        assert_eq!(needs[0].kind, MetaKind::Aggregate);
    }

    #[test]
    fn p2_needs_all_round_updates() {
        let (catalog, records) = catalog_with_rounds(3);
        let round = records[1].round;
        let req = WorkloadRequest::new(
            RequestId::new(2),
            WorkloadKind::MaliciousFiltering,
            catalog.job(),
            round,
            None,
        );
        let needs = catalog.data_needs(&req);
        assert_eq!(needs.len(), records[1].updates.len() + 1);
        let updates = needs
            .iter()
            .filter(|k| k.kind == MetaKind::ClientUpdate)
            .count();
        assert_eq!(updates, records[1].updates.len());
    }

    #[test]
    fn p3_tracks_one_client_across_window() {
        let (catalog, records) = catalog_with_rounds(8);
        let client = records[7].updates[0].client;
        let req = WorkloadRequest::new(
            RequestId::new(3),
            WorkloadKind::ReputationCalc,
            catalog.job(),
            records[7].round,
            Some(client),
        );
        assert_eq!(req.window, DEFAULT_P3_WINDOW);
        let needs = catalog.data_needs(&req);
        // One aggregate per window round, plus updates only where the client
        // participated.
        let aggs = needs
            .iter()
            .filter(|k| k.kind == MetaKind::Aggregate)
            .count();
        assert_eq!(aggs, DEFAULT_P3_WINDOW as usize);
        for k in &needs {
            if k.kind == MetaKind::ClientUpdate {
                assert_eq!(k.client, Some(client));
            }
        }
    }

    #[test]
    fn p4_needs_recent_metadata() {
        let (catalog, records) = catalog_with_rounds(12);
        let req = WorkloadRequest::new(
            RequestId::new(4),
            WorkloadKind::SchedulingPerf,
            catalog.job(),
            records[11].round,
            None,
        );
        assert_eq!(req.window, DEFAULT_P4_READ_WINDOW);
        let needs = catalog.data_needs(&req);
        assert_eq!(needs.len(), 2 * DEFAULT_P4_READ_WINDOW as usize);
        assert!(needs
            .iter()
            .all(|k| matches!(k.kind, MetaKind::RoundMetrics | MetaKind::HyperParams)));
    }

    #[test]
    fn unobserved_round_yields_no_keys() {
        let (catalog, _) = catalog_with_rounds(2);
        let req = WorkloadRequest::new(
            RequestId::new(5),
            WorkloadKind::Clustering,
            catalog.job(),
            Round::new(99),
            None,
        );
        assert!(catalog.data_needs(&req).is_empty());
    }

    #[test]
    fn window_rounds_clamped_at_zero() {
        let req = WorkloadRequest {
            id: RequestId::new(6),
            kind: WorkloadKind::Debugging,
            job: JobId::new(0),
            round: Round::new(1),
            client: Some(ClientId::new(0)),
            window: 4,
        };
        let rounds: Vec<u32> = req.window_rounds().iter().map(|r| r.as_u32()).collect();
        assert_eq!(rounds, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "needs a target client")]
    fn p3_without_client_panics() {
        let _ = WorkloadRequest::new(
            RequestId::new(7),
            WorkloadKind::Debugging,
            JobId::new(0),
            Round::new(5),
            None,
        );
    }
}
