//! The serverless platform: spawning, invoking, pinging, reclaiming, billing.
//!
//! Economics and failure model follow the InfiniCache/InfiniStore
//! measurements the paper builds on (§4.5):
//!
//! * warm function memory is free between invocations;
//! * invocations bill per GB-second plus a per-request fee;
//! * a warm sandbox is reclaimed after an idle TTL without activity, so
//!   FLStore pings instances every minute (~$0.0087 per instance-month);
//! * even pinged sandboxes are force-reclaimed on a heavy-tailed schedule,
//!   which is what the fault-tolerance experiments (Figs. 13–14) inject.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use flstore_cloud::blob::{Blob, ObjectKey, OpReceipt};
use flstore_cloud::compute::WorkUnits;
use flstore_cloud::pricing::FunctionPricing;
use flstore_sim::cost::{Cost, CostBreakdown};
use flstore_sim::rng::DetRng;
use flstore_sim::time::{SimDuration, SimTime};

use crate::function::{FunctionConfig, FunctionError, FunctionId, FunctionInstance, ReclaimCause};

/// Forced-reclamation model: Pareto (heavy-tail) sandbox lifetimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReclaimModel {
    /// Whether forced reclamation happens at all.
    pub enabled: bool,
    /// Minimum sandbox lifetime in hours (Pareto scale).
    pub min_lifetime_hours: f64,
    /// Pareto tail index; smaller = heavier tail = more long-lived outliers.
    pub alpha: f64,
}

// Hand-written (rather than derived) because `DISABLED` carries an
// unbounded lifetime: JSON has no Infinity, so a non-finite
// `min_lifetime_hours` is encoded as null and decoded back to infinity.
impl Serialize for ReclaimModel {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("enabled".into(), self.enabled.to_value());
        let lifetime = if self.min_lifetime_hours.is_finite() {
            self.min_lifetime_hours.to_value()
        } else {
            serde::Value::Null
        };
        map.insert("min_lifetime_hours".into(), lifetime);
        map.insert("alpha".into(), self.alpha.to_value());
        serde::Value::Object(map)
    }
}

impl Deserialize for ReclaimModel {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::custom(format!("missing field {name}")))
        };
        let lifetime = match field("min_lifetime_hours")? {
            serde::Value::Null => f64::INFINITY,
            v => f64::from_value(v)?,
        };
        Ok(ReclaimModel {
            enabled: bool::from_value(field("enabled")?)?,
            min_lifetime_hours: lifetime,
            alpha: f64::from_value(field("alpha")?)?,
        })
    }
}

impl ReclaimModel {
    /// No forced reclamation (scalability experiments isolate queueing).
    pub const DISABLED: ReclaimModel = ReclaimModel {
        enabled: false,
        min_lifetime_hours: f64::INFINITY,
        alpha: 1.0,
    };

    /// Lifetimes observed for AWS Lambda-class platforms: most sandboxes
    /// survive several hours, a heavy tail survives much longer.
    const LAMBDA_MEASURED: ReclaimModel = ReclaimModel {
        enabled: true,
        min_lifetime_hours: 6.0,
        alpha: 1.1,
    };

    /// An aggressive fault-injection profile for the fault-tolerance
    /// experiments: sandboxes die every couple of hours on average.
    pub const FAULT_INJECTION: ReclaimModel = ReclaimModel {
        enabled: true,
        min_lifetime_hours: 1.0,
        alpha: 1.5,
    };

    fn sample_deadline(&self, now: SimTime, rng: &mut DetRng) -> SimTime {
        if !self.enabled {
            return SimTime::MAX;
        }
        let hours = rng.pareto(self.min_lifetime_hours, self.alpha);
        // Cap at 10x the horizon of any experiment to avoid overflow noise.
        let hours = hours.min(10_000.0);
        now + SimDuration::from_hours_f64(hours)
    }
}

/// Platform-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Billing rates.
    pub pricing: FunctionPricing,
    /// Sandbox boot time paid on the first invocation after (re)deployment.
    pub cold_start: SimDuration,
    /// Idle window after which an unpinged sandbox is reclaimed.
    pub idle_ttl: SimDuration,
    /// Interval between keep-alive pings (the paper pings every minute).
    pub keepalive_interval: SimDuration,
    /// Duration billed per keep-alive ping.
    pub ping_duration: SimDuration,
    /// Forced-reclamation model.
    pub reclaim: ReclaimModel,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            pricing: FunctionPricing::AWS_LAMBDA,
            cold_start: SimDuration::from_millis(400),
            idle_ttl: SimDuration::from_mins(10),
            keepalive_interval: SimDuration::from_mins(1),
            ping_duration: SimDuration::from_millis(3),
            reclaim: ReclaimModel::LAMBDA_MEASURED,
        }
    }
}

/// Outcome of one invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvokeOutcome {
    /// When execution began (after queueing and any cold start).
    pub start: SimTime,
    /// When execution finished.
    pub end: SimTime,
    /// Time spent waiting for the instance's worker.
    pub queue_wait: SimDuration,
    /// Whether a cold start was paid.
    pub cold_start: bool,
    /// Whether the sandbox had been reclaimed since last contact, losing
    /// its cached objects (and why).
    pub state_lost: Option<ReclaimCause>,
    /// Latency and cost of the invocation itself.
    pub receipt: OpReceipt,
}

/// Cumulative platform billing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlatformBilling {
    /// Invocations served (excluding pings).
    pub invocations: u64,
    /// Keep-alive pings issued.
    pub pings: u64,
    /// GB-seconds billed for invocations.
    pub gb_seconds: f64,
    /// Dollars billed for invocations.
    pub invocation_cost: Cost,
    /// Dollars billed for keep-alive pings.
    pub keepalive_cost: Cost,
}

impl PlatformBilling {
    /// Total dollars billed.
    pub fn total(&self) -> Cost {
        self.invocation_cost + self.keepalive_cost
    }
}

/// Errors raised by platform operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// The referenced function id was never spawned.
    UnknownFunction(FunctionId),
    /// Instance-level failure (e.g. out of memory).
    Function(FunctionError),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::UnknownFunction(id) => write!(f, "unknown function: {id}"),
            PlatformError::Function(e) => write!(f, "{e}"),
        }
    }
}

impl Error for PlatformError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlatformError::Function(e) => Some(e),
            PlatformError::UnknownFunction(_) => None,
        }
    }
}

impl From<FunctionError> for PlatformError {
    fn from(e: FunctionError) -> Self {
        PlatformError::Function(e)
    }
}

/// A serverless function platform on the virtual clock.
///
/// # Examples
///
/// ```
/// use flstore_serverless::platform::{Platform, PlatformConfig};
/// use flstore_serverless::function::FunctionConfig;
/// use flstore_cloud::compute::WorkUnits;
/// use flstore_sim::time::SimTime;
///
/// let mut platform = Platform::new(PlatformConfig::default(), 42);
/// let id = platform.spawn(SimTime::ZERO, FunctionConfig::LARGE);
/// let out = platform
///     .invoke(SimTime::ZERO, id, WorkUnits::from_ref_seconds(2.8))
///     .expect("function exists");
/// assert!(out.cold_start); // first invocation boots the sandbox
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    cfg: PlatformConfig,
    rng: DetRng,
    instances: HashMap<FunctionId, FunctionInstance>,
    spawn_order: Vec<FunctionId>,
    next_id: u64,
    cold: HashMap<FunctionId, bool>,
    billing: PlatformBilling,
}

impl Platform {
    /// Creates a platform with deterministic randomness derived from `seed`.
    pub fn new(cfg: PlatformConfig, seed: u64) -> Self {
        Platform {
            cfg,
            rng: DetRng::stream(seed, "serverless-platform"),
            instances: HashMap::new(),
            spawn_order: Vec::new(),
            next_id: 0,
            cold: HashMap::new(),
            billing: PlatformBilling::default(),
        }
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// Spawns a new (cold) function instance.
    pub fn spawn(&mut self, now: SimTime, config: FunctionConfig) -> FunctionId {
        let id = FunctionId::from_raw(self.next_id);
        self.next_id += 1;
        let deadline = self.cfg.reclaim.sample_deadline(now, &mut self.rng);
        self.instances
            .insert(id, FunctionInstance::new(id, config, now, deadline));
        self.spawn_order.push(id);
        self.cold.insert(id, true);
        id
    }

    /// Number of spawned instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Ids in spawn order.
    pub fn instance_ids(&self) -> &[FunctionId] {
        &self.spawn_order
    }

    /// Borrows an instance.
    pub fn instance(&self, id: FunctionId) -> Option<&FunctionInstance> {
        self.instances.get(&id)
    }

    /// Cumulative billing.
    pub fn billing(&self) -> PlatformBilling {
        self.billing
    }

    /// Checks liveness of `id` at `now`, applying idle-TTL and forced
    /// reclamation. Returns the cause if the sandbox was reclaimed (its
    /// cached objects are gone and the next invocation pays a cold start).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownFunction`] for unspawned ids.
    pub fn refresh(
        &mut self,
        now: SimTime,
        id: FunctionId,
    ) -> Result<Option<ReclaimCause>, PlatformError> {
        let cfg = self.cfg;
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(PlatformError::UnknownFunction(id))?;
        let cause = if now > inst.reclaim_at() {
            Some(ReclaimCause::Forced)
        } else if now.duration_since(inst.last_activity()) > cfg.idle_ttl {
            Some(ReclaimCause::IdleTimeout)
        } else {
            None
        };
        if cause.is_some() {
            let next = cfg.reclaim.sample_deadline(now, &mut self.rng);
            inst.reclaim(now, next);
            self.cold.insert(id, true);
        }
        Ok(cause)
    }

    /// Invokes `work` on instance `id`, queueing if it is busy.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownFunction`] for unspawned ids.
    pub fn invoke(
        &mut self,
        now: SimTime,
        id: FunctionId,
        work: WorkUnits,
    ) -> Result<InvokeOutcome, PlatformError> {
        let state_lost = self.refresh(now, id)?;
        let cold = self.cold.get(&id).copied().unwrap_or(true);
        let pricing = self.cfg.pricing;
        let cold_start_time = self.cfg.cold_start;
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(PlatformError::UnknownFunction(id))?;

        let service = work.duration_on(inst.config().compute_profile())
            + if cold {
                cold_start_time
            } else {
                SimDuration::ZERO
            };
        let start = now.max(inst.busy_until());
        let end = start + service;
        inst.set_busy_until(end);
        inst.touch(end);
        self.cold.insert(id, false);

        let cost = pricing.invocation(inst.config().memory, service);
        self.billing.invocations += 1;
        self.billing.gb_seconds += inst.config().memory.as_gb_f64() * service.as_secs_f64();
        self.billing.invocation_cost += cost;

        Ok(InvokeOutcome {
            start,
            end,
            queue_wait: start.duration_since(now),
            cold_start: cold,
            state_lost,
            receipt: OpReceipt {
                latency: end.duration_since(now),
                cost: CostBreakdown::compute_only(cost),
            },
        })
    }

    /// Caches `blob` in instance memory (data is assumed to already be at
    /// the function, e.g. delivered by an ingest invocation; transfer costs
    /// are accounted by the caller's data path).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownFunction`] for unspawned ids or
    /// [`PlatformError::Function`] if the object does not fit.
    pub fn store_object(
        &mut self,
        now: SimTime,
        id: FunctionId,
        key: ObjectKey,
        blob: Blob,
    ) -> Result<(), PlatformError> {
        self.refresh(now, id)?;
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(PlatformError::UnknownFunction(id))?;
        inst.store(key, blob)?;
        inst.touch(now);
        self.cold.insert(id, false);
        Ok(())
    }

    /// Evicts a cached object. Returns whether it was present.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownFunction`] for unspawned ids.
    pub fn evict_object(&mut self, id: FunctionId, key: &ObjectKey) -> Result<bool, PlatformError> {
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(PlatformError::UnknownFunction(id))?;
        Ok(inst.evict(key))
    }

    /// Issues one keep-alive ping to every instance at `now`: refreshes
    /// activity (preventing idle reclamation) and bills the ping.
    ///
    /// Instances whose forced-reclamation deadline has passed are reclaimed
    /// instead of refreshed; their ids are returned.
    fn keepalive_tick(&mut self, now: SimTime) -> Vec<FunctionId> {
        let ids: Vec<FunctionId> = self.spawn_order.clone();
        let mut reclaimed = Vec::new();
        for id in ids {
            match self.refresh(now, id) {
                Ok(Some(_)) => reclaimed.push(id),
                Ok(None) => {
                    if let Some(inst) = self.instances.get_mut(&id) {
                        inst.touch(now);
                        let cost = self
                            .cfg
                            .pricing
                            .invocation(inst.config().memory, self.cfg.ping_duration);
                        self.billing.pings += 1;
                        self.billing.keepalive_cost += cost;
                    }
                }
                Err(_) => {}
            }
        }
        reclaimed
    }

    /// Runs keep-alive pings at the configured interval over `[from, to)`.
    /// Returns every (time, id) reclamation observed.
    pub fn run_keepalive(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, FunctionId)> {
        let mut events = Vec::new();
        let mut t = from;
        while t < to {
            for id in self.keepalive_tick(t) {
                events.push((t, id));
            }
            t += self.cfg.keepalive_interval;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flstore_sim::bytes::ByteSize;

    fn quiet_platform() -> Platform {
        Platform::new(
            PlatformConfig {
                reclaim: ReclaimModel::DISABLED,
                ..PlatformConfig::default()
            },
            7,
        )
    }

    #[test]
    fn first_invoke_pays_cold_start() {
        let mut p = quiet_platform();
        let id = p.spawn(SimTime::ZERO, FunctionConfig::LARGE);
        let out = p
            .invoke(SimTime::ZERO, id, WorkUnits::from_ref_seconds(1.0))
            .expect("spawned");
        assert!(out.cold_start);
        assert!((out.receipt.latency.as_secs_f64() - 1.4).abs() < 1e-6);
        let warm = p
            .invoke(out.end, id, WorkUnits::from_ref_seconds(1.0))
            .expect("still alive");
        assert!(!warm.cold_start);
        assert!((warm.receipt.latency.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn busy_instance_queues() {
        let mut p = quiet_platform();
        let id = p.spawn(SimTime::ZERO, FunctionConfig::LARGE);
        let a = p
            .invoke(SimTime::ZERO, id, WorkUnits::from_ref_seconds(5.0))
            .expect("ok");
        let b = p
            .invoke(SimTime::ZERO, id, WorkUnits::from_ref_seconds(5.0))
            .expect("ok");
        assert!(b.queue_wait >= a.end.duration_since(SimTime::ZERO) - SimDuration::from_micros(1));
        assert!(b.start >= a.end);
    }

    #[test]
    fn idle_ttl_reclaims_unpinged_sandbox() {
        let mut p = quiet_platform();
        let id = p.spawn(SimTime::ZERO, FunctionConfig::LARGE);
        p.store_object(
            SimTime::ZERO,
            id,
            ObjectKey::new("a"),
            Blob::synthetic(ByteSize::from_mb(100)),
        )
        .expect("fits");
        // 20 minutes later (> 10 min TTL) the state is gone.
        let late = SimTime::ZERO + SimDuration::from_mins(20);
        let out = p
            .invoke(late, id, WorkUnits::from_ref_seconds(0.1))
            .expect("ok");
        assert_eq!(out.state_lost, Some(ReclaimCause::IdleTimeout));
        assert!(out.cold_start);
        assert_eq!(p.instance(id).expect("exists").object_count(), 0);
    }

    #[test]
    fn keepalive_prevents_idle_reclaim_and_bills() {
        let mut p = quiet_platform();
        let id = p.spawn(SimTime::ZERO, FunctionConfig::LARGE);
        p.store_object(
            SimTime::ZERO,
            id,
            ObjectKey::new("a"),
            Blob::synthetic(ByteSize::from_mb(100)),
        )
        .expect("fits");
        let hour = SimTime::ZERO + SimDuration::from_hours(1);
        let reclaimed = p.run_keepalive(SimTime::ZERO, hour);
        assert!(reclaimed.is_empty());
        let out = p
            .invoke(hour, id, WorkUnits::from_ref_seconds(0.1))
            .expect("ok");
        assert_eq!(out.state_lost, None);
        assert!(!out.cold_start);
        assert_eq!(p.instance(id).expect("exists").object_count(), 1);
        assert_eq!(p.billing().pings, 60);
        assert!(p.billing().keepalive_cost.as_dollars() > 0.0);
    }

    #[test]
    fn ping_cost_matches_paper_scale() {
        // One 4 GB instance pinged every minute for a month should cost on
        // the order of $0.01 (the paper quotes $0.0087/month).
        let mut p = quiet_platform();
        p.spawn(SimTime::ZERO, FunctionConfig::LARGE);
        let month = SimTime::ZERO + SimDuration::from_hours(730);
        p.run_keepalive(SimTime::ZERO, month);
        let cost = p.billing().keepalive_cost.as_dollars();
        assert!((0.004..0.03).contains(&cost), "monthly ping cost {cost}");
    }

    #[test]
    fn forced_reclaim_fires_with_aggressive_model() {
        let mut p = Platform::new(
            PlatformConfig {
                reclaim: ReclaimModel {
                    enabled: true,
                    min_lifetime_hours: 0.05,
                    alpha: 3.0,
                },
                ..PlatformConfig::default()
            },
            11,
        );
        for _ in 0..20 {
            p.spawn(SimTime::ZERO, FunctionConfig::SMALL);
        }
        let day = SimTime::ZERO + SimDuration::from_hours(24);
        let events = p.run_keepalive(SimTime::ZERO, day);
        assert!(
            !events.is_empty(),
            "aggressive model should reclaim sandboxes"
        );
    }

    #[test]
    fn unknown_function_errors() {
        let mut p = quiet_platform();
        let missing = FunctionId::from_raw(999);
        assert_eq!(
            p.invoke(SimTime::ZERO, missing, WorkUnits::ZERO)
                .unwrap_err(),
            PlatformError::UnknownFunction(missing)
        );
    }

    #[test]
    fn billing_accumulates_gb_seconds() {
        let mut p = quiet_platform();
        let id = p.spawn(SimTime::ZERO, FunctionConfig::LARGE);
        p.invoke(SimTime::ZERO, id, WorkUnits::from_ref_seconds(2.6))
            .expect("ok");
        // 4 GB * (2.6 s + 0.4 s cold start) = 12 GB-s.
        assert!((p.billing().gb_seconds - 12.0).abs() < 1e-6);
        assert_eq!(p.billing().invocations, 1);
        assert!(p.billing().total().as_dollars() > 0.0);
    }
}
