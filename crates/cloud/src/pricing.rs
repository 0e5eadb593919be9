//! Cloud price sheet.
//!
//! All dollar figures in the reproduction come from this module. Rates are
//! calibrated to AWS us-east-1 public pricing circa 2024, the setting of the
//! paper's evaluation (SageMaker aggregator, S3 object store, ElastiCache
//! in-memory cache, Lambda-class serverless functions). Absolute cloud prices
//! drift; what the experiments depend on is the *structure*:
//!
//! * object storage is cheap at rest but slow, with per-request fees;
//! * in-memory caches are fast but billed per node-hour whether used or not;
//! * dedicated aggregator instances bill per hour whether used or not;
//! * serverless functions bill per GB-second actually consumed, plus a
//!   per-invocation fee, with warm memory effectively free between
//!   invocations (the InfiniCache observation FLStore builds on);
//! * moving bytes between the data plane and the compute plane costs money.

use serde::{Deserialize, Serialize};

use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::Cost;
use flstore_sim::time::SimDuration;

/// Seconds per billing month used by cloud providers (730 h).
const SECONDS_PER_MONTH: f64 = 730.0 * 3600.0;

/// Serverless function pricing (AWS Lambda-class).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FunctionPricing {
    /// Dollars per GB-second of configured memory while executing.
    pub per_gb_second: f64,
    /// Dollars per invocation.
    pub per_request: f64,
}

impl FunctionPricing {
    /// AWS Lambda x86 pricing: $0.0000166667 per GB-s, $0.20 per 1M requests.
    pub const AWS_LAMBDA: FunctionPricing = FunctionPricing {
        per_gb_second: 0.000_016_666_7,
        per_request: 0.000_000_2,
    };

    /// Billing for one invocation of `duration` on a function configured
    /// with `memory`.
    pub fn invocation(&self, memory: ByteSize, duration: SimDuration) -> Cost {
        let gb_seconds = memory.as_gb_f64() * duration.as_secs_f64();
        Cost::from_dollars(gb_seconds * self.per_gb_second + self.per_request)
    }
}

/// Object-store pricing (AWS S3 standard-class).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectStorePricing {
    /// Dollars per GB-month at rest.
    pub storage_per_gb_month: f64,
    /// Dollars per GET request.
    pub per_get: f64,
    /// Dollars per PUT request.
    pub per_put: f64,
}

impl ObjectStorePricing {
    /// S3 Standard: $0.023/GB-month, GET $0.0004/1k, PUT $0.005/1k.
    pub const AWS_S3: ObjectStorePricing = ObjectStorePricing {
        storage_per_gb_month: 0.023,
        per_get: 0.000_000_4,
        per_put: 0.000_005,
    };

    /// Cost of storing `bytes` for `duration`.
    pub fn storage(&self, bytes: ByteSize, duration: SimDuration) -> Cost {
        let months = duration.as_secs_f64() / SECONDS_PER_MONTH;
        Cost::from_dollars(bytes.as_gb_f64() * self.storage_per_gb_month * months)
    }
}

/// In-memory cache pricing (AWS ElastiCache-class), billed per node-hour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheNodePricing {
    /// Usable memory per node.
    pub capacity: ByteSize,
    /// Dollars per node-hour.
    pub per_node_hour: f64,
}

impl CacheNodePricing {
    /// cache.r6g.4xlarge: ~105 GB usable, $1.56/h.
    pub const R6G_4XLARGE: CacheNodePricing = CacheNodePricing {
        capacity: ByteSize::from_gb(105),
        per_node_hour: 1.56,
    };

    /// Cost of running `nodes` nodes for `duration`.
    pub fn node_hours(&self, nodes: usize, duration: SimDuration) -> Cost {
        Cost::from_dollars(self.per_node_hour * nodes as f64 * duration.as_hours_f64())
    }

    /// Minimum node count whose aggregate capacity covers `working_set`.
    pub fn nodes_for(&self, working_set: ByteSize) -> usize {
        let cap = self.capacity.as_bytes().max(1);
        (working_set.as_bytes().div_ceil(cap)).max(1) as usize
    }
}

/// Dedicated VM pricing (SageMaker / EC2-class), billed per instance-hour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmPricing {
    /// Dollars per instance-hour.
    pub per_hour: f64,
}

impl VmPricing {
    /// SageMaker ml.m5.4xlarge (16 vCPU, 64 GiB): $0.922/h — the paper's
    /// aggregator instance.
    pub const ML_M5_4XLARGE: VmPricing = VmPricing { per_hour: 0.922 };

    /// SageMaker ml.m5.xlarge (4 vCPU, 16 GiB): $0.23/h.
    pub const ML_M5_XLARGE: VmPricing = VmPricing { per_hour: 0.23 };

    /// Cost of `duration` of instance time.
    pub fn duration(&self, duration: SimDuration) -> Cost {
        Cost::from_dollars(self.per_hour * duration.as_hours_f64())
    }
}

/// Data-transfer pricing between the data plane and the compute plane.
///
/// The paper attributes a large share of non-training cost to "high data
/// transfer costs" between the storage service and the aggregator
/// (§2.2, Fig. 8). We price plane-crossing traffic at the inter-service /
/// internet-egress rate; traffic that stays inside one function (FLStore's
/// locality-aware path) is free.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferPricing {
    /// Dollars per GB crossing between services/planes.
    pub per_gb: f64,
}

impl TransferPricing {
    /// Internet/egress-class rate ($0.09/GB) used for plane-crossing bytes.
    pub const INTER_PLANE: TransferPricing = TransferPricing { per_gb: 0.09 };

    /// Cost of moving `bytes`.
    pub fn transfer(&self, bytes: ByteSize) -> Cost {
        Cost::from_dollars(bytes.as_gb_f64() * self.per_gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_invocation_cost_matches_hand_math() {
        // 4 GB for 3 s = 12 GB-s -> 12 * 0.0000166667 + 0.0000002
        let c =
            FunctionPricing::AWS_LAMBDA.invocation(ByteSize::from_gb(4), SimDuration::from_secs(3));
        assert!((c.as_dollars() - 0.000_200_2).abs() < 1e-6, "{c}");
    }

    #[test]
    fn s3_storage_for_a_month() {
        let c = ObjectStorePricing::AWS_S3
            .storage(ByteSize::from_gb(100), SimDuration::from_hours(730));
        assert!((c.as_dollars() - 2.3).abs() < 1e-9, "{c}");
    }

    #[test]
    fn cache_node_sizing() {
        let p = CacheNodePricing::R6G_4XLARGE;
        assert_eq!(p.nodes_for(ByteSize::from_gb(1)), 1);
        assert_eq!(p.nodes_for(ByteSize::from_gb(105)), 1);
        assert_eq!(p.nodes_for(ByteSize::from_gb(106)), 2);
        assert_eq!(p.nodes_for(ByteSize::from_gb(827)), 8);
        assert_eq!(p.nodes_for(ByteSize::ZERO), 1);
    }

    #[test]
    fn cache_node_hours() {
        let c = CacheNodePricing::R6G_4XLARGE.node_hours(8, SimDuration::from_hours(50));
        assert!((c.as_dollars() - 8.0 * 1.56 * 50.0).abs() < 1e-9);
    }

    #[test]
    fn vm_hourly() {
        let c = VmPricing::ML_M5_4XLARGE.duration(SimDuration::from_secs(100));
        assert!((c.as_dollars() - 0.922 * 100.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_rates() {
        let gb = ByteSize::from_gb(1);
        assert!((TransferPricing::INTER_PLANE.transfer(gb).as_dollars() - 0.09).abs() < 1e-12);
    }
}
