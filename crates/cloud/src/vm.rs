//! Dedicated VM instances (the baselines' compute plane).
//!
//! Conventional FL frameworks keep an always-on aggregator (the paper
//! deploys SageMaker ml.m5.4xlarge). The instance bills per hour whether
//! serving requests or idle — the structural cost FLStore avoids.

use serde::Serialize;

use flstore_sim::bytes::ByteSize;
use flstore_sim::cost::Cost;
use flstore_sim::queue::{Assignment, ServerPool};
use flstore_sim::time::{SimDuration, SimTime};

use crate::compute::{ComputeProfile, WorkUnits};
use crate::pricing::VmPricing;

/// A VM instance type.
///
/// Only serializable: the `&'static str` name cannot be deserialized from
/// owned JSON text, and the catalog of types is baked into the binary anyway.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VmType {
    /// Marketing name.
    pub name: &'static str,
    /// Virtual CPU count.
    pub vcpus: u32,
    /// Instance memory.
    pub memory: ByteSize,
    /// Hourly price.
    pub per_hour: f64,
    /// Execution speed relative to the reference function.
    pub speed_factor: f64,
}

impl VmType {
    /// SageMaker ml.m5.4xlarge — the paper's aggregator instance.
    pub const ML_M5_4XLARGE: VmType = VmType {
        name: "ml.m5.4xlarge",
        vcpus: 16,
        memory: ByteSize::from_gb(64),
        per_hour: 0.922,
        speed_factor: 1.5,
    };

    /// SageMaker ml.m5.xlarge — a smaller aggregator option.
    pub const ML_M5_XLARGE: VmType = VmType {
        name: "ml.m5.xlarge",
        vcpus: 4,
        memory: ByteSize::from_gb(16),
        per_hour: 0.23,
        speed_factor: 1.1,
    };

    /// Pricing view of this type.
    pub fn pricing(&self) -> VmPricing {
        VmPricing {
            per_hour: self.per_hour,
        }
    }

    /// Compute capability view of this type.
    pub fn compute_profile(&self) -> ComputeProfile {
        ComputeProfile::new(self.speed_factor)
    }
}

/// A running, always-on VM that executes work requests.
///
/// Prices busy time (for per-request cost attribution) and uptime (for
/// total-window infrastructure cost). Work items queue FIFO on a small pool
/// of worker slots.
///
/// # Examples
///
/// ```
/// use flstore_cloud::vm::{VmInstance, VmType};
/// use flstore_cloud::compute::WorkUnits;
/// use flstore_sim::time::SimTime;
///
/// let mut agg = VmInstance::launch(VmType::ML_M5_4XLARGE, SimTime::ZERO, 1);
/// let done = agg.execute(SimTime::ZERO, WorkUnits::from_ref_seconds(3.0));
/// assert!(done.end > done.start || done.start == done.end);
/// ```
#[derive(Debug, Clone)]
pub struct VmInstance {
    vm_type: VmType,
    workers: ServerPool,
    launched_at: SimTime,
}

impl VmInstance {
    /// Launches an instance at `now` with `worker_slots` concurrent request
    /// slots (the paper's aggregator handles requests essentially serially;
    /// pass 1 unless modeling a multi-threaded server).
    ///
    /// # Panics
    ///
    /// Panics if `worker_slots` is zero.
    pub fn launch(vm_type: VmType, now: SimTime, worker_slots: usize) -> Self {
        VmInstance {
            vm_type,
            workers: ServerPool::new(worker_slots),
            launched_at: now,
        }
    }

    /// Queues `work` arriving at `now`; returns the queueing assignment.
    pub fn execute(&mut self, now: SimTime, work: WorkUnits) -> Assignment {
        let service = work.duration_on(self.vm_type.compute_profile());
        self.workers.assign(now, service)
    }

    /// Cost of the instance-time consumed while actually executing requests.
    /// Used for per-request cost attribution.
    pub fn busy_cost_of(&self, service: SimDuration) -> Cost {
        self.vm_type.pricing().duration(service)
    }

    /// Total always-on cost from launch to `now` (busy or not).
    pub fn uptime_cost(&self, now: SimTime) -> Cost {
        self.vm_type
            .pricing()
            .duration(now.duration_since(self.launched_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_scales_by_speed() {
        let mut vm = VmInstance::launch(VmType::ML_M5_4XLARGE, SimTime::ZERO, 1);
        let a = vm.execute(SimTime::ZERO, WorkUnits::from_ref_seconds(3.0));
        // 3 ref-seconds at 1.5x speed = 2 s.
        assert_eq!(a.end.duration_since(a.start), SimDuration::from_secs(2));
    }

    #[test]
    fn serial_requests_queue() {
        let mut vm = VmInstance::launch(VmType::ML_M5_4XLARGE, SimTime::ZERO, 1);
        let w = WorkUnits::from_ref_seconds(1.5); // 1 s on this VM
        let a = vm.execute(SimTime::ZERO, w);
        let b = vm.execute(SimTime::ZERO, w);
        assert!(a.queue_wait.is_zero());
        assert_eq!(b.queue_wait, SimDuration::from_secs(1));
    }

    #[test]
    fn uptime_cost_independent_of_load() {
        let vm = VmInstance::launch(VmType::ML_M5_4XLARGE, SimTime::ZERO, 1);
        let cost = vm.uptime_cost(SimTime::ZERO + SimDuration::from_hours(50));
        assert!((cost.as_dollars() - 0.922 * 50.0).abs() < 1e-9);
    }

    #[test]
    fn busy_cost_of_service_window() {
        let vm = VmInstance::launch(VmType::ML_M5_4XLARGE, SimTime::ZERO, 1);
        let c = vm.busy_cost_of(SimDuration::from_secs(100));
        assert!((c.as_dollars() - 0.922 * 100.0 / 3600.0).abs() < 1e-9);
    }
}
