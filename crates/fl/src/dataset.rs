//! Dataset descriptors.
//!
//! The paper's experiments train on CIFAR-10. The reproduction never touches
//! pixels — what matters downstream is the number of classes (for non-IID
//! label splits), sample counts, and per-sample byte volumes (for metadata
//! size estimates like the paper's "1500 TB across 100 jobs" claim, §2.2).

use serde::Serialize;

use flstore_sim::bytes::ByteSize;

/// A labeled-image dataset descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: &'static str,
    /// Number of label classes.
    pub classes: usize,
    /// Total training samples.
    pub train_samples: u64,
    /// Bytes per stored sample.
    pub sample_bytes: u64,
}

impl DatasetSpec {
    /// CIFAR-10: 10 classes, 50k train images, 32x32x3 bytes each.
    pub const CIFAR10: DatasetSpec = DatasetSpec {
        name: "CIFAR10",
        classes: 10,
        train_samples: 50_000,
        sample_bytes: 3_072,
    };

    /// Total raw training-set volume.
    pub fn total_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.train_samples * self.sample_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cifar10_shape() {
        let d = DatasetSpec::CIFAR10;
        assert_eq!(d.classes, 10);
        assert!((d.total_bytes().as_mb_f64() - 153.6).abs() < 0.1);
    }
}
