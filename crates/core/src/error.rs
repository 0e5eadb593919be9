//! FLStore error types.

use std::error::Error;
use std::fmt;

use flstore_cloud::blob::StoreError;
use flstore_serverless::platform::PlatformError;
use flstore_workloads::request::RequestId;
use flstore_workloads::run::WorkloadError;

/// Failures while serving a non-training request.
#[derive(Debug, Clone, PartialEq)]
pub enum FlStoreError {
    /// The catalog has no data for the requested round(s) — nothing was
    /// ever ingested there.
    NoData {
        /// The offending request.
        request: RequestId,
    },
    /// Persistent-store failure (missing backup object).
    Store(StoreError),
    /// The workload rejected its inputs.
    Workload(WorkloadError),
    /// Serverless platform failure.
    Platform(PlatformError),
}

impl fmt::Display for FlStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlStoreError::NoData { request } => {
                write!(f, "no ingested data satisfies {request}")
            }
            FlStoreError::Store(e) => write!(f, "persistent store: {e}"),
            FlStoreError::Workload(e) => write!(f, "workload: {e}"),
            FlStoreError::Platform(e) => write!(f, "platform: {e}"),
        }
    }
}

impl Error for FlStoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlStoreError::NoData { .. } => None,
            FlStoreError::Store(e) => Some(e),
            FlStoreError::Workload(e) => Some(e),
            FlStoreError::Platform(e) => Some(e),
        }
    }
}

impl From<StoreError> for FlStoreError {
    fn from(e: StoreError) -> Self {
        FlStoreError::Store(e)
    }
}

impl From<WorkloadError> for FlStoreError {
    fn from(e: WorkloadError) -> Self {
        FlStoreError::Workload(e)
    }
}

impl From<PlatformError> for FlStoreError {
    fn from(e: PlatformError) -> Self {
        FlStoreError::Platform(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = FlStoreError::NoData {
            request: RequestId::new(3),
        };
        assert!(e.to_string().contains("req-3"));
        assert!(e.source().is_none());

        let e = FlStoreError::from(StoreError::NotFound(flstore_cloud::blob::ObjectKey::new(
            "k",
        )));
        assert!(e.to_string().contains("persistent store"));
        assert!(e.source().is_some());
    }
}
