//! Engine error type.

use std::fmt;

/// Errors surfaced by the execution engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The requested dataset id is not in the registry.
    UnknownDataset(String),
    /// An upload id collides with an existing dataset.
    DatasetExists(String),
    /// The source label did not resolve to a node in the dataset.
    UnknownSource {
        /// The dataset queried.
        dataset: String,
        /// The label that failed to resolve.
        source: String,
    },
    /// A personalized algorithm was submitted without a source.
    MissingSource,
    /// The algorithm itself failed.
    Algorithm(String),
    /// No such task id.
    UnknownTask(String),
    /// Waited past the deadline for a task to finish.
    Timeout(String),
    /// The task ran but failed; the message is the recorded failure.
    TaskFailed(String),
    /// Durable-store or dataset-codec failure.
    Storage(String),
    /// A `Query` cannot be expressed as a schedulable task spec.
    UnsupportedQuery(String),
    /// A dataset edge mutation could not be applied (unresolvable
    /// endpoint, invalid weight, out-of-range node).
    InvalidMutation(String),
    /// The dataset's durable store is failing; mutations are rejected
    /// until a re-probe succeeds, while reads keep serving.
    Degraded {
        /// The degraded dataset.
        dataset: String,
        /// Seconds until the engine will probe the store again.
        retry_after_secs: u64,
        /// The storage failure that triggered degradation.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownDataset(d) => write!(f, "unknown dataset {d:?}"),
            EngineError::DatasetExists(d) => write!(f, "dataset {d:?} already exists"),
            EngineError::UnknownSource { dataset, source } => {
                write!(f, "no node labeled {source:?} in dataset {dataset:?}")
            }
            EngineError::MissingSource => {
                write!(f, "personalized algorithm requires a source node")
            }
            EngineError::Algorithm(e) => write!(f, "algorithm error: {e}"),
            EngineError::UnknownTask(t) => write!(f, "unknown task {t:?}"),
            EngineError::Timeout(t) => write!(f, "timed out waiting for task {t:?}"),
            EngineError::TaskFailed(e) => write!(f, "task failed: {e}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::UnsupportedQuery(e) => write!(f, "unsupported query: {e}"),
            EngineError::InvalidMutation(e) => write!(f, "invalid mutation: {e}"),
            EngineError::Degraded { dataset, retry_after_secs, reason } => write!(
                f,
                "dataset {dataset:?} is degraded (storage failing: {reason}); \
                 mutations rejected, retry in {retry_after_secs}s"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<relcore::AlgoError> for EngineError {
    fn from(e: relcore::AlgoError) -> Self {
        EngineError::Algorithm(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EngineError::UnknownDataset("x".into()).to_string().contains("x"));
        assert!(EngineError::DatasetExists("y".into()).to_string().contains("exists"));
        assert!(EngineError::UnknownSource { dataset: "d".into(), source: "s".into() }
            .to_string()
            .contains("s"));
        assert!(EngineError::MissingSource.to_string().contains("source"));
        assert!(EngineError::Timeout("t".into()).to_string().contains("t"));
        assert!(EngineError::TaskFailed("boom".into()).to_string().contains("boom"));
        assert!(EngineError::Storage("io".into()).to_string().contains("io"));
        assert!(EngineError::UnknownTask("id".into()).to_string().contains("id"));
        assert!(EngineError::UnsupportedQuery("graph target".into())
            .to_string()
            .contains("graph target"));
        assert!(EngineError::InvalidMutation("bad endpoint".into())
            .to_string()
            .contains("bad endpoint"));
        let degraded = EngineError::Degraded {
            dataset: "ds".into(),
            retry_after_secs: 4,
            reason: "fsync failed".into(),
        };
        assert!(degraded.to_string().contains("degraded"));
        assert!(degraded.to_string().contains("retry in 4s"));
    }

    #[test]
    fn from_algo_error() {
        let e: EngineError = relcore::AlgoError::EmptyGraph.into();
        assert!(matches!(e, EngineError::Algorithm(_)));
    }
}
