//! Subcube-layer errors.

use sdr_mdm::{DayNum, TimeValue};
use sdr_query::QueryError;
use sdr_reduce::ReduceError;

/// Errors raised by the warehouse.
#[derive(Debug)]
pub enum SubcubeError {
    /// An error from the reduction engine.
    Reduce(ReduceError),
    /// An error from the query layer.
    Query(QueryError),
    /// An error from the storage layer.
    Storage(String),
    /// `age(until)` was asked to move time backwards: the warehouse is
    /// already synchronized past `until`. Aging is monotone — reduction
    /// cannot be undone — so a stale `until` is a caller error, not a
    /// silent no-op.
    AgeBeforeWatermark {
        /// The requested aging target day.
        until: DayNum,
        /// The warehouse's last synchronized day.
        last_sync: DayNum,
    },
}

impl std::fmt::Display for SubcubeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubcubeError::Reduce(e) => write!(f, "{e}"),
            SubcubeError::Query(e) => write!(f, "{e}"),
            SubcubeError::Storage(m) => write!(f, "storage: {m}"),
            SubcubeError::AgeBeforeWatermark { until, last_sync } => write!(
                f,
                "cannot age to {}: the warehouse is already synchronized to {} \
                 (aging is monotone; reduction cannot be undone)",
                TimeValue::Day(*until).render(),
                TimeValue::Day(*last_sync).render()
            ),
        }
    }
}

impl std::error::Error for SubcubeError {}

impl From<ReduceError> for SubcubeError {
    fn from(e: ReduceError) -> Self {
        SubcubeError::Reduce(e)
    }
}

impl From<QueryError> for SubcubeError {
    fn from(e: QueryError) -> Self {
        SubcubeError::Query(e)
    }
}
