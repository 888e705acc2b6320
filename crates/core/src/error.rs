//! The workspace-wide error hierarchy: every user-input-reachable failure
//! in the mining pipeline — bad data, bad configuration, engine trouble —
//! surfaces as a [`SirumError`] that names the offending field or input.
//!
//! Hand-rolled in the `thiserror` style (the build is offline): `Display`
//! renders one-line human messages, `source` exposes the wrapped layer
//! errors, and `From` impls let `?` lift [`TableError`] and
//! [`DataflowError`] into the hierarchy.

use sirum_dataflow::DataflowError;
use sirum_table::TableError;
use std::fmt;

/// An error raised anywhere in the SIRUM mining pipeline.
#[derive(Debug)]
pub enum SirumError {
    /// The dataset (or a sample of it) contains no rows; SIRUM needs at
    /// least one tuple to seed the all-wildcards rule.
    EmptyDataset,
    /// A [`crate::SirumConfig`] (or request-builder) field holds an
    /// unusable value; `field` names it.
    InvalidConfig {
        /// The offending configuration field.
        field: &'static str,
        /// Why the value is rejected.
        reason: String,
    },
    /// The measure column cannot drive the maximum-entropy model
    /// (non-finite values, for example).
    InvalidMeasure {
        /// What is wrong with the measure.
        reason: String,
    },
    /// A mining request referenced a table name the session has not
    /// registered.
    UnknownTable {
        /// The unknown name.
        name: String,
        /// The names the session does know, for the error message.
        registered: Vec<String>,
    },
    /// A demo-dataset name did not match any built-in generator.
    UnknownDemo {
        /// The unknown name.
        name: String,
    },
    /// A table-layer failure (CSV parsing, schema, dictionaries).
    Table(TableError),
    /// A dataflow-layer failure (engine configuration, spill I/O).
    Dataflow(DataflowError),
    /// A serving-layer failure (job scheduling, handle misuse): the worker
    /// pool shut down before a job ran, or a job result was requested
    /// twice.
    Service {
        /// What went wrong in the serving layer.
        reason: String,
    },
    /// The serving layer's bounded job queue is full and the request was
    /// admitted non-blockingly; shed-load signal — the caller should retry
    /// later (an HTTP front end maps this to `429 Too Many Requests`).
    Overloaded {
        /// The queue bound that was hit.
        queue_capacity: usize,
    },
}

impl fmt::Display for SirumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SirumError::EmptyDataset => {
                write!(f, "empty dataset: mining needs at least one row")
            }
            SirumError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            SirumError::InvalidMeasure { reason } => {
                write!(f, "invalid measure column: {reason}")
            }
            SirumError::UnknownTable { name, registered } => {
                if registered.is_empty() {
                    write!(f, "unknown table {name:?}: no tables are registered")
                } else {
                    write!(
                        f,
                        "unknown table {name:?} (registered: {})",
                        registered.join(", ")
                    )
                }
            }
            SirumError::UnknownDemo { name } => write!(
                f,
                "unknown demo dataset {name:?} (expected flights, income, gdelt, susy, tlc or dirty)"
            ),
            SirumError::Table(e) => write!(f, "table error: {e}"),
            SirumError::Dataflow(e) => write!(f, "dataflow error: {e}"),
            SirumError::Service { reason } => write!(f, "service error: {reason}"),
            SirumError::Overloaded { queue_capacity } => write!(
                f,
                "service overloaded: the job queue is at its {queue_capacity}-job \
                 capacity; retry later"
            ),
        }
    }
}

impl std::error::Error for SirumError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SirumError::Table(e) => Some(e),
            SirumError::Dataflow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TableError> for SirumError {
    fn from(e: TableError) -> Self {
        SirumError::Table(e)
    }
}

impl From<DataflowError> for SirumError {
    fn from(e: DataflowError) -> Self {
        SirumError::Dataflow(e)
    }
}

impl SirumError {
    /// Shorthand constructor for [`SirumError::InvalidConfig`].
    pub fn invalid_config(field: &'static str, reason: impl Into<String>) -> Self {
        SirumError::InvalidConfig {
            field,
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`SirumError::Service`].
    pub fn service(reason: impl Into<String>) -> Self {
        SirumError::Service {
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_names_fields_and_tables() {
        let e = SirumError::invalid_config("column_groups", "must be ≥ 1");
        assert!(e.to_string().contains("column_groups"));
        let e = SirumError::UnknownTable {
            name: "nope".into(),
            registered: vec!["flights".into()],
        };
        assert!(e.to_string().contains("nope") && e.to_string().contains("flights"));
    }

    #[test]
    fn layer_errors_lift_and_expose_sources() {
        let t: SirumError = TableError::EmptyInput.into();
        assert!(t.source().is_some());
        let d: SirumError = DataflowError::UnknownMode { name: "x".into() }.into();
        assert!(d.source().is_some());
        assert!(d.to_string().contains("dataflow"));
    }
}
