//! Typed errors for the dataflow engine: configuration validation and
//! spill-I/O failures surface as [`DataflowError`] values instead of
//! aborting the process.
//!
//! Hand-rolled in the `thiserror` style (the build is offline). The type is
//! `Clone` so the block store can retain a *poison* copy of the first I/O
//! failure while degrading gracefully, and hand the error to the driver at
//! the next health check — I/O error details are therefore carried as
//! strings rather than live [`std::io::Error`] values.

use std::fmt;

/// An error raised by the dataflow layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataflowError {
    /// An [`crate::EngineConfig`] field holds an unusable value.
    InvalidConfig {
        /// The offending configuration field.
        field: &'static str,
        /// Why the value is rejected.
        reason: String,
    },
    /// A spill-directory I/O operation failed (disk full, permissions, a
    /// vanished temp dir, …).
    Spill {
        /// The operation that failed (`"create spill directory"`,
        /// `"write spill file"`, `"read spill file"`, …).
        op: &'static str,
        /// The file or directory involved.
        path: String,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// A string did not name a known [`crate::EngineMode`].
    UnknownMode {
        /// The unrecognized input.
        name: String,
    },
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::InvalidConfig { field, reason } => {
                write!(f, "invalid engine config: {field}: {reason}")
            }
            DataflowError::Spill { op, path, detail } => {
                write!(f, "spill I/O failure: cannot {op} {path:?}: {detail}")
            }
            DataflowError::UnknownMode { name } => write!(
                f,
                "unknown engine mode {name:?} (expected in-memory, disk-mr or single-thread)"
            ),
        }
    }
}

impl std::error::Error for DataflowError {}

impl DataflowError {
    /// Build a [`DataflowError::Spill`] from a live I/O error.
    pub(crate) fn spill(op: &'static str, path: &std::path::Path, err: &std::io::Error) -> Self {
        DataflowError::Spill {
            op,
            path: path.display().to_string(),
            detail: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_field_operation_and_mode() {
        let e = DataflowError::InvalidConfig {
            field: "partitions",
            reason: "must be ≥ 1".into(),
        };
        assert!(e.to_string().contains("partitions"));
        let io = std::io::Error::other("disk full");
        let e = DataflowError::spill("write spill file", std::path::Path::new("/tmp/x"), &io);
        assert!(e.to_string().contains("disk full") && e.to_string().contains("/tmp/x"));
        let e = DataflowError::UnknownMode {
            name: "spark".into(),
        };
        assert!(e.to_string().contains("spark"));
    }
}
