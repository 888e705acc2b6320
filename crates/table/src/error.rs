//! Typed errors for the table substrate: everything a caller can trigger
//! with bad input at the I/O boundary (CSV parsing, schema construction,
//! row ingestion) surfaces as a [`TableError`] instead of a panic.
//!
//! The hierarchy is hand-rolled in the `thiserror` style (the build is
//! offline, so no derive crate): each variant carries the offending field
//! or location, `Display` renders a one-line human message, and
//! `std::error::Error::source` exposes wrapped I/O errors.

use std::fmt;

/// An error raised by the table layer (CSV I/O, schema, dictionaries).
#[derive(Debug)]
pub enum TableError {
    /// The input had no content at all (e.g. a CSV without a header line).
    EmptyInput,
    /// A schema needs at least one dimension attribute besides the measure.
    NoDimensions,
    /// Two dimension attributes share a name.
    DuplicateDimension {
        /// The repeated attribute name.
        name: String,
    },
    /// A data line's field count does not match the header.
    RaggedLine {
        /// 1-based line number in the input (header is line 1).
        line: usize,
        /// Fields the header promises (dimensions + measure).
        expected: usize,
        /// Fields actually found.
        found: usize,
    },
    /// The measure column held a value that does not parse as a number.
    BadMeasure {
        /// 1-based line number in the input.
        line: usize,
        /// The offending raw value.
        value: String,
    },
    /// A quoted CSV field was opened but never closed before the input
    /// ended (RFC-4180 quoting).
    UnclosedQuote {
        /// 1-based line number where the quoted field started.
        line: usize,
    },
    /// A row's arity does not match the schema.
    ArityMismatch {
        /// Dimensions the schema defines.
        expected: usize,
        /// Values supplied for the row.
        found: usize,
    },
    /// A coded row referenced a dictionary code that was never interned.
    UninternedCode {
        /// Dimension column index.
        column: usize,
        /// The unknown code.
        code: u32,
    },
    /// A dictionary exhausted the `u32` code space (`u32::MAX` is reserved
    /// for the wildcard).
    DictionaryOverflow {
        /// Distinct values already interned when the overflow occurred.
        cardinality: usize,
    },
    /// An underlying I/O failure while reading or writing.
    Io(std::io::Error),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::EmptyInput => write!(f, "empty input: no header line"),
            TableError::NoDimensions => {
                write!(
                    f,
                    "need at least one dimension attribute besides the measure"
                )
            }
            TableError::DuplicateDimension { name } => {
                write!(f, "duplicate dimension attribute name {name:?}")
            }
            TableError::RaggedLine {
                line,
                expected,
                found,
            } => write!(f, "line {line}: expected {expected} fields, found {found}"),
            TableError::BadMeasure { line, value } => {
                write!(f, "line {line}: measure value {value:?} is not a number")
            }
            TableError::UnclosedQuote { line } => write!(
                f,
                "line {line}: quoted field is never closed before the input ends"
            ),
            TableError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "row has {found} values but the schema has {expected} dimensions"
                )
            }
            TableError::UninternedCode { column, code } => {
                write!(f, "code {code} was never interned in column {column}")
            }
            TableError::DictionaryOverflow { cardinality } => write!(
                f,
                "dictionary overflow: {cardinality} distinct values exhaust the u32 code space"
            ),
            TableError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TableError {
    fn from(e: std::io::Error) -> Self {
        TableError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_names_the_offending_field() {
        let e = TableError::RaggedLine {
            line: 3,
            expected: 4,
            found: 2,
        };
        assert_eq!(e.to_string(), "line 3: expected 4 fields, found 2");
        let e = TableError::DuplicateDimension { name: "Day".into() };
        assert!(e.to_string().contains("Day"));
        let e = TableError::BadMeasure {
            line: 7,
            value: "abc".into(),
        };
        assert!(e.to_string().contains("abc") && e.to_string().contains('7'));
    }

    #[test]
    fn io_errors_expose_a_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = TableError::from(io);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }
}
