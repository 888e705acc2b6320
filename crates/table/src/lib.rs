//! # sirum-table
//!
//! Columnar multidimensional table substrate for the SIRUM reproduction:
//! dictionary-encoded categorical dimension attributes, a numeric measure
//! column, CSV I/O, and deterministic synthetic generators matching the
//! shapes of the paper's evaluation datasets (Income, GDELT, SUSY, TLC) and
//! the worked flight-delay example.
//!
//! ```
//! use sirum_table::generators;
//!
//! let flights = generators::flights();
//! assert_eq!(flights.num_rows(), 14);
//! assert_eq!(flights.schema().dim_names(), &["Day", "Origin", "Destination"]);
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs, unreachable_pub)]

mod compress;
pub mod csv;
mod dict;
mod error;
pub mod fingerprint;
mod frame;
pub mod generators;
mod schema;
mod table;

pub use compress::{CompressedCol, Segment};
pub use dict::Dictionary;
pub use error::TableError;
pub use frame::{ColScratch, ColSlice, ColumnFormat, Compression, Frame, FrameView};
pub use schema::Schema;
pub use table::{Table, TableBuilder};
