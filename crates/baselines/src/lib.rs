//! # sirum-baselines
//!
//! Prior-work comparators for the SIRUM evaluation (§5.6):
//!
//! * [`sarawagi`] — data-cube exploration with exhaustive candidates and
//!   from-scratch iterative scaling (Sarawagi, VLDBJ 2001; reference \[29\]).
//!
//! El Gebaly et al. (VLDB 2014; reference \[16\]) has no centralized copy
//! here: its distributed form is SIRUM's `Variant::Naive` (§5.6.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sarawagi;

pub use sarawagi::{sarawagi_explore, SarawagiConfig};
