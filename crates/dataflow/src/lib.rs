//! # sirum-dataflow
//!
//! A miniature partitioned dataflow engine — the execution substrate for the
//! SIRUM reproduction. It stands in for the platforms the thesis evaluates:
//!
//! * **Spark** ([`EngineMode::InMemory`]): parallel tasks over partitions,
//!   map-side-combine shuffles, budgeted block cache with LRU spill.
//! * **Hive on MapReduce** ([`EngineMode::DiskMr`]): identical operators, but
//!   every stage's output partitions and every shuffle bucket round-trip
//!   through disk. Job startup is not emulated.
//! * **PostgreSQL** ([`EngineMode::SingleThread`]): one worker, no
//!   intra-query parallelism.
//!
//! The engine records per-task timings, shuffle volumes and disk I/O.
//!
//! ## Example
//!
//! ```
//! use sirum_dataflow::hash::fx_hash_one;
//! use sirum_dataflow::{DataflowError, Dataset, Engine, EngineConfig};
//!
//! let engine = Engine::try_new(EngineConfig::in_memory())?;
//! // Eight partitions, each one record: a block of 125 numbers.
//! let blocks: Vec<Vec<u32>> = (0..8).map(|p| (p * 125..(p + 1) * 125).collect()).collect();
//! let data = Dataset::from_partitioned(&engine, blocks);
//! let pairs = data.map_partitions("key-by-mod", |_, blocks: &[Vec<u32>]| {
//!     blocks.iter().flatten().map(|&x| (x % 10, 1u64)).collect()
//! });
//! let counts = pairs.reduce_by_key("count", 4, fx_hash_one, |a, b| *a += b);
//! let mut result = counts.collect();
//! result.sort_unstable();
//! assert_eq!(result.len(), 10);
//! assert!(result.iter().all(|&(_, c)| c == 100));
//! # Ok::<(), DataflowError>(())
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

mod config;
mod dataset;
mod encode;
mod engine;
mod error;
pub mod hash;
mod memory;
mod metrics;

pub use config::{EngineConfig, EngineMode};
pub use dataset::{sample_row_indices, Dataset, Record};
pub use encode::{decode_records, encode_records, Encode};
pub use engine::Engine;
pub use error::DataflowError;
pub use memory::{BlockStore, MemSample, MemoryStats};
pub use metrics::{CounterSnapshot, MetricsRegistry, StageRecord, TaskRecord};
