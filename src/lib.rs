//! # sirum
//!
//! Facade crate for the SIRUM reproduction — **S**calable **I**nformative
//! **RU**le **M**ining (Feng, University of Waterloo, 2016).
//!
//! One entry point serves embedding and serving alike: [`service`]. A
//! `Send + Sync`, cheaply clonable [`service::SirumService`] owns a
//! configured engine plus one catalog of pre-encoded tables shared across
//! threads. Each query is a validated [`service::ServiceRequest`] — no
//! panics on bad input — that can [`run`](service::ServiceRequest::run)
//! synchronously, be [`submit`](service::ServiceRequest::submit)ted to a
//! bounded worker pool ([`service::JobHandle`] with
//! `wait`/`try_poll`/`cancel`), or
//! [`explain`](service::ServiceRequest::explain) its plan without
//! running; repeated identical requests are answered from an LRU result
//! cache.
//!
//! ```
//! use sirum::prelude::*;
//!
//! let service = SirumService::in_memory()?;
//! let flights = service.register_demo("flights")?;
//! let output = service
//!     .mine("flights")
//!     .k(3)
//!     .sample_size(14)
//!     .run()?;
//! assert_eq!(output.result.rules[1].rule.display(&flights), "(*, *, London)");
//! # Ok::<(), SirumError>(())
//! ```
//!
//! The layer crates remain directly accessible:
//!
//! * [`core`] (`sirum_core`) — the mining algorithms.
//! * [`table`] (`sirum_table`) — the multidimensional table substrate and
//!   dataset generators.
//! * [`dataflow`] (`sirum_dataflow`) — the Spark-like execution engine.
//! * [`baselines`] (`sirum_baselines`) — Sarawagi's cube-exploration
//!   comparator.
//!
//! `Miner::try_mine` is the direct, engine-level way in. See the
//! `examples/` directory for runnable walkthroughs and `DESIGN.md` for the
//! system inventory.

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
#![warn(missing_docs)]

pub mod json;
pub mod net;
pub mod service;

pub use sirum_baselines as baselines;
pub use sirum_core as core;
pub use sirum_dataflow as dataflow;
pub use sirum_table as table;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::net::client::{ClientResponse, HttpClient};
    pub use crate::net::metrics::{LatencySummary, NetMetrics};
    pub use crate::net::router::{Router, RouterConfig};
    pub use crate::net::server::{Server, ServerConfig};
    pub use crate::service::{
        FieldError, IngestHandle, JobHandle, JobOutput, JobState, JobStatus, MiningPlan,
        ServiceBuilder, ServiceRequest, ServiceStats, SirumService,
    };
    pub use sirum_core::{
        try_evaluate_rules, try_explore, try_mine_on_sample, CancellationToken, CandidateStrategy,
        Evaluation, IterationDecision, IterationEvent, MinedRule, Miner, MiningResult,
        PreparedTable, Rule, RuleSetEvaluation, ScalingConfig, SirumConfig, SirumError,
        StagedPipeline, Variant, WILDCARD,
    };
    pub use sirum_dataflow::{DataflowError, Engine, EngineConfig, EngineMode};
    pub use sirum_table::{generators, Schema, Table, TableError};
}
