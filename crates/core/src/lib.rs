//! # sirum-core
//!
//! SIRUM — **S**calable **I**nformative **RU**le **M**ining — reproduced
//! from Guoyao Feng's 2016 thesis. Given a multidimensional dataset with
//! categorical dimension attributes and a numeric measure attribute, SIRUM
//! greedily mines a small list of rules (value patterns with wildcards)
//! that provide the most information about the measure's distribution under
//! a maximum-entropy model scored by KL divergence.
//!
//! The crate implements the full pipeline on the [`sirum_dataflow`] engine:
//!
//! * rule / cube-lattice algebra ([`rule`], [`lattice`]),
//! * maximum-entropy estimation via iterative scaling ([`scaling`]) and its
//!   Rule-Coverage-Table acceleration ([`rct`], §4.1),
//! * information gain and KL scoring ([`gain`]),
//! * sample-based candidate pruning with an inverted-index fast path
//!   ([`candidates`], §3.1.1/§4.2),
//! * multi-stage ancestor generation (§4.3) and multi-rule insertion
//!   ([`multirule`], §4.4),
//! * the mining driver and the Table 4.2 variants ([`miner`], [`variants`]),
//! * data-cube exploration ([`explore`](mod@explore)) and
//!   SIRUM-on-sample-data ([`sample_data`]), and offline rule-set
//!   evaluation ([`evaluate`]).
//!
//! ## Quickstart
//!
//! Mining is fallible: configuration and data problems surface as typed
//! [`SirumError`] values rather than panics.
//!
//! ```
//! use sirum_core::{Miner, SirumConfig, CandidateStrategy, SirumError};
//! use sirum_dataflow::{Engine, EngineConfig};
//! use sirum_table::generators;
//!
//! let engine = Engine::try_new(EngineConfig::in_memory())?;
//! let flights = generators::flights();
//! let config = SirumConfig {
//!     k: 3,
//!     strategy: CandidateStrategy::SampleLca { sample_size: 14 },
//!     ..SirumConfig::default()
//! };
//! let result = Miner::new(engine, config).try_mine(&flights)?;
//! assert_eq!(result.rules.len(), 4); // (*,*,*) + 3 mined rules
//! assert!(result.final_kl() < result.kl_trace[0]);
//! # Ok::<(), SirumError>(())
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
#![warn(missing_docs)]

pub mod block;
pub mod cancel;
pub mod candidates;
mod data;
pub mod error;
pub mod evaluate;
pub mod explore;
pub mod gain;
pub mod lattice;
pub mod miner;
pub mod multirule;
pub mod prepared;
pub mod rct;
pub mod rule;
pub mod sample_data;
pub mod scaling;
pub mod streaming;
pub mod sweep;
pub mod transform;
pub mod variants;

pub use block::TupleBlock;
pub use cancel::CancellationToken;
pub use error::SirumError;
pub use evaluate::{try_evaluate_rules, try_evaluate_rules_prepared, RuleSetEvaluation};
pub use explore::{try_explore, ExploreResult};
pub use miner::{
    CandidateStrategy, Evaluation, IterationDecision, IterationEvent, IterationObserver, MinedRule,
    Miner, MiningResult, PhaseTimings, SirumConfig, StagedPipeline,
};
pub use prepared::PreparedTable;
pub use rule::{PackedCode, PackedMasks, Rule, RuleLayout, WILDCARD};
pub use sample_data::{try_mine_on_sample, SampleDataResult};
pub use scaling::ScalingConfig;
pub use streaming::{StreamingConfig, StreamingMiner};
pub use sweep::{sweep_gains, SweepOptions, SweepOutcome};
pub use variants::Variant;
