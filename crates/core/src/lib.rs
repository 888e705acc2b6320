//! # sirum-core
//!
//! SIRUM — **S**calable **I**nformative **RU**le **M**ining — reproduced
//! from Guoyao Feng's 2016 thesis. Given a multidimensional dataset with
//! categorical dimension attributes and a numeric measure attribute, SIRUM
//! greedily mines a small list of rules (value patterns with wildcards)
//! that provide the most information about the measure's distribution under
//! a maximum-entropy model scored by KL divergence.
//!
//! The crate implements the full pipeline on the [`sirum_dataflow`] engine
//! behind one entry point, [`Miner`], configured by [`SirumConfig`]:
//!
//! * rules over the cube lattice ([`Rule`], with [`WILDCARD`] positions),
//! * maximum-entropy estimation by iterative scaling over the Rule
//!   Coverage Table (§4.1; [`ScalingConfig`]),
//! * information gain (Eq 2.2) and KL scoring of every iteration
//!   ([`MiningResult::kl_trace`]),
//! * sample-based candidate pruning with an inverted-index fast path
//!   (§3.1.1/§4.2; [`CandidateStrategy`]),
//! * the fused gain sweep or the staged shuffle pipeline with multi-stage
//!   ancestor generation (§4.3; [`Evaluation`], [`StagedPipeline`]) and
//!   multi-rule insertion (§4.4; [`SirumConfig::rules_per_iter`]),
//! * the Table 4.2 variants ([`Variant`]), data-cube exploration
//!   ([`try_explore`]), SIRUM on sample data ([`try_mine_on_sample`]),
//!   incremental mining ([`StreamingMiner`]) and offline rule-set
//!   evaluation ([`try_evaluate_rules`]).
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
#![warn(missing_docs, unreachable_pub)]

mod block;
mod cancel;
mod candidates;
mod data;
mod error;
mod evaluate;
mod explore;
mod gain;
mod lattice;
mod miner;
mod multirule;
mod prepared;
mod rct;
mod rule;
mod sample_data;
mod scaling;
mod streaming;
mod sweep;
mod transform;
mod variants;

pub use cancel::CancellationToken;
pub use error::SirumError;
pub use evaluate::{try_evaluate_rules, try_evaluate_rules_prepared, RuleSetEvaluation};
pub use explore::{prior_rules_from_groupbys, try_explore, ExploreResult};
pub use lattice::check_expandable;
pub use miner::{
    CandidateStrategy, Evaluation, IterationDecision, IterationEvent, IterationObserver, MinedRule,
    Miner, MiningResult, PhaseTimings, SirumConfig, StagedPipeline,
};
pub use prepared::PreparedTable;
pub use rule::{Rule, RuleLayout, WILDCARD};
pub use sample_data::{try_mine_on_sample, SampleDataResult};
pub use scaling::{ScalingConfig, ScalingOutcome};
pub use streaming::{StreamingConfig, StreamingMiner};
pub use sweep::CombineStrategy;
pub use variants::Variant;

#[cfg(test)]
mod testkit;
