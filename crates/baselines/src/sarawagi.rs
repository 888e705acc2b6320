//! Data-cube exploration in the style of Sarawagi, "User-cognizant
//! multidimensional analysis" (VLDB Journal 2001) — the prior work \[29\].
//!
//! Differences from SIRUM that §5.6.2 measures:
//!
//! 1. **No candidate pruning** — every supported cube cell is a candidate
//!    (SIRUM keeps this for the exploration application, but accelerates
//!    it with column grouping).
//! 2. **From-scratch iterative scaling** — all multipliers are reset to 1
//!    and re-derived whenever new cells enter the model, instead of being
//!    carried over. This is the main reason the \[29\] baseline spends so
//!    long in iterative scaling (Fig 5.15).

use sirum_core::{
    try_explore, CandidateStrategy, Evaluation, ExploreResult, SirumConfig, SirumError,
    StagedPipeline,
};
use sirum_dataflow::Engine;
use sirum_table::Table;

/// Configuration for the Sarawagi-style baseline run.
#[derive(Debug, Clone)]
pub struct SarawagiConfig {
    /// Number of cells (rules) to recommend.
    pub k: usize,
    /// Scaling parameters.
    pub scaling: sirum_core::ScalingConfig,
    /// Seed for column-group shuffling (candidate generation).
    pub seed: u64,
}

impl Default for SarawagiConfig {
    fn default() -> Self {
        SarawagiConfig {
            k: 10,
            scaling: sirum_core::ScalingConfig::default(),
            seed: 42,
        }
    }
}

/// Run the \[29\]-style exploration baseline: exhaustive candidates,
/// single-stage ancestor generation, λ reset on every insertion, one rule
/// per iteration. This is [`try_explore`] under the baseline's config, so it
/// sees the same prior knowledge.
pub fn sarawagi_explore(
    engine: &Engine,
    table: &Table,
    cfg: &SarawagiConfig,
) -> Result<ExploreResult, SirumError> {
    let config = SirumConfig {
        k: cfg.k,
        strategy: CandidateStrategy::FullCube,
        scaling: cfg.scaling,
        rct: false,
        // Comparator fidelity: keep the staged pipeline this baseline's
        // timings were modeled on, not the fused sweep.
        evaluation: Evaluation::Staged(StagedPipeline {
            broadcast_join: true,
            fast_pruning: false,
            column_groups: 1,
        }),
        rules_per_iter: 1,
        reset_lambdas_on_insert: true,
        target_kl: None,
        max_rules: None,
        two_sided_gain: false,
        packed_codes: true,
        seed: cfg.seed,
    };
    try_explore(engine, table, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirum_dataflow::EngineConfig;
    use sirum_table::generators;

    #[test]
    fn baseline_and_sirum_reach_comparable_quality() {
        let t = generators::gdelt_like(600, 5);
        let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
        let cfg = SarawagiConfig {
            k: 3,
            ..Default::default()
        };
        let baseline = sarawagi_explore(&engine, &t, &cfg).unwrap();
        let sirum = try_explore(
            &engine,
            &t,
            SirumConfig {
                k: 3,
                rct: true,
                ..SirumConfig::default()
            },
        )
        .unwrap();
        // Same prior knowledge.
        assert_eq!(baseline.prior, sirum.prior);
        // Both refine the model; quality should be in the same ballpark
        // (they share the selection heuristic, differing in scaling).
        let b = baseline.result.final_kl();
        let s = sirum.result.final_kl();
        assert!(b.is_finite() && s.is_finite());
        assert!(s <= b * 1.5 + 1e-6, "sirum {s} vs baseline {b}");
    }

    #[test]
    fn reset_strategy_needs_more_scaling_iterations() {
        // The λ-reset strategy re-derives all multipliers per insertion, so
        // its total scaling-iteration count must exceed carry-over's.
        let t = generators::income_like(800, 5);
        let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
        let baseline = sarawagi_explore(
            &engine,
            &t,
            &SarawagiConfig {
                k: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let sirum = try_explore(
            &engine,
            &t,
            SirumConfig {
                k: 4,
                ..SirumConfig::default()
            },
        )
        .unwrap();
        let total = |r: &ExploreResult| -> usize { r.result.scaling_iterations.iter().sum() };
        assert!(
            total(&baseline) > total(&sirum),
            "reset {} vs carry-over {}",
            total(&baseline),
            total(&sirum)
        );
    }
}
