//! SIRUM on sample data (§4.5): when `D` exceeds the cluster's memory,
//! mine on a random row sample sized to fit, trading a small loss in
//! information gain for the elimination of repeated disk I/O
//! (Figs 4.4, 5.18, 5.19).

use crate::error::SirumError;
use crate::evaluate::{try_evaluate_rules, RuleSetEvaluation};
use crate::miner::{Miner, MiningResult};
use crate::rule::Rule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirum_table::Table;

/// Outcome of a sampled mining run, scored against the *full* dataset.
#[derive(Debug, Clone)]
pub struct SampleDataResult {
    /// The mining result over the sampled rows.
    pub result: MiningResult,
    /// Number of rows actually sampled.
    pub rows_used: usize,
    /// Quality of the mined rule set evaluated on the full dataset.
    pub eval: RuleSetEvaluation,
}

/// Draw a Bernoulli row sample of `table` at `rate` (deterministic in
/// `seed`) and return the sampled sub-table.
fn sample_table(table: &Table, rate: f64, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let indices: Vec<usize> = (0..table.num_rows())
        .filter(|_| rng.gen::<f64>() < rate)
        .collect();
    table.select_rows(&indices)
}

/// Mine on a `rate` sample of `table` with `miner` (its engine, config,
/// observer and cancellation token), then score the resulting rule set on
/// the full table (the §5.7.3 protocol: execution time from the sampled
/// run, information gain from the full data). The sample is drawn with
/// the config's seed.
///
/// # Errors
/// * [`SirumError::InvalidConfig`] — `rate` outside `[0, 1]`.
/// * [`SirumError::EmptyDataset`] — the sample (or the table) has no rows.
/// * Everything [`Miner::try_mine`] can return.
pub fn try_mine_on_sample(
    miner: &Miner,
    table: &Table,
    rate: f64,
) -> Result<SampleDataResult, SirumError> {
    if !(0.0..=1.0).contains(&rate) {
        return Err(SirumError::invalid_config(
            "rate",
            format!("sampling rate must be in [0, 1], got {rate}"),
        ));
    }
    let sampled = if rate >= 1.0 {
        table.clone()
    } else {
        sample_table(table, rate, miner.config().seed)
    };
    if sampled.num_rows() == 0 {
        return Err(SirumError::EmptyDataset);
    }
    let result = miner.try_mine(&sampled)?;
    let rules: Vec<Rule> = result.rules.iter().map(|r| r.rule.clone()).collect();
    let eval = try_evaluate_rules(table, &rules, &miner.config().scaling)?;
    Ok(SampleDataResult {
        rows_used: sampled.num_rows(),
        result,
        eval,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::{CandidateStrategy, SirumConfig};
    use sirum_dataflow::{Engine, EngineConfig};
    use sirum_table::generators::income_like;

    fn quick_config(k: usize) -> SirumConfig {
        SirumConfig {
            k,
            strategy: CandidateStrategy::SampleLca { sample_size: 16 },
            ..SirumConfig::default()
        }
    }

    #[test]
    fn sample_table_rate_and_determinism() {
        let t = income_like(5_000, 1);
        let s = sample_table(&t, 0.1, 7);
        assert!(s.num_rows() > 350 && s.num_rows() < 650, "{}", s.num_rows());
        let s2 = sample_table(&t, 0.1, 7);
        assert_eq!(s.num_rows(), s2.num_rows());
        assert_eq!(s.measures(), s2.measures());
        // Full-rate sampling keeps everything.
        assert_eq!(sample_table(&t, 1.0, 7).num_rows(), 5_000);
    }

    #[test]
    fn sampled_mining_retains_most_information_gain() {
        let t = income_like(8_000, 11);
        let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
        let full =
            try_mine_on_sample(&Miner::new(engine.clone(), quick_config(4)), &t, 1.0).unwrap();
        let sampled = try_mine_on_sample(&Miner::new(engine, quick_config(4)), &t, 0.25).unwrap();
        assert!(full.eval.information_gain > 0.0);
        assert!(sampled.rows_used < 3_000);
        // §5.7.3: the drop in information gain from sampling is small.
        assert!(
            sampled.eval.information_gain > 0.3 * full.eval.information_gain,
            "sampled {} vs full {}",
            sampled.eval.information_gain,
            full.eval.information_gain
        );
    }

    #[test]
    fn zero_rate_is_an_empty_dataset() {
        let t = income_like(100, 1);
        let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
        let err = try_mine_on_sample(&Miner::new(engine, quick_config(2)), &t, 0.0).unwrap_err();
        assert!(matches!(err, SirumError::EmptyDataset), "{err}");
    }
}
