//! Streaming SIRUM (the thesis's §7 future work): incrementally maintain an
//! informative rule set as new data arrives.
//!
//! The maintainer keeps the dataset in compact columnar form together with
//! per-tuple rule-coverage bit arrays, and holds the Rule Coverage Table
//! itself plus one scalar, `Σ m·ln m` over the history, kept up to date
//! row by row and compensated as the batch miner's. With it the RCT scores the model the way it scores every
//! fitted model in the crate (see [`crate::rct`]): one `ln` per group, no
//! pass over the history. Ingesting a batch:
//!
//! 1. computes the new tuples' bit arrays against the current rules and
//!    folds each row straight into its RCT group (no rescan of old data),
//! 2. updates the constraint targets `Σ_{t⊨r} m`, and
//! 3. re-runs RCT iterative scaling in place from the *current*
//!    multipliers — the warm start means a handful of λ updates instead of
//!    a full re-fit.
//!
//! Mining is the [`Miner`]'s job. When the model drifts (KL grows),
//! [`StreamingMiner::mine_more`] runs the batch miner over the accumulated
//! history with the model's rules as prior knowledge (§5.6.2) and adopts
//! each rule it returns: one scan of the history sets the new bit and
//! folds each row into a fresh RCT, then the usual warm refit.

use crate::error::SirumError;
use crate::miner::{CandidateStrategy, Miner, SirumConfig};
use crate::prepared::{CompensatedSum, PreparedTable};
use crate::rct::{mhat_for_mask, Rct, RctGroup};
use crate::rule::Rule;
use crate::scaling::{iterative_scaling, ScalingConfig, ScalingOutcome};
use sirum_dataflow::Engine;
use sirum_table::{Frame, Table};

/// Configuration of the streaming maintainer.
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Size `|s|` of the candidate-pruning sample [`StreamingMiner::mine_more`]
    /// hands the [`Miner`] (§3.1.1).
    pub(crate) sample_size: usize,
    /// Iterative-scaling parameters.
    pub(crate) scaling: ScalingConfig,
    /// Sampling seed.
    pub(crate) seed: u64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            sample_size: 64,
            scaling: ScalingConfig::default(),
            seed: 42,
        }
    }
}

/// Incremental informative-rule maintainer.
///
/// Measures must be nonnegative (the streaming setting cannot retroactively
/// re-shift history; shift the measure upstream if it can go negative).
pub struct StreamingMiner {
    d: usize,
    cfg: StreamingConfig,
    rules: Vec<Rule>,
    lambdas: Vec<f64>,
    m_sums: Vec<f64>,
    // Columnar history (struct-of-arrays, matching the batch miner's
    // Frame layout): one contiguous code column per dimension attribute,
    // plus the measure and bit-array columns.
    cols: Vec<Vec<u32>>,
    measures: Vec<f64>,
    masks: Vec<u64>,
    /// The RCT over the history, scaled in place by every refit.
    rct: Rct,
    /// `Σ m·ln m` over the history (rows with `m > 0`), compensated as
    /// [`PreparedTable`] sums it.
    m_ln_m: CompensatedSum,
}

impl StreamingMiner {
    /// Start a maintainer over `d` dimension attributes. The model begins
    /// with just the all-wildcards rule.
    pub fn new(d: usize, cfg: StreamingConfig) -> Self {
        StreamingMiner {
            d,
            cfg,
            rules: vec![Rule::all_wildcards(d)],
            lambdas: vec![1.0],
            m_sums: vec![0.0],
            cols: (0..d).map(|_| Vec::new()).collect(),
            measures: Vec::new(),
            masks: Vec::new(),
            rct: Rct::default(),
            m_ln_m: CompensatedSum::default(),
        }
    }

    /// Current rule list (all-wildcards first).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Rows ingested so far.
    pub fn len(&self) -> usize {
        self.measures.len()
    }

    /// True before any row arrives.
    pub fn is_empty(&self) -> bool {
        self.measures.is_empty()
    }

    /// Ingest one batch of rows and re-fit the model (warm start).
    /// Returns the scaling outcome of the re-fit. The whole batch is
    /// validated before any row is folded in.
    ///
    /// # Errors
    /// * [`SirumError::InvalidConfig`] — a row's arity is not `d`.
    /// * [`SirumError::InvalidMeasure`] — a measure is negative or not
    ///   finite.
    pub fn ingest(&mut self, rows: &[(&[u32], f64)]) -> Result<ScalingOutcome, SirumError> {
        for (i, &(row, m)) in rows.iter().enumerate() {
            self.check_row(i, row.len(), m)?;
        }
        for &(row, m) in rows {
            self.push_row(row, m);
        }
        Ok(self.refit())
    }

    /// Ingest all rows of a table (dimension dictionaries must be
    /// compatible with previous batches — i.e. produced by the same
    /// encoding pipeline), gathered from its frame one row at a time.
    ///
    /// # Errors
    /// As [`Self::ingest`].
    pub fn ingest_table(&mut self, table: &Table) -> Result<ScalingOutcome, SirumError> {
        let measures = table.measures();
        for (i, &m) in measures.iter().enumerate() {
            self.check_row(i, table.num_dims(), m)?;
        }
        let mut row = Vec::with_capacity(self.d);
        for (i, &m) in measures.iter().enumerate() {
            table.frame().gather_row(i, &mut row);
            self.push_row(&row, m);
        }
        Ok(self.refit())
    }

    /// Reject row `i` of a batch — before any row is applied — when its
    /// arity is not `d` or its measure is negative or not finite.
    fn check_row(&self, i: usize, arity: usize, m: f64) -> Result<(), SirumError> {
        if arity != self.d {
            return Err(SirumError::invalid_config(
                "stream.row",
                format!(
                    "row {i} has {arity} dimensions but the stream has {}",
                    self.d
                ),
            ));
        }
        if !(m.is_finite() && m >= 0.0) {
            return Err(SirumError::InvalidMeasure {
                reason: format!(
                    "row {i}: value {m} must be finite and ≥ 0 (streamed history \
                     cannot be re-shifted; apply a measure transform upstream)"
                ),
            });
        }
        Ok(())
    }

    /// Append one checked row: fold it into its RCT group under the current
    /// rules and λ, and into the columnar history.
    fn push_row(&mut self, row: &[u32], m: f64) {
        let mut mask = 0u64;
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.matches(row) {
                mask |= 1 << i;
                self.m_sums[i] += m;
            }
        }
        self.rct.add([self.group_of_one(mask, m)]);
        if m > 0.0 {
            self.m_ln_m.add(m * m.ln());
        }
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.measures.push(m);
        self.masks.push(mask);
    }

    /// One row as an RCT group, estimated under the current λ.
    fn group_of_one(&self, mask: u64, m: f64) -> RctGroup {
        RctGroup {
            mask,
            count: 1,
            sum_m: m,
            sum_mhat: mhat_for_mask(mask, &self.lambdas),
        }
    }

    /// Re-run RCT scaling in place from the current multipliers. While
    /// the history carries no mass (every measure 0) there is nothing to
    /// fit: scaling toward a zero target would set `λ₀ = 0`, and no later
    /// row could scale it back up. The model then waits, unconverged, for
    /// the first positive measure.
    fn refit(&mut self) -> ScalingOutcome {
        if self.m_sums[0] == 0.0 {
            return ScalingOutcome {
                iterations: 0,
                converged: false,
            };
        }
        iterative_scaling(
            &mut self.rct,
            &self.m_sums,
            &mut self.lambdas,
            &self.cfg.scaling,
            None,
        )
    }

    /// Exact KL divergence of the current model, computed purely from the
    /// RCT and `Σ m·ln m` (tuples in one group share an estimate).
    pub fn kl(&self) -> f64 {
        self.rct.kl(&self.lambdas, self.m_ln_m.value())
    }

    /// Mine up to `k` additional rules over the accumulated history: one
    /// [`Miner`] run on a fork of `engine` with the model's rules as prior
    /// knowledge, exactly [`Miner::try_mine_with_prior`] on the same rows.
    /// Returns the newly adopted rules with their gains at selection time
    /// (none for `k = 0` or an empty history).
    ///
    /// # Errors
    /// As [`Miner::try_mine_prepared`] — notably
    /// [`SirumError::InvalidConfig`] when `k` more rules would exceed the
    /// bit-array capacity or the sample size exceeds the index limit.
    pub fn mine_more(&mut self, engine: &Engine, k: usize) -> Result<Vec<(Rule, f64)>, SirumError> {
        if k == 0 || self.is_empty() {
            return Ok(Vec::new());
        }
        let config = SirumConfig {
            k,
            max_rules: Some(k),
            strategy: CandidateStrategy::SampleLca {
                sample_size: self.cfg.sample_size,
            },
            scaling: self.cfg.scaling,
            seed: self.cfg.seed,
            ..SirumConfig::default()
        };
        let history = Frame::from_columns(self.cols.clone(), self.measures.clone());
        let prepared = PreparedTable::from_frame(history)?;
        let result =
            Miner::new(engine.fork(), config).try_mine_prepared(&prepared, &self.rules[1..])?;
        let added: Vec<(Rule, f64)> = result
            .rules
            .into_iter()
            .skip(self.rules.len())
            .map(|mined| (mined.rule, mined.gain))
            .collect();
        for (rule, _) in &added {
            self.add_rule(rule.clone());
        }
        Ok(added)
    }

    /// Append a rule to the model: update every historical tuple's bit
    /// array, sum the rule's `Σm` and fold the row into a fresh RCT (one
    /// scan — unavoidable, the rule is new), then re-fit with warm
    /// multipliers.
    fn add_rule(&mut self, rule: Rule) {
        let bit = 1u64 << self.rules.len();
        // Columnar coverage test: only the rule's constant columns are read.
        let consts: Vec<(usize, u32)> = rule.constants().collect();
        self.rules.push(rule);
        self.lambdas.push(1.0);
        let mut sum_m = 0.0;
        self.rct = Rct::default();
        for (i, &m) in self.measures.iter().enumerate() {
            if consts.iter().all(|&(j, v)| self.cols[j][i] == v) {
                self.masks[i] |= bit;
                sum_m += m;
            }
            self.rct.add([self.group_of_one(self.masks[i], m)]);
        }
        self.m_sums.push(sum_m);
        self.refit();
    }
}

#[cfg(test)]
impl StreamingMiner {
    /// Current multipliers (aligned with [`Self::rules`]).
    pub(crate) fn lambdas(&self) -> &[f64] {
        &self.lambdas
    }

    /// Per-tuple estimate of historical row `i`.
    pub(crate) fn estimate(&self, i: usize) -> f64 {
        mhat_for_mask(self.masks[i], &self.lambdas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sirum_dataflow::EngineConfig;
    use sirum_table::generators;

    fn tight() -> StreamingConfig {
        StreamingConfig {
            scaling: ScalingConfig {
                epsilon: 1e-8,
                max_iterations: 100_000,
            },
            ..Default::default()
        }
    }

    #[test]
    fn oversized_sample_is_a_typed_error() {
        // Regression (ISSUE 4 assert audit): a pruning sample beyond the
        // sample index's capacity must not reach the assert inside
        // SampleIndex::build; the Miner answers with its typed error, as
        // on POST /mine, and the model is left as it was.
        let t = generators::income_like(600, 11);
        let mut miner = StreamingMiner::new(
            t.num_dims(),
            StreamingConfig {
                sample_size: 10_000,
                ..tight()
            },
        );
        miner.ingest_table(&t).unwrap();
        assert!(matches!(
            miner.mine_more(&Engine::try_new(EngineConfig::in_memory()).unwrap(), 1),
            Err(SirumError::InvalidConfig { field, .. }) if field == "strategy.sample_size"
        ));
        assert_eq!(miner.rules().len(), 1);
    }

    #[test]
    fn mine_more_is_a_miner_run_with_the_model_as_priors() {
        let t = generators::income_like(3_000, 7);
        let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
        let cfg = tight();
        let miner = |k: usize| {
            Miner::new(
                engine.fork(),
                SirumConfig {
                    k,
                    max_rules: Some(k),
                    strategy: CandidateStrategy::SampleLca {
                        sample_size: cfg.sample_size,
                    },
                    scaling: cfg.scaling,
                    seed: cfg.seed,
                    ..SirumConfig::default()
                },
            )
        };
        let bits = |added: &[(Rule, f64)]| -> Vec<(Rule, u64)> {
            added
                .iter()
                .map(|(r, g)| (r.clone(), g.to_bits()))
                .collect()
        };
        let mined_bits = |mined: &[crate::miner::MinedRule]| -> Vec<(Rule, u64)> {
            mined
                .iter()
                .map(|m| (m.rule.clone(), m.gain.to_bits()))
                .collect()
        };
        let mut sm = StreamingMiner::new(t.num_dims(), cfg.clone());
        sm.ingest_table(&t).unwrap();

        // A fresh stream's first call is a plain mine …
        let first = sm.mine_more(&engine, 2).unwrap();
        let batch = miner(2).try_mine(&t).unwrap();
        assert_eq!(first.len(), 2);
        assert_eq!(bits(&first), mined_bits(&batch.rules[1..]));

        // … and the next one a mine with those rules as prior knowledge.
        let priors: Vec<Rule> = first.iter().map(|(r, _)| r.clone()).collect();
        let second = sm.mine_more(&engine, 1).unwrap();
        let batch = miner(1).try_mine_with_prior(&t, &priors).unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(bits(&second), mined_bits(&batch.rules[3..]));
        assert_eq!(sm.rules().len(), 4);
    }

    #[test]
    fn batched_ingest_matches_bulk_ingest() {
        let t = generators::income_like(2_000, 3);
        let mut bulk = StreamingMiner::new(t.num_dims(), tight());
        bulk.ingest_table(&t).unwrap();
        let mut batched = StreamingMiner::new(t.num_dims(), tight());
        let owned: Vec<Vec<u32>> = t.rows().collect();
        for chunk_start in (0..t.num_rows()).step_by(300) {
            let rows: Vec<(&[u32], f64)> = (chunk_start..(chunk_start + 300).min(t.num_rows()))
                .map(|i| (owned[i].as_slice(), t.measure(i)))
                .collect();
            batched.ingest(&rows).unwrap();
        }
        assert_eq!(bulk.len(), batched.len());
        // Same model (single rule → λ is the global average).
        assert!((bulk.lambdas()[0] - batched.lambdas()[0]).abs() < 1e-6);
        assert!((bulk.kl() - batched.kl()).abs() < 1e-6);
    }

    #[test]
    fn row_order_does_not_change_the_model() {
        // Regression (SL007): the group statistics were once a hash map,
        // so the RCT group order scaling saw depended on mask insertion
        // history — reordered rows could converge through a different
        // group ordering and even break mining ties differently. The RCT
        // keeps its groups sorted by mask; only the ulp-level noise of
        // within-group accumulation order may remain.
        let rows: Vec<(Vec<u32>, f64)> = (0..240)
            .map(|i| (vec![i % 4, i % 3, i % 5], f64::from(1 + i % 7)))
            .collect();
        let forward: Vec<(&[u32], f64)> = rows.iter().map(|(r, m)| (r.as_slice(), *m)).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
        let mut a = StreamingMiner::new(3, tight());
        a.ingest(&forward).unwrap();
        a.mine_more(&engine, 2).unwrap();
        let mut b = StreamingMiner::new(3, tight());
        b.ingest(&reversed).unwrap();
        b.mine_more(&engine, 2).unwrap();
        assert_eq!(a.rules(), b.rules());
        for (la, lb) in a.lambdas().iter().zip(b.lambdas()) {
            assert!((la - lb).abs() < 1e-9, "{la} vs {lb}");
        }
        assert!((a.kl() - b.kl()).abs() < 1e-9, "{} vs {}", a.kl(), b.kl());
    }

    #[test]
    fn kl_matches_direct_computation() {
        let t = generators::gdelt_like(800, 5);
        let mut sm = StreamingMiner::new(t.num_dims(), tight());
        sm.ingest_table(&t).unwrap();
        sm.mine_more(&Engine::try_new(EngineConfig::in_memory()).unwrap(), 2)
            .unwrap();
        // Direct KL from per-tuple estimates.
        let mhat: Vec<f64> = (0..t.num_rows()).map(|i| sm.estimate(i)).collect();
        let direct = crate::gain::kl_divergence(t.measures(), &mhat);
        assert!((sm.kl() - direct).abs() < 1e-9, "{} vs {}", sm.kl(), direct);
    }

    #[test]
    fn mine_more_reduces_kl() {
        let t = generators::income_like(2_000, 11);
        let mut sm = StreamingMiner::new(t.num_dims(), tight());
        sm.ingest_table(&t).unwrap();
        let before = sm.kl();
        let added = sm
            .mine_more(&Engine::try_new(EngineConfig::in_memory()).unwrap(), 3)
            .unwrap();
        assert!(!added.is_empty());
        assert!(sm.kl() < before);
        for (_, gain) in &added {
            assert!(*gain > 0.0);
        }
    }

    #[test]
    fn warm_start_refits_cheaply_on_similar_batches() {
        let t = generators::income_like(4_000, 13);
        let mut sm = StreamingMiner::new(t.num_dims(), StreamingConfig::default());
        let half = t.num_rows() / 2;
        let owned: Vec<Vec<u32>> = t.rows().collect();
        let row = |i: usize| (owned[i].as_slice(), t.measure(i));
        let rows: Vec<(&[u32], f64)> = (0..half).map(row).collect();
        sm.ingest(&rows).unwrap();
        sm.mine_more(&Engine::try_new(EngineConfig::in_memory()).unwrap(), 3)
            .unwrap();
        // Second half is statistically identical: the warm re-fit should
        // need very few λ updates.
        let rows2: Vec<(&[u32], f64)> = (half..t.num_rows()).map(row).collect();
        let outcome = sm.ingest(&rows2).unwrap();
        assert!(outcome.converged);
        // Adopting the same rules over the whole table from λ = 1 reaches
        // the same model the warm continuation did.
        let mut cold = StreamingMiner::new(t.num_dims(), StreamingConfig::default());
        cold.ingest_table(&t).unwrap();
        for r in sm.rules().iter().skip(1) {
            cold.add_rule(r.clone());
        }
        assert!(
            (cold.kl() - sm.kl()).abs() < 1e-3,
            "{} vs {}",
            cold.kl(),
            sm.kl()
        );
        assert!(
            outcome.iterations <= 30,
            "warm start took {} iterations",
            outcome.iterations
        );
    }

    #[test]
    fn detects_concept_drift() {
        // First phase: uniform measure. Second phase: a planted pattern.
        let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
        let mut sm = StreamingMiner::new(2, tight());
        let phase1: Vec<(Vec<u32>, f64)> = (0..500u32).map(|i| (vec![i % 4, i % 3], 1.0)).collect();
        let rows1: Vec<(&[u32], f64)> = phase1.iter().map(|(r, m)| (r.as_slice(), *m)).collect();
        sm.ingest(&rows1).unwrap();
        assert!(
            sm.mine_more(&engine, 2).unwrap().is_empty(),
            "uniform data needs no rules"
        );
        let kl_flat = sm.kl();
        assert!(kl_flat < 1e-9);
        // Drift: value 0 of attribute 0 now carries 5× the measure.
        let phase2: Vec<(Vec<u32>, f64)> = (0..500u32)
            .map(|i| {
                let v = i % 4;
                (vec![v, i % 3], if v == 0 { 5.0 } else { 1.0 })
            })
            .collect();
        let rows2: Vec<(&[u32], f64)> = phase2.iter().map(|(r, m)| (r.as_slice(), *m)).collect();
        sm.ingest(&rows2).unwrap();
        assert!(sm.kl() > kl_flat, "drift must raise KL");
        let kl_drifted = sm.kl();
        let added = sm.mine_more(&engine, 1).unwrap();
        assert_eq!(added.len(), 1);
        let rule = &added[0].0;
        assert_eq!(rule.get(0), 0, "must localize the drifted value: {rule:?}");
        // The rule explains a large share of the drift (the remainder is
        // temporal variance within the (0, *) group, which no value-based
        // rule can capture).
        assert!(
            sm.kl() < 0.6 * kl_drifted,
            "rule must reduce drift KL: {} -> {}",
            kl_drifted,
            sm.kl()
        );
    }

    #[test]
    fn rejects_negative_measures() {
        let mut sm = StreamingMiner::new(2, StreamingConfig::default());
        // One bad row refuses the whole batch: nothing is folded in.
        let batch = [(&[0u32, 0][..], 1.0), (&[0u32, 0][..], -1.0)];
        assert!(matches!(
            sm.ingest(&batch),
            Err(SirumError::InvalidMeasure { reason }) if reason.contains("row 1")
        ));
        assert!(matches!(
            sm.ingest(&[(&[0u32][..], 1.0)]),
            Err(SirumError::InvalidConfig { field, .. }) if field == "stream.row"
        ));
        assert!(sm.is_empty());
    }

    #[test]
    fn scripted_stream_is_pinned_bit_for_bit() {
        // A seed table, batches of 1, 7 and 300 rows, two mined rules and
        // one more batch: rules, λ and every estimate keep their bits;
        // `kl()` sums terms that mostly cancel, so a change to its
        // summation order may move it, within 1e-12 relative.
        let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
        let seed = generators::income_like(1_000, 2016);
        let more = generators::income_like(400, 7);
        let owned: Vec<Vec<u32>> = more.rows().collect();
        let batch = |from: usize, to: usize| -> Vec<(&[u32], f64)> {
            (from..to)
                .map(|i| (owned[i].as_slice(), more.measure(i)))
                .collect()
        };
        let mut sm = StreamingMiner::new(seed.num_dims(), tight());
        sm.ingest_table(&seed).unwrap();
        for (from, to) in [(0, 1), (1, 8), (8, 308)] {
            sm.ingest(&batch(from, to)).unwrap();
        }
        assert_eq!(sm.mine_more(&engine, 2).unwrap().len(), 2);
        sm.ingest(&batch(308, 400)).unwrap();

        let mut h = sirum_table::fingerprint::Fnv64::new();
        for rule in sm.rules() {
            rule.values().iter().for_each(|&v| h.write_u32(v));
        }
        sm.lambdas().iter().for_each(|&l| h.write_f64(l));
        (0..sm.len()).for_each(|i| h.write_f64(sm.estimate(i)));
        let got = h.finish();
        assert_eq!(got, 0x2b78_0852_7573_c1c3, "{got:#018x}");
        let pinned_kl = f64::from_bits(0x3ff6_047e_4637_9af8);
        let kl = sm.kl();
        assert!(
            (kl - pinned_kl).abs() <= 1e-12 * pinned_kl.abs(),
            "{kl:e} ({:#018x}) vs {pinned_kl:e}",
            kl.to_bits()
        );
    }

    #[test]
    fn a_massless_prefix_does_not_poison_the_model() {
        // Regression: a first batch of zero measures scaled λ₀ to 0 (a
        // debug-assert panic; NaN multipliers in release once mass came).
        let mut sm = StreamingMiner::new(2, tight());
        let zeros = [(&[0u32, 1][..], 0.0), (&[1u32, 0][..], 0.0)];
        assert!(!sm.ingest(&zeros).unwrap().converged);
        assert_eq!(sm.kl(), 0.0);
        let rows = [(&[0u32, 1][..], 3.0), (&[1u32, 1][..], 1.0)];
        assert!(sm.ingest(&rows).unwrap().converged);
        assert!((sm.lambdas()[0] - 1.0).abs() < 1e-8, "{:?}", sm.lambdas());
        let mhat: Vec<f64> = (0..sm.len()).map(|i| sm.estimate(i)).collect();
        let direct = crate::gain::kl_divergence(&[0.0, 0.0, 3.0, 1.0], &mhat);
        assert!((sm.kl() - direct).abs() < 1e-9, "{} vs {direct}", sm.kl());
    }

    /// Every group of the stream's RCT as `(mask, count, Σm bits)`.
    fn group_bits(rct: &Rct) -> Vec<(u64, u64, u64)> {
        (rct.groups().iter())
            .map(|g| (g.mask, g.count, g.sum_m.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn stream_rct_matches_a_fresh_build_over_its_history(
            (rows, steps) in (1usize..=4).prop_flat_map(|d| (
                prop::collection::vec(
                    (prop::collection::vec(0u32..3, d), prop_oneof![Just(0.0), 0.0f64..10.0]),
                    1..120,
                ),
                prop::collection::vec((1usize..40, any::<bool>()), 1..8),
            ))
        ) {
            // Random batch splits, each batch optionally followed by one
            // mined rule: after every step the RCT the stream folded row by
            // row (and scaled in place) groups its history exactly as
            // `Rct::build` over the history does, and its `Σ m·ln m` equals
            // a fresh preparation's.
            let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
            let d = rows[0].0.len();
            let mut sm = StreamingMiner::new(d, tight());
            let mut at = 0;
            for (len, mine) in steps {
                let batch: Vec<(&[u32], f64)> = (rows[at..(at + len).min(rows.len())].iter())
                    .map(|(r, m)| (r.as_slice(), *m))
                    .collect();
                at = (at + len).min(rows.len());
                sm.ingest(&batch).unwrap();
                let fresh = Rct::build(&sm.masks, &sm.measures, &vec![1.0; sm.len()]);
                prop_assert_eq!(group_bits(&sm.rct), group_bits(&fresh));
                // The data's half of the KL, summed row by row across
                // batches, keeps the bits of the batch miner's sum.
                if sm.m_sums[0] > 0.0 {
                    let history = Frame::from_columns(sm.cols.clone(), sm.measures.clone());
                    let batch_sum = PreparedTable::from_frame(history).unwrap().m_ln_m();
                    prop_assert_eq!(sm.m_ln_m.value().to_bits(), batch_sum.to_bits());
                }
                if mine {
                    sm.mine_more(&engine, 1).unwrap();
                    let fresh = Rct::build(&sm.masks, &sm.measures, &vec![1.0; sm.len()]);
                    prop_assert_eq!(group_bits(&sm.rct), group_bits(&fresh));
                }
            }
        }
    }
}
