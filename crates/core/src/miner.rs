//! The SIRUM miner: the greedy informative-rule loop (Algorithm 2) executed
//! on the dataflow engine, with every optimization of Chapter 4 behind a
//! configuration switch so each variant of Table 4.2 can be instantiated.

use crate::cancel::CancellationToken;
use crate::candidates::{adjust, merge_agg, Agg, SampleIndex, MAX_SAMPLE};
use crate::data::MiningData;
use crate::error::SirumError;
use crate::gain::{
    rule_gain, rule_gain_below, rule_gain_two_sided, rule_gain_two_sided_below, BelowFn, GainFn,
};
use crate::lattice::{check_expandable, column_groups};
use crate::multirule::{rank_limit, select_rules, top_k_by_gain, ScoredCandidate};
use crate::prepared::PreparedTable;
use crate::rct::{mhat_for_mask, Rct, MAX_RULES};
use crate::rule::{Rule, RuleKey, RuleLayout};
use crate::scaling::{iterative_scaling, ScalingBackend, ScalingConfig};
use crate::sweep::{SweepOptions, SweepState};
use sirum_dataflow::{Dataset, Engine};
use sirum_table::Table;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Scored candidates kept per partition for selection: the selection step
/// needs at most the global top 1% (multi-rule rank limit), so shipping
/// every candidate to the driver — millions for wide datasets like SUSY —
/// would only burn memory. The true candidate count still reaches the
/// driver for the rank-limit denominator. Both candidate-evaluation paths
/// (the fused sweep and the staged pipeline) honor the same
/// `TOP_PER_PARTITION × partitions` driver budget.
const TOP_PER_PARTITION: usize = 4096;

/// How candidate rules are generated each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateStrategy {
    /// Sample-based candidate pruning (§3.1.1): candidates are the LCAs of
    /// `s × D` and their ancestors.
    SampleLca {
        /// Sample size `|s|` (paper default 64).
        sample_size: usize,
    },
    /// Exhaustive cube enumeration over the tuples' lattices — every
    /// supported rule is a candidate. Used by the data-cube-exploration
    /// comparator (§5.6.2), which predates sample pruning.
    FullCube,
}

/// How each iteration's candidate frontier is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evaluation {
    /// The fused, partition-parallel gain sweep: one scan over the
    /// partitioned data folds every tuple into per-partition `(Σm, Σm̂)`
    /// accumulators for all live candidates at once, merged with a
    /// deterministic partition-ordered reduction (the default). With [`SirumConfig::rct`], the scans after a mine's first
    /// fold only the tuples whose estimate differs from the RCT's largest
    /// group's and count the rest.
    Sweep,
    /// The staged pipeline that emulates the paper's per-platform jobs
    /// (LCA emit → shuffle → per-column-group ancestor stages → shuffle →
    /// adjust + gain). The Table 4.2 [`crate::Variant`]s other than
    /// Optimized run it, so their relative timings keep modeling the
    /// thesis experiments.
    Staged(StagedPipeline),
}

/// The knobs only the staged pipeline reads ([`Evaluation::Staged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedPipeline {
    /// Use broadcast (map-side) joins for `s ⋈ D` (§3.2). When false the
    /// data set is re-shuffled before the join, as Naive SIRUM does.
    pub broadcast_join: bool,
    /// Use the inverted sample index for LCA computation (§4.2).
    pub fast_pruning: bool,
    /// Number of column groups for multi-stage ancestor generation (§4.3);
    /// 1 = single-stage (emit all ancestors at once).
    pub column_groups: usize,
}

/// Full configuration of a SIRUM run (one row of Table 4.2 plus the
/// evaluation knobs).
#[derive(Debug, Clone)]
pub struct SirumConfig {
    /// Number of rules to mine *in addition to* the all-wildcards rule.
    pub k: usize,
    /// Candidate generation strategy.
    pub strategy: CandidateStrategy,
    /// Iterative-scaling tolerance and iteration cap.
    pub scaling: ScalingConfig,
    /// Use the Rule Coverage Table for iterative scaling (§4.1).
    pub rct: bool,
    /// How candidates are scored: the fused sweep, or the staged pipeline
    /// with the knobs only it reads.
    pub evaluation: Evaluation,
    /// Mutually disjoint rules inserted per iteration (`l` of §4.4; the
    /// paper tests 2 and 3 and recommends 2).
    pub rules_per_iter: usize,
    /// Reset all multipliers to 1 whenever rules are inserted, re-deriving
    /// the model from scratch — the strategy of Sarawagi \[29\] (§5.6.2).
    pub reset_lambdas_on_insert: bool,
    /// Keep mining past `k` rules until the KL divergence drops to this
    /// target (the `l-rule*` mode of §5.5), subject to [`Self::max_rules`].
    pub target_kl: Option<f64>,
    /// Hard cap on mined rules when `target_kl` is set (default `4·k`).
    pub max_rules: Option<usize>,
    /// Score candidates with the symmetrized two-sided gain `|Eq 2.2|`,
    /// which also rewards *over*estimated regions — useful for
    /// data-cleansing style queries hunting for unusually low-measure
    /// subsets. The paper's selection loop uses the one-sided Eq 2.2 gain
    /// (the default, `false`).
    pub two_sided_gain: bool,
    /// Intern rules as dense packed integer codes during candidate
    /// evaluation (default `true`): each dimension gets a bit-field sized
    /// by its dictionary cardinality ([`crate::rule::RuleLayout`]), so the
    /// sweep's accumulators and the staged pipeline's records — both
    /// written over one crate-private rule-key trait — key by a
    /// `u64`/`u128` (integer hash + compare instead of slice hashing, no
    /// allocation per key) and widening a dimension is one OR.
    /// [`RuleLayout::packed_bits`] picks the width, or `Rule` keys when the
    /// summed widths exceed 128 bits. The mining output is
    /// **bit-identical** either way (proptested), so this is not a request
    /// option: `false` exists for tests, which use it to force the live
    /// `Rule`-keyed fallback on tables small enough to mine quickly.
    pub packed_codes: bool,
    /// Seed for sampling and column-group shuffling.
    pub seed: u64,
}

impl Default for SirumConfig {
    /// Optimized SIRUM defaults (the fused sweep with the RCT, one rule
    /// per iteration).
    fn default() -> Self {
        SirumConfig {
            k: 10,
            strategy: CandidateStrategy::SampleLca { sample_size: 64 },
            scaling: ScalingConfig::default(),
            rct: true,
            evaluation: Evaluation::Sweep,
            rules_per_iter: 1,
            reset_lambdas_on_insert: false,
            target_kl: None,
            max_rules: None,
            two_sided_gain: false,
            packed_codes: true,
            seed: 42,
        }
    }
}

impl SirumConfig {
    /// Validate every strategy, evaluation and scaling invariant, naming
    /// the offending field. [`Miner::try_mine`] calls this before
    /// touching the data, so invalid combinations fail at request time
    /// rather than as mid-mine assertions.
    pub fn validate(&self) -> Result<(), SirumError> {
        if let CandidateStrategy::SampleLca { sample_size: 0 } = self.strategy {
            return Err(SirumError::invalid_config(
                "strategy.sample_size",
                "must be ≥ 1 (an empty sample prunes every candidate)",
            ));
        }
        if let Evaluation::Staged(StagedPipeline {
            column_groups: 0, ..
        }) = self.evaluation
        {
            return Err(SirumError::invalid_config(
                "column_groups",
                "must be ≥ 1 (1 = single-stage ancestor generation)",
            ));
        }
        if self.rules_per_iter == 0 {
            return Err(SirumError::invalid_config("rules_per_iter", "must be ≥ 1"));
        }
        if !(self.scaling.epsilon > 0.0 && self.scaling.epsilon.is_finite()) {
            return Err(SirumError::invalid_config(
                "scaling.epsilon",
                format!(
                    "must be a positive finite tolerance, got {}",
                    self.scaling.epsilon
                ),
            ));
        }
        if self.scaling.max_iterations == 0 {
            return Err(SirumError::invalid_config(
                "scaling.max_iterations",
                "must be ≥ 1",
            ));
        }
        if let Some(t) = self.target_kl {
            if !(t >= 0.0 && t.is_finite()) {
                return Err(SirumError::invalid_config(
                    "target_kl",
                    format!("must be a finite KL value ≥ 0, got {t}"),
                ));
            }
        }
        if let Some(m) = self.max_rules {
            if m == 0 {
                return Err(SirumError::invalid_config("max_rules", "must be ≥ 1"));
            }
        }
        Ok(())
    }

    /// The run's rule budget: wildcard + priors + mined rules (`k`, or
    /// `max_rules` when mining to a KL target). Saturating: a budget past
    /// `usize::MAX` must still read as "over the limit", not wrap under it.
    fn rule_budget(&self, priors: usize) -> usize {
        self.mined_cap().saturating_add(priors).saturating_add(1)
    }

    /// The most rules a run mining to a KL target may add: `max_rules`
    /// (default `4k`), never below `k`. Saturating, as [`Self::rule_budget`].
    fn mined_cap(&self) -> usize {
        self.max_rules
            .unwrap_or(self.k.saturating_mul(4))
            .max(self.k)
    }
}

/// A progress snapshot delivered to the [`Miner`]'s observer after each
/// rule-generation iteration (see [`Miner::with_observer`]).
#[derive(Debug, Clone, Copy)]
pub struct IterationEvent {
    /// 1-based index of the iteration that just completed.
    pub iteration: usize,
    /// Rules mined so far, beyond the all-wildcards rule and any priors.
    pub rules_mined: usize,
    /// Total rules in the model (wildcard + priors + mined).
    pub rules_total: usize,
    /// KL divergence after this iteration's scaling pass.
    pub kl: f64,
    /// Wall-clock seconds since the run started.
    pub elapsed_secs: f64,
}

/// What an observer wants the miner to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationDecision {
    /// Keep mining.
    Continue,
    /// Stop after this iteration and return the rules mined so far; the
    /// result is marked [`MiningResult::cancelled`].
    Stop,
}

/// Observer callback type: called after every mining iteration.
pub type IterationObserver = dyn Fn(&IterationEvent) -> IterationDecision + Send + Sync;

/// One mined rule with its reporting aggregates (a row of Table 1.2).
#[derive(Debug, Clone)]
pub struct MinedRule {
    /// The rule.
    pub rule: Rule,
    /// `AVG(m)` over the rule's support set, in the *original* measure scale.
    pub avg_measure: f64,
    /// `COUNT(*)` — support-set size.
    pub count: u64,
    /// Information gain at selection time (0 for the seed rules).
    pub gain: f64,
}

/// Wall-clock breakdown of a mining run by pipeline step (the quantities
/// profiled in Figs 3.1 and 3.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Candidate pruning: computing `LCA(s, D)` (or the tuple-rule stage).
    /// Zero when the fused gain sweep is active.
    pub candidate_pruning: f64,
    /// Ancestor generation along the cube lattice. Zero when the fused
    /// gain sweep is active.
    pub ancestor_generation: f64,
    /// Gain computation, sample adjustment and selection (selection only
    /// when the fused gain sweep is active).
    pub gain_computation: f64,
    /// The fused gain sweep, which performs pruning, ancestor generation,
    /// aggregate computation and gain scoring in one pass; zero on the
    /// staged path.
    pub gain_sweep: f64,
    /// Iterative scaling, including the `update-ba` pass (bits and RCT) and write-out.
    pub iterative_scaling: f64,
    /// Whole run.
    pub total: f64,
}

impl PhaseTimings {
    /// Total rule-generation time (the paper's "Rule Generation" bar).
    pub fn rule_generation(&self) -> f64 {
        self.candidate_pruning + self.ancestor_generation + self.gain_computation + self.gain_sweep
    }
}

/// Everything a mining run produces.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// Mined rules in insertion order, beginning with `(*, …, *)` (and any
    /// prior-knowledge rules that seeded the run).
    pub rules: Vec<MinedRule>,
    /// KL divergence after the seed rules and after every mining iteration.
    pub kl_trace: Vec<f64>,
    /// Wall-clock phase breakdown.
    pub timings: PhaseTimings,
    /// Iterative-scaling λ-update counts, one entry per scaling run.
    pub scaling_iterations: Vec<usize>,
    /// Total candidate-rule key-value pairs emitted by ancestor-generation
    /// mappers (the quantity of Fig 5.8) — under the fused sweep, what
    /// single-stage generation *would* emit: `Σ 2^w` over each sweep's
    /// distinct LCAs.
    pub ancestors_emitted: u64,
    /// Number of rule-generation iterations executed.
    pub iterations: usize,
    /// Measure-transform shift applied before mining.
    pub transform_shift: f64,
    /// True when an [`IterationObserver`] stopped the run early; the rules
    /// mined up to that point are still returned.
    pub cancelled: bool,
}

impl MiningResult {
    /// Final KL divergence of the rule set (the seed KL is always present).
    pub fn final_kl(&self) -> f64 {
        self.kl_trace.last().copied().unwrap_or(f64::NAN)
    }

    /// Information gain as defined in §5.1: KL with only the all-wildcards
    /// rule minus KL with the full rule set.
    pub fn information_gain(&self) -> f64 {
        self.kl_trace[0] - self.final_kl()
    }

    /// Render the rule list like Table 1.2.
    pub fn render(&self, table: &Table) -> String {
        let mut out = String::new();
        out.push_str("Rule ID | Rule | AVG(m) | count\n");
        for (i, r) in self.rules.iter().enumerate() {
            out.push_str(&format!(
                "{} | {} | {:.4} | {}\n",
                i + 1,
                r.rule.display(table),
                r.avg_measure,
                r.count
            ));
        }
        out
    }
}

/// The SIRUM mining driver, bound to a dataflow engine.
pub struct Miner {
    engine: Engine,
    config: SirumConfig,
    observer: Option<Box<IterationObserver>>,
    cancellation: Option<CancellationToken>,
}

impl Miner {
    /// Create a miner.
    pub fn new(engine: Engine, config: SirumConfig) -> Self {
        Miner {
            engine,
            config,
            observer: None,
            cancellation: None,
        }
    }

    /// Attach a progress observer, called after every mining iteration with
    /// an [`IterationEvent`]. Returning [`IterationDecision::Stop`] cancels
    /// the run gracefully: the rules mined so far are returned and the
    /// result is marked [`MiningResult::cancelled`].
    pub fn with_observer(
        mut self,
        observer: impl Fn(&IterationEvent) -> IterationDecision + Send + Sync + 'static,
    ) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Attach a [`CancellationToken`]: the miner polls it at every
    /// iteration boundary and stops gracefully once it is cancelled,
    /// returning the rules mined so far with [`MiningResult::cancelled`]
    /// set. This is the thread-safe complement of an observer returning
    /// [`IterationDecision::Stop`] — any thread holding a clone of the
    /// token can cancel the run.
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.cancellation = Some(token);
        self
    }

    /// The miner's configuration.
    pub fn config(&self) -> &SirumConfig {
        &self.config
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mine `k` informative rules from `table` (Algorithm 2), validating
    /// the configuration and dataset first.
    pub fn try_mine(&self, table: &Table) -> Result<MiningResult, SirumError> {
        self.try_mine_with_prior(table, &[])
    }

    /// Mine with prior-knowledge rules already in the model (the data-cube
    /// exploration setting of §5.6.2 / Table 1.3): the seed rule set is
    /// `{(*,…,*)} ∪ prior`, and `k` additional rules are mined.
    ///
    /// # Errors
    /// * [`SirumError::EmptyDataset`] — `table` has no rows.
    /// * [`SirumError::InvalidConfig`] — a configuration invariant fails
    ///   (see [`SirumConfig::validate`]) or the rule budget exceeds the
    ///   bit-array capacity.
    /// * [`SirumError::InvalidMeasure`] — non-finite measure values.
    /// * [`SirumError::Dataflow`] — the engine hit a spill-I/O failure
    ///   mid-run.
    pub fn try_mine_with_prior(
        &self,
        table: &Table,
        prior: &[Rule],
    ) -> Result<MiningResult, SirumError> {
        // Config is validated before the data so error precedence matches
        // the pre-`PreparedTable` behavior (config errors win).
        self.config.validate()?;
        let prepared = PreparedTable::try_new(table)?;
        self.try_mine_prepared(&prepared, prior)
    }

    /// Mine from a [`PreparedTable`] — the same run as
    /// [`Self::try_mine_with_prior`], minus the per-request validation,
    /// measure-transform fit and row re-encoding, which the caller paid
    /// once at preparation time. This is the hot path of the service
    /// layer's shared catalog: repeated requests against one registered
    /// table reuse its preparation.
    ///
    /// # Errors
    /// As [`Self::try_mine_with_prior`], except the data errors
    /// ([`SirumError::EmptyDataset`], [`SirumError::InvalidMeasure`]) were
    /// already surfaced by [`PreparedTable::try_new`].
    pub fn try_mine_prepared(
        &self,
        prepared: &PreparedTable,
        prior: &[Rule],
    ) -> Result<MiningResult, SirumError> {
        let run_start = Instant::now();
        let cfg = &self.config;
        cfg.validate()?;
        let d = prepared.num_dims();
        let n = prepared.num_rows();
        let rule_budget = cfg.rule_budget(prior.len());
        if rule_budget > MAX_RULES {
            return Err(SirumError::invalid_config(
                "k/max_rules",
                format!(
                    "rule budget {rule_budget} (1 + {} priors + mined rules) exceeds \
                     the {MAX_RULES}-rule bit-array limit",
                    prior.len()
                ),
            ));
        }
        if let Some(bad) = prior.iter().find(|r| r.arity() != d) {
            return Err(SirumError::invalid_config(
                "prior",
                format!(
                    "prior rule has {} dimensions but the table has {d}",
                    bad.arity()
                ),
            ));
        }
        // Any candidate pass ultimately materializes the full lattice of
        // every LCA: a sample tuple always pairs with itself, so a
        // d-constant LCA — and hence 2^d candidates — is guaranteed under
        // sample pruning (and FullCube expands each tuple's own 2^d).
        // Column grouping only stages that emission; it does not shrink
        // the candidate set. Past MAX_EXPAND_BITS the run is unaffordable
        // on either evaluation path, so reject up front instead of
        // asserting (sweep) or grinding unboundedly (staged).
        check_expandable(d)?;
        // The inverted sample index is a fixed-width bitset over sample
        // rows; an effective sample beyond its capacity would panic inside
        // the build. (The sample is clamped to the row count, so only the
        // post-clamp size matters.)
        if let CandidateStrategy::SampleLca { sample_size } = cfg.strategy {
            if sample_size.min(n) > MAX_SAMPLE {
                return Err(SirumError::invalid_config(
                    "strategy.sample_size",
                    format!(
                        "effective sample size {} exceeds the {MAX_SAMPLE}-row \
                         index limit",
                        sample_size.min(n)
                    ),
                ));
            }
        }

        let transform = prepared.transform();
        let mut timings = PhaseTimings::default();
        let mut scaling_iterations = Vec::new();
        let mut ancestors_emitted = 0u64;

        // Packed-code layout for candidate evaluation (sweep or staged),
        // derived once from the dictionary cardinalities the prepared frame
        // carries. Oversized layouts (> 128 bits) fall back to Rule keys
        // inside either dispatch, so this is always safe to hand over.
        let layout = cfg
            .packed_codes
            .then(|| RuleLayout::from_cardinalities(prepared.frame().cards()));
        let sweep_opts = layout
            .clone()
            .map_or_else(SweepOptions::rule_keyed, SweepOptions::packed);

        // Distribute D — one columnar block per partition over the
        // prepared table's shared columns — and cache it.
        let mut data = MiningData::seed(&self.engine, prepared);
        data.cache();

        // Seed rule set: all-wildcards first (required by §2.2), then priors.
        let mut rules: Vec<Rule> = Vec::with_capacity(rule_budget);
        rules.push(Rule::all_wildcards(d));
        rules.extend(prior.iter().cloned());
        let mut lambdas = vec![1.0f64; rules.len()];
        let mut m_sums = Vec::with_capacity(rule_budget);
        // Fit the seed model. The first sweep scans every row, whatever the
        // seed fit shares.
        let (fit, _, counts) = self.run_scaling(
            &mut data,
            &rules,
            &mut m_sums,
            &mut lambdas,
            0..rules.len(),
            &mut timings,
            &mut scaling_iterations,
        );
        let mut mined: Vec<MinedRule> = rules
            .iter()
            .zip(m_sums.iter().zip(&counts))
            .map(|(rule, (&sum, &count))| MinedRule {
                rule: rule.clone(),
                avg_measure: transform.invert_avg(sum / count.max(1) as f64),
                count,
                gain: 0.0,
            })
            .collect();
        let mut kl_trace = vec![fit.kl(&lambdas, prepared.m_ln_m())];
        if let Err(e) = self.engine.health() {
            data.free();
            return Err(e.into());
        }

        // Draw the candidate-pruning sample once (§3.1.1), from the
        // prepared frame `D` was seeded from, and build its inverted index
        // (§4.2); every task borrows it, and it is also what adjusts
        // aggregates.
        let index = match cfg.strategy {
            CandidateStrategy::SampleLca { sample_size } => {
                let view = prepared.frame().view();
                let picks = sirum_dataflow::sample_row_indices(view.len(), sample_size, cfg.seed);
                let rows = picks.into_iter().map(|i| view.gather_row_boxed(i));
                Some(SampleIndex::build(rows.collect(), d))
            }
            CandidateStrategy::FullCube => None,
        };

        // The sweep's per-mine state: the first iteration builds what
        // stage 2 reuses in the rest. Dropped on return, never cached.
        let mut sweep = SweepState::new(d, index.as_ref(), &sweep_opts);

        // Greedy loop (Algorithm 2).
        let mut iterations = 0usize;
        let mut cancelled = false;
        loop {
            // Cooperative cancellation: polled at every iteration boundary,
            // before the next candidate-generation pass is launched.
            if self
                .cancellation
                .as_ref()
                .is_some_and(CancellationToken::is_cancelled)
            {
                cancelled = true;
                break;
            }
            let mined_so_far = rules.len() - 1 - prior.len();
            let done_k = mined_so_far >= cfg.k;
            let done = match cfg.target_kl {
                None => done_k,
                Some(target) => {
                    (done_k && kl_trace.last().copied().unwrap_or(f64::MAX) <= target)
                        || mined_so_far >= cfg.mined_cap()
                }
            };
            if done {
                break;
            }

            let remaining = match cfg.target_kl {
                None => cfg.k - mined_so_far,
                Some(_) => cfg.mined_cap() - mined_so_far,
            };
            let mut frontier = match &cfg.evaluation {
                Evaluation::Sweep => self.sweep_candidates(&data, &rules, &mut sweep, &mut timings),
                Evaluation::Staged(pipeline) => self.staged_candidates(
                    pipeline,
                    layout.as_ref(),
                    &data,
                    index.as_ref(),
                    &rules,
                    &mut timings,
                ),
            };
            ancestors_emitted += frontier.emitted;
            if frontier.cancelled {
                // The cancellation token flipped mid-sweep (polled at
                // partition boundaries), or a failed spill read left a
                // partition empty and the sweep built no plan: abandon the
                // iteration without selecting from partial aggregates, and
                // end with the store's error if it holds one.
                if let Err(e) = self.engine.health() {
                    data.free();
                    return Err(e.into());
                }
                cancelled = true;
                break;
            }
            let l = cfg.rules_per_iter.min(remaining).max(1);
            let t_sel = Instant::now();
            let picked = select_rules(&mut frontier.scored, l, frontier.total as usize);
            timings.gain_computation += t_sel.elapsed().as_secs_f64();
            if picked.is_empty() {
                break; // estimates already explain D: no positive-gain rule
            }

            let first_new = rules.len();
            for c in &picked {
                rules.push(c.rule.clone());
                lambdas.push(1.0);
                m_sums.push(c.sum_m);
                mined.push(MinedRule {
                    rule: c.rule.clone(),
                    avg_measure: transform.invert_avg(c.sum_m / c.count.max(1) as f64),
                    count: c.count,
                    gain: c.gain,
                });
            }
            let (fit, shared, counts) = self.run_scaling(
                &mut data,
                &rules,
                &mut m_sums,
                &mut lambdas,
                first_new..rules.len(),
                &mut timings,
                &mut scaling_iterations,
            );
            sweep.set_shared_estimate(shared);
            kl_trace.push(fit.kl(&lambdas, prepared.m_ln_m()));
            iterations += 1;
            if let Err(e) = self.engine.health() {
                data.free();
                return Err(e.into());
            }
            debug_assert!(picked.iter().map(|c| c.count).eq(counts.iter().copied()));
            if let Some(observer) = &self.observer {
                let event = IterationEvent {
                    iteration: iterations,
                    rules_mined: rules.len() - 1 - prior.len(),
                    rules_total: rules.len(),
                    kl: kl_trace.last().copied().unwrap_or(f64::NAN),
                    elapsed_secs: run_start.elapsed().as_secs_f64(),
                };
                if observer(&event) == IterationDecision::Stop {
                    cancelled = true;
                    break;
                }
            }
        }

        data.free();
        timings.total = run_start.elapsed().as_secs_f64();
        Ok(MiningResult {
            rules: mined,
            kl_trace,
            timings,
            scaling_iterations,
            ancestors_emitted,
            iterations,
            transform_shift: transform.shift(),
            cancelled,
        })
    }

    /// Free the generation in `data` that `new` replaces, then cache `new`
    /// in its place (a no-op under DiskMr, whose stage outputs are already
    /// disk-materialized).
    ///
    /// Freeing first is what keeps one generation in the block store at a
    /// time: caching first would make the budget evict blocks of the old
    /// generation, already read and about to be freed, to disk. It is safe
    /// only because every producer of `new` — `update_ba`, `write_mhat`,
    /// `scale_mhat` and `reset_mhat` — is an eager map: by the time it
    /// returns, every partition of `new` is built (in memory, or
    /// `put_disk`'d under DiskMr) and nothing reads the old generation
    /// again. A lazy producer would have to cache before this free.
    fn cache_swap(&self, data: &mut MiningData, new: MiningData) {
        std::mem::replace(data, new).free();
        data.cache();
    }

    /// Run iterative scaling after appending rules `new` to the model,
    /// leaving updated estimates and bit arrays in `data`. The `update-ba`
    /// pass appends the targets `m_sums` lacks (the seed's; a mined rule
    /// brings its sweep's `Σm′`) and groups the RCT, which tracks the fit
    /// and scores it (`Rct::kl`). Returns that RCT, the new rules' supports
    /// and, on the RCT path, the estimate of the RCT's largest group (first
    /// by mask among equals), as [`mhat_for_mask`] wrote it, for the next
    /// sweeps to count instead of scan ([`SweepState::set_shared_estimate`]).
    ///
    /// A cancellation token stops the fit between two λ updates; the next
    /// boundary poll of the mining loop then ends the run.
    #[expect(
        clippy::too_many_arguments,
        reason = "the mining loop's own state, borrowed piecewise; a struct would exist for this one call"
    )]
    fn run_scaling(
        &self,
        data: &mut MiningData,
        rules: &[Rule],
        m_sums: &mut Vec<f64>,
        lambdas: &mut [f64],
        new: std::ops::Range<usize>,
        timings: &mut PhaseTimings,
        scaling_iterations: &mut Vec<usize>,
    ) -> (Rct, Option<f64>, Vec<u64>) {
        let start = Instant::now();
        let cfg = &self.config;
        let cancel = self.cancellation.as_ref();

        if cfg.reset_lambdas_on_insert {
            // Sarawagi [29]: re-derive the whole model from scratch.
            lambdas.iter_mut().for_each(|l| *l = 1.0);
            let reset = data.reset_mhat();
            self.cache_swap(data, reset);
        }

        // Pass 1 (both scaling paths): update bit arrays for the newly
        // added rules and group the rows by them. Algorithm 1 reads them
        // as precomputed rule coverage — `scaling_sums` walks each row's
        // set bits and `scale_mhat` tests one bit instead of re-matching
        // rules against dimension codes on every pass. The rule budget is
        // capped at the bit-array width for every run (see
        // `try_mine_prepared`), so indices always fit the mask word.
        let new_rules: Vec<(usize, Rule)> = new.clone().map(|i| (i, rules[i].clone())).collect();
        let (updated, mut cover) = data.update_ba(new_rules);
        self.cache_swap(data, updated);
        m_sums.extend_from_slice(&cover.sums[m_sums.len() - new.start..]);

        let outcome = if cfg.rct {
            // Scaling runs entirely on the RCT (small, driver-resident).
            let outcome = iterative_scaling(&mut cover.rct, m_sums, lambdas, &cfg.scaling, cancel);

            // Pass 2: write the converged estimates back to D.
            let written = data.write_mhat(lambdas.to_vec());
            self.cache_swap(data, written);
            outcome
        } else {
            // Algorithm 1 against the distributed dataset: every λ update
            // pays one sums pass and one update pass over D.
            let mut backend = DataScaling {
                miner: self,
                data,
                rct: &mut cover.rct,
            };
            iterative_scaling(&mut backend, m_sums, lambdas, &cfg.scaling, cancel)
        };
        scaling_iterations.push(outcome.iterations);
        timings.iterative_scaling += start.elapsed().as_secs_f64();

        // `max_by_key` keeps the last of equal maxima: walk the mask-sorted
        // groups backwards for the first. Naive sweeps stay full scans.
        let largest = cover.rct.groups().iter().rev().max_by_key(|g| g.count);
        let shared = largest
            .filter(|_| cfg.rct)
            .map(|g| mhat_for_mask(g.mask, lambdas));
        (cover.rct, shared, cover.counts)
    }

    /// Candidate generation for one iteration on the default path: one
    /// fused gain sweep ([`crate::sweep`]) whose slots are read once for
    /// the best candidates by gain ([`top_k_by_gain`]), of which only those
    /// selection can reach become rules.
    fn sweep_candidates(
        &self,
        data: &MiningData,
        rules: &[Rule],
        sweep: &mut SweepState<'_>,
        timings: &mut PhaseTimings,
    ) -> Frontier {
        let (gain, below) = self.gain_fn();
        let t0 = Instant::now();
        // Same driver-memory guard as the staged path's per-partition
        // truncation, and selection only ever reads the top rank-limit
        // candidates: only that prefix of the (gain descending, canonical
        // rank ascending) order becomes rules. Existing rules drop out
        // after ranking, so rank that many more.
        let keep = TOP_PER_PARTITION * data.num_partitions().max(1);
        let reach = |distinct: usize| keep.min(rank_limit(distinct));
        let out = data.sweep(sweep, self.cancellation.as_ref(), |sums| {
            top_k_by_gain(sums.iter(), reach(sums.len()) + rules.len(), gain, below)
        });
        let existing: HashSet<&Rule> = rules.iter().collect();
        let scored: Vec<ScoredCandidate> = out
            .candidates
            .into_iter()
            .filter(|(rule, ..)| !existing.contains(rule))
            .take(reach(out.distinct_candidates as usize))
            .map(|(rule, sum_m, _, count, gain)| ScoredCandidate {
                rule,
                gain,
                sum_m,
                count,
            })
            .collect();
        timings.gain_sweep += t0.elapsed().as_secs_f64();
        Frontier {
            scored,
            total: out.distinct_candidates,
            emitted: out.pairs_emitted,
            cancelled: out.cancelled,
        }
    }

    /// Candidate generation for one iteration under
    /// [`Evaluation::Staged`]: the staged pipeline ([`Self::staged`]) on
    /// records keyed as the sweep keys its accumulators — packed codes of
    /// the width `layout` fits ([`RuleLayout::packed_bits`]), or `Rule`s.
    /// The staged pipeline is never cancelled mid-pass.
    fn staged_candidates(
        &self,
        pipeline: &StagedPipeline,
        layout: Option<&RuleLayout>,
        data: &MiningData,
        index: Option<&SampleIndex>,
        rules: &[Rule],
        timings: &mut PhaseTimings,
    ) -> Frontier {
        match (layout, layout.and_then(RuleLayout::packed_bits)) {
            (Some(layout), Some(64)) => {
                self.staged::<u64>(pipeline, &layout.masks(), data, index, rules, timings)
            }
            (Some(layout), Some(_)) => {
                self.staged::<u128>(pipeline, &layout.masks(), data, index, rules, timings)
            }
            _ => self.staged::<Rule>(pipeline, &(), data, index, rules, timings),
        }
    }

    /// The staged pipeline on records keyed by `K` — LCA join (or tuple
    /// stage), one ancestor stage per column group, sample adjustment and
    /// gain scoring — emulating the paper's platform jobs. Each reducer
    /// keeps its top [`TOP_PER_PARTITION`] candidates by gain, and only
    /// those become [`Rule`]s.
    fn staged<K: RuleKey>(
        &self,
        pipeline: &StagedPipeline,
        cx: &K::Codec,
        data: &MiningData,
        index: Option<&SampleIndex>,
        rules: &[Rule],
        timings: &mut PhaseTimings,
    ) -> Frontier {
        let (gain_fn, _) = self.gain_fn();
        let partitions = self.engine.config().partitions;

        // ---- Candidate pruning: LCA(s, D) (§3.1.1 / §4.2) ----------------
        let t0 = Instant::now();
        let mut cand: Dataset<(K, Agg)> = data.lca_candidates(cx, partitions, index, pipeline);
        timings.candidate_pruning += t0.elapsed().as_secs_f64();

        // ---- Ancestor generation (§3.1.1 single-stage / §4.3 grouped) ----
        // The counts below are this mine's own: the engine's stage records
        // are shared by every clone of it, so a concurrent mine's stages
        // would land there too.
        let t1 = Instant::now();
        let emitted = AtomicU64::new(0);
        let groups = column_groups(rules[0].arity(), pipeline.column_groups, self.config.seed);
        for (gi, group) in groups.iter().enumerate() {
            let label = format!("ancestors-g{gi}");
            let expanded = cand.map_partitions(&label, |_, items: &[(K, Agg)]| {
                let mut out = Vec::with_capacity(items.len());
                let mut ancestors = Vec::new();
                for (key, agg) in items {
                    key.expand_into(cx, group, &mut ancestors);
                    out.extend(ancestors.drain(..).map(|a| (a, *agg)));
                }
                // Emitted ancestor pairs (Fig 5.8).
                emitted.fetch_add(out.len() as u64, Ordering::Relaxed);
                out
            });
            let label = format!("anc-agg-g{gi}");
            let reduced = expanded.reduce_by_key(&label, partitions, |k| k.route(cx), merge_agg);
            expanded.free();
            cand.free();
            cand = reduced;
        }
        timings.ancestor_generation += t1.elapsed().as_secs_f64();

        // ---- Sample adjustment + gain computation (§3.1.1, Eq 2.2) -------
        let t2 = Instant::now();
        // Candidates entering adjust+gain: the rank-limit denominator.
        let candidate_total = AtomicU64::new(0);
        let scored_ds: Dataset<(Rule, f64, f64, u64)> =
            cand.map_partitions("adjust+gain", |_, items: &[(K, Agg)]| {
                candidate_total.fetch_add(items.len() as u64, Ordering::Relaxed);
                let mut scored: Vec<(K, f64, f64, u64)> = items
                    .iter()
                    .map(|(key, agg)| {
                        let (sm, smh, cnt) = match index {
                            Some(idx) => adjust(*agg, idx.multiplicity(key.constants(cx))),
                            None => *agg,
                        };
                        (key.clone(), gain_fn(sm, smh), sm, cnt)
                    })
                    .collect();
                if scored.len() > TOP_PER_PARTITION {
                    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
                    scored.truncate(TOP_PER_PARTITION);
                }
                (scored.into_iter())
                    .map(|(key, gain, sm, cnt)| (key.into_rule(cx), gain, sm, cnt))
                    .collect()
            });
        let scored = scored_ds.collect();
        scored_ds.free();
        cand.free();
        let existing: HashSet<&Rule> = rules.iter().collect();
        let scored: Vec<ScoredCandidate> = scored
            .into_iter()
            .filter(|(rule, _, _, _)| !existing.contains(rule))
            .map(|(rule, gain, sum_m, count)| ScoredCandidate {
                rule,
                gain,
                sum_m,
                count,
            })
            .collect();
        timings.gain_computation += t2.elapsed().as_secs_f64();
        Frontier {
            scored,
            total: candidate_total.into_inner(),
            emitted: emitted.into_inner(),
            cancelled: false,
        }
    }

    /// The candidate score — Eq 2.2's gain, or its two-sided form — and
    /// its logarithm-free test for a score certainly below a positive
    /// threshold.
    fn gain_fn(&self) -> (GainFn, BelowFn) {
        if self.config.two_sided_gain {
            (rule_gain_two_sided, rule_gain_two_sided_below)
        } else {
            (rule_gain, rule_gain_below)
        }
    }
}

/// One iteration's scored candidate frontier, from either evaluation path.
struct Frontier {
    /// The scored candidates not already in the model.
    scored: Vec<ScoredCandidate>,
    /// The true candidate count: the multi-rule rank-limit denominator.
    total: u64,
    /// Candidate pairs the ancestor generation emitted (Fig 5.8).
    emitted: u64,
    /// Whether a cancellation token stopped the pass mid-sweep.
    cancelled: bool,
}

/// The mining dataset as Algorithm 1's backend: coverage is read from the
/// tuples' bit arrays, and every λ update writes a new generation of `D`
/// and scales the RCT's groups alike, so the RCT scores the fit.
struct DataScaling<'a> {
    miner: &'a Miner,
    data: &'a mut MiningData,
    rct: &'a mut Rct,
}

impl ScalingBackend for DataScaling<'_> {
    fn mhat_sums(&self, out: &mut [f64]) {
        out.copy_from_slice(&self.data.scaling_sums(out.len()));
    }

    fn scale(&mut self, i: usize, factor: f64) {
        let scaled = self.data.scale_mhat(i, factor);
        self.miner.cache_swap(self.data, scaled);
        self.rct.scale(i, factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::TupleBlock;
    use crate::variants::Variant;
    use proptest::prelude::*;
    use sirum_dataflow::{Encode, EngineConfig};
    use sirum_table::Compression;

    /// Everything a mining run produces that must match bit for bit between
    /// two schedules or encodings of the same request: the selected rule
    /// sequence with selection-time gains/averages/counts, the KL trace, the
    /// λ-update counts, the emitted-pair accounting, the iteration count and
    /// the cancellation flag. (Wall-clock timings are excluded by
    /// construction.)
    type ResultBits = (
        Vec<(Vec<u32>, u64, u64, u64)>,
        Vec<u64>,
        Vec<usize>,
        u64,
        usize,
        bool,
    );

    fn result_bits(r: &MiningResult) -> ResultBits {
        // Independent of any second run: adding a rule to the max-entropy
        // model can only lower the divergence, so every mined trace must be
        // non-increasing (up to the scaling tolerance's float noise).
        for w in r.kl_trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9 * w[0].abs().max(1.0),
                "KL rose from {} to {} in {:?}",
                w[0],
                w[1],
                r.kl_trace
            );
        }
        (
            r.rules
                .iter()
                .map(|m| {
                    (
                        m.rule.values().to_vec(),
                        m.gain.to_bits(),
                        m.avg_measure.to_bits(),
                        m.count,
                    )
                })
                .collect(),
            r.kl_trace.iter().map(|k| k.to_bits()).collect(),
            r.scaling_iterations.clone(),
            r.ancestors_emitted,
            r.iterations,
            r.cancelled,
        )
    }

    /// An in-memory engine with a fixed partition/worker shape under `budget`,
    /// spilling below a directory of its own named `dir`.
    fn budget_engine(budget: Option<usize>, partitions: usize, dir: &str) -> Engine {
        let mut config = EngineConfig::in_memory()
            .with_partitions(partitions)
            .with_workers(2)
            .with_spill_dir(std::env::temp_dir().join(format!("{dir}-{}", std::process::id())));
        config.memory_budget = budget;
        Engine::try_new(config).unwrap()
    }

    #[test]
    fn a_budget_that_holds_one_generation_spills_nothing() {
        // A scaling rewrite frees the generation it replaces before it caches
        // the new one, so the block store holds one generation at a time and
        // a budget of 1.5 generations never evicts. Both rewrite paths: the
        // RCT's `update_ba` + `write_mhat` swaps (Optimized) and Algorithm 1's
        // `scale_mhat` swap per λ update (Baseline), on raw and compressed
        // frames — a compressed block is charged its overlapping segments.
        const PARTITIONS: usize = 4;
        let table = sirum_table::generators::income_like(1_500, 29);
        for compression in [Compression::Never, Compression::Always] {
            let prepared = PreparedTable::try_new_with(&table, compression).unwrap();
            let generation: usize = TupleBlock::seed_partitions(
                prepared.frame(),
                &prepared.m_prime_slice(),
                PARTITIONS,
            )
            .iter()
            .map(Encode::size_estimate)
            .sum();
            let budget = generation * 3 / 2;
            for variant in [Variant::Optimized, Variant::Baseline] {
                let mine = |budget: Option<usize>, dir: &str| {
                    let miner = Miner::new(
                        budget_engine(budget, PARTITIONS, dir),
                        variant.config(3, 16),
                    );
                    let result = miner.try_mine_prepared(&prepared, &[]).unwrap();
                    (result, miner)
                };
                let (reference, _) = mine(None, "sirum-one-gen-ref");
                let (budgeted, miner) = mine(Some(budget), "sirum-one-gen");
                let case = format!("{variant:?} {compression:?}");
                assert!(
                    reference.scaling_iterations.iter().sum::<usize>() > 0,
                    "{case}"
                );
                assert_eq!(result_bits(&reference), result_bits(&budgeted), "{case}");
                let store = miner.engine().store();
                let stats = store.memory_stats();
                assert_eq!(stats.evictions, 0, "{case}: {stats:?} under {budget} B");
                assert_eq!(stats.spilled_bytes, 0, "{case}: {stats:?} under {budget} B");
                let peak = store.trace().iter().map(|s| s.resident_bytes).max();
                assert!(
                    peak.is_some_and(|p| p <= budget),
                    "{case}: peak {peak:?} over {budget} B"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn a_randomly_corrupted_spill_file_fails_typed_or_changes_nothing(
            (rows, seed, compressed) in (800usize..2_000, any::<u64>(), any::<bool>()),
            (eighths, iteration) in (1usize..4, 1usize..4),
            (which, how, offset) in (any::<u64>(), 0u8..3, any::<u64>()),
            noise in prop::collection::vec(any::<u8>(), 1..16),
        ) {
            // A random table mined under a budget of 1/8 to 3/8 of one
            // generation, so most blocks live on disk. After a random
            // iteration one random spill file gets one random corruption: a
            // byte flipped, the file cut short, or bytes appended. The mine
            // must end with a dataflow error, or — where the damaged bytes are
            // never read, or are read and still verify — with the unbudgeted
            // result; never with a panic or another rule set.
            const PARTITIONS: usize = 4;
            let table = sirum_table::generators::income_like(rows, seed);
            let compression = if compressed { Compression::Always } else { Compression::Never };
            let prepared = PreparedTable::try_new_with(&table, compression).unwrap();
            let generation: usize =
                TupleBlock::seed_partitions(prepared.frame(), &prepared.m_prime_slice(), PARTITIONS)
                    .iter()
                    .map(Encode::size_estimate)
                    .sum();
            let config = || SirumConfig {
                k: 3,
                strategy: CandidateStrategy::SampleLca { sample_size: 16 },
                ..SirumConfig::default()
            };
            let reference = Miner::new(budget_engine(None, PARTITIONS, "sirum-random-spill-ref"), config())
                .try_mine_prepared(&prepared, &[])
                .unwrap();
            let engine = budget_engine(Some(generation * eighths / 8), PARTITIONS, "sirum-random-spill");
            let root = engine.config().spill_dir.clone();
            let miner = Miner::new(engine, config()).with_observer(move |event| {
                if event.iteration == iteration {
                    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&root)
                        .unwrap()
                        .flat_map(|store| std::fs::read_dir(store.unwrap().path()).unwrap())
                        .map(|file| file.unwrap().path())
                        .collect();
                    files.sort();
                    assert!(!files.is_empty(), "nothing spilled under the budget");
                    let path = &files[(which % files.len() as u64) as usize];
                    let mut bytes = std::fs::read(path).unwrap();
                    let at = (offset % bytes.len().max(1) as u64) as usize;
                    match how {
                        0 if !bytes.is_empty() => bytes[at] ^= noise[0] | 1,
                        1 => bytes.truncate(at),
                        _ => bytes.extend_from_slice(&noise),
                    }
                    std::fs::write(path, bytes).unwrap();
                }
                IterationDecision::Continue
            });
            let result = miner.try_mine_prepared(&prepared, &[]);
            match result {
                Err(SirumError::Dataflow(_)) => {}
                Ok(budgeted) => prop_assert_eq!(result_bits(&budgeted), result_bits(&reference)),
                Err(other) => panic!("expected a dataflow error, got {other:?}"),
            }
        }
    }
}
