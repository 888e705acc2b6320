//! A brute-force oracle for the greedy loop that shares no code with the
//! miner: on tables small enough to enumerate, every cube rule is scored
//! by a per-row match loop, Eq 2.2 and a textbook iterative-scaling refit
//! written out here, and §4.4's multi-rule selection is written out too.
//! Every Table 4.2 variant, both full-cube paths, raw and compressed
//! frames and one or two workers must pick the same rules each iteration
//! — as must the default miner through every sink of the sweep's combine
//! scan, whose sweeps after the first count the RCT's largest group
//! instead of scanning it.
//!
//! Nothing below calls into `sirum` except to build the [`Table`] and its
//! [`PreparedTable`], configure and run the [`Miner`], read its result,
//! its iteration events and its engine's stage records, and ask
//! `CombineStrategy::for_partition` which sink a configuration's
//! partitions take.

use sirum::core::CombineStrategy;
use sirum::prelude::*;
use sirum::table::Compression;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A cube rule: per dimension a constant or `None` for the wildcard.
type CubeRule = Vec<Option<u32>>;

/// `rows × cards.len()` dimension codes and a positive measure column,
/// from a 64-bit LCG (Knuth's MMIX constants).
struct SmallTable {
    cards: Vec<u32>,
    rows: Vec<Vec<u32>>,
    m: Vec<f64>,
}

/// `t ⊨ r`: the row has the rule's constant wherever it has one.
fn covers(rule: &CubeRule, row: &[u32]) -> bool {
    rule.iter().zip(row).all(|(c, v)| c.is_none_or(|c| c == *v))
}

/// No row can satisfy both: some dimension holds a different constant in
/// each.
fn disjoint(a: &CubeRule, b: &CubeRule) -> bool {
    a.iter()
        .zip(b)
        .any(|pair| matches!(pair, (Some(x), Some(y)) if x != y))
}

fn small_table(seed: u64, rows: usize, cards: &[u32]) -> SmallTable {
    let mut state = seed;
    let mut next = move |n: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % n as u64) as u32
    };
    let mut out = SmallTable {
        cards: cards.to_vec(),
        rows: Vec::new(),
        m: Vec::new(),
    };
    for _ in 0..rows {
        let row: Vec<u32> = cards.iter().map(|&card| next(card)).collect();
        // Mass planted on a few attribute values, so that some rules carry
        // clearly more information than others, plus noise; never negative,
        // so the miner's measure transform is the identity.
        let mut m = 1.0 + next(1000) as f64 / 250.0;
        if row[0] == 1 {
            m += 9.0;
        }
        if row[1] == 0 {
            m += 4.0;
        }
        if row.last() == Some(&2) && row[0] != 1 {
            m += 6.5;
        }
        out.rows.push(row);
        out.m.push(m);
    }
    out
}

/// A cube rule scored under some model: `(Eq 2.2 gain, Σm, support)`.
struct Scored {
    gain: f64,
    rule: CubeRule,
    sum_m: f64,
    support: u64,
}

impl SmallTable {
    fn to_table(&self) -> Table {
        let names: Vec<String> = (0..self.cards.len()).map(|j| format!("a{j}")).collect();
        let mut builder = Table::builder(Schema::try_new(names, "m").unwrap());
        for (j, &card) in self.cards.iter().enumerate() {
            for v in 0..card {
                builder.try_intern(j, &format!("v{v}")).unwrap();
            }
        }
        for (row, &m) in self.rows.iter().zip(&self.m) {
            builder.try_push_coded_row(row, m).unwrap();
        }
        builder.build()
    }

    /// Every rule of the cube with non-empty support.
    fn supported_cube(&self) -> Vec<CubeRule> {
        let mut rules: Vec<CubeRule> = vec![Vec::new()];
        for &card in &self.cards {
            let choices = || std::iter::once(None).chain((0..card).map(Some));
            rules = rules
                .iter()
                .flat_map(|prefix| choices().map(move |c| [prefix.as_slice(), &[c]].concat()))
                .collect();
        }
        rules.retain(|rule| self.rows.iter().any(|row| covers(rule, row)));
        rules
    }

    /// `Σ column[t]` over the rows `rule` covers, and how many there are.
    fn sum_over(&self, rule: &CubeRule, column: &[f64]) -> (f64, u64) {
        let mut acc = (0.0, 0);
        for (row, x) in self.rows.iter().zip(column) {
            if covers(rule, row) {
                acc.0 += x;
                acc.1 += 1;
            }
        }
        acc
    }

    /// The maximum-entropy estimates under `model`, by iterative
    /// proportional fitting: cycle through the rules, rescaling each one's
    /// rows so that `Σm̂ = Σm` over them, until a whole cycle rescales
    /// nothing by more than `TIGHT`.
    fn fit(&self, model: &[CubeRule]) -> Vec<f64> {
        let mut mhat = vec![1.0; self.rows.len()];
        for _cycle in 0..1_000_000 {
            let mut worst: f64 = 0.0;
            for rule in model {
                let ratio = self.sum_over(rule, &self.m).0 / self.sum_over(rule, &mhat).0;
                worst = worst.max((ratio - 1.0).abs());
                for (row, mh) in self.rows.iter().zip(&mut mhat) {
                    if covers(rule, row) {
                        *mh *= ratio;
                    }
                }
            }
            if worst <= TIGHT {
                return mhat;
            }
        }
        panic!("iterative scaling did not converge");
    }

    /// Every supported cube rule outside `model`, scored under the fit of
    /// `model`, best gain first.
    fn ranking(&self, cube: &[CubeRule], model: &[CubeRule]) -> Vec<Scored> {
        let mhat = self.fit(model);
        let mut ranked: Vec<Scored> = cube
            .iter()
            .filter(|rule| !model.contains(rule))
            .map(|rule| {
                let (sum_m, support) = self.sum_over(rule, &self.m);
                Scored {
                    gain: gain(sum_m, self.sum_over(rule, &mhat).0),
                    rule: rule.clone(),
                    sum_m,
                    support,
                }
            })
            .collect();
        ranked.sort_by(|a, b| b.gain.total_cmp(&a.gain));
        ranked
    }
}

/// The scaling tolerance on both sides, far below the 1e-9 the gains are
/// compared at.
const TIGHT: f64 = 1e-13;

/// Eq 2.2: `Σm · ln(Σm / Σm̂)` over a rule's support.
fn gain(sum_m: f64, sum_mhat: f64) -> f64 {
    if sum_m <= 0.0 || sum_mhat <= 0.0 {
        return 0.0;
    }
    sum_m * (sum_m / sum_mhat).ln()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// One iteration's picks under §4.4 with `l` rules per iteration and `n`
/// candidates in all: the top rule by Eq 2.2 gain; then, in gain order
/// within the first `⌈0.01·n⌉` ranks, each further rule with gain > 0 that
/// is disjoint from every rule picked so far, up to `l`. `None` when two
/// gains among the ranks this reads, or at their edge, are near-ties,
/// whose order the miner may break either way.
fn expected_picks(ranked: &[Scored], l: usize, n: usize) -> Option<Vec<&Scored>> {
    let reach = match l {
        1 => 1,
        _ => ((n as f64 * 0.01).ceil() as usize).max(1),
    };
    if ranked
        .windows(2)
        .take(reach)
        .any(|w| close(w[0].gain, w[1].gain))
    {
        return None;
    }
    assert!(ranked[0].gain > 0.0, "every table carries k rules' worth");
    let mut picks = vec![&ranked[0]];
    for cand in ranked.iter().take(reach).skip(1) {
        if picks.len() >= l || cand.gain <= 0.0 {
            break;
        }
        if picks.iter().all(|p| disjoint(&p.rule, &cand.rule)) {
            picks.push(cand);
        }
    }
    Some(picks)
}

/// The three tables: seed, rows, cardinalities, and the `k` mined.
const TABLES: [(u64, usize, &[u32], usize); 3] = [
    (11, 64, &[3, 3, 2, 3], 4),
    (12, 48, &[4, 3, 4], 4),
    (13, 64, &[4, 2, 3, 4], 6),
];

/// A table whose 576 supported rules open the top 1 % to six ranks, where
/// two-rule selection finds a disjoint second rule in two of its four
/// iterations.
const WIDE_TABLE: (u64, usize, &[u32], usize) = (23, 64, &[5, 2, 3, 3, 2], 6);

/// Iterations checked against the brute force, and how many of them
/// inserted two rules.
#[derive(Default)]
struct Tally {
    iterations: usize,
    pairs: usize,
}

/// A table with its supported cube and its rankings, memoised by model:
/// most configurations mine the same prefixes.
struct Oracle {
    small: SmallTable,
    cube: Vec<CubeRule>,
    k: usize,
    rankings: HashMap<Vec<CubeRule>, Vec<Scored>>,
}

impl Oracle {
    fn new((seed, rows, cards, k): (u64, usize, &[u32], usize)) -> Oracle {
        let small = small_table(seed, rows, cards);
        let cube = small.supported_cube();
        Oracle {
            small,
            cube,
            k,
            rankings: HashMap::new(),
        }
    }

    /// Run `miner` on `prepared` and check every iteration it ran against
    /// the brute force, adding those asserted (the rest were near-ties) to
    /// `tally`. The candidate count `N` each iteration's selection read is
    /// pinned to the supported cube's size through the engine's stage
    /// records: the sweep's expand stage emits one record per candidate,
    /// the staged pipeline's adjust+gain stage consumes one.
    fn check(&mut self, miner: Miner, prepared: &PreparedTable, case: &str, tally: &mut Tally) {
        let d = self.small.cards.len();
        let config = miner.config().clone();
        let engine = miner.engine().clone();
        let totals = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&totals);
        let result = miner
            .with_observer(move |event| {
                seen.lock().unwrap().push(event.rules_total);
                IterationDecision::Continue
            })
            .try_mine_prepared(prepared, &[])
            .unwrap();
        assert_eq!(result.rules.len(), self.k + 1, "{case}");
        assert_eq!(result.transform_shift, 0.0, "{case}");
        let totals = totals.lock().unwrap().clone();
        assert_eq!(totals.len(), result.iterations, "{case}");

        let selections: Vec<u64> = engine
            .metrics()
            .stages()
            .iter()
            .filter_map(|stage| match stage.label.as_str() {
                "gain-sweep-expand" => Some(stage.records_out()),
                "adjust+gain" => Some(stage.tasks.iter().map(|t| t.records_in).sum()),
                _ => None,
            })
            .collect();
        assert_eq!(selections.len(), result.iterations, "{case}");

        let mut model: Vec<CubeRule> = vec![vec![None; d]];
        let mut start = 1;
        for (iteration, (&end, &n)) in totals.iter().zip(&selections).enumerate() {
            let at = format!("{case}, iteration {}", iteration + 1);
            assert_eq!(n, self.cube.len() as u64, "{at}: N");
            let mined = &result.rules[start..end];
            let l = config.rules_per_iter.min(self.k + 1 - start);
            // Conditioned on the miner's own prefix, so an iteration
            // skipped for a tie does not derail the ones after it.
            let ranked = self
                .rankings
                .entry(model.clone())
                .or_insert_with(|| self.small.ranking(&self.cube, &model));
            if let Some(picks) = expected_picks(ranked, l, self.cube.len()) {
                assert_eq!(mined.len(), picks.len(), "{at}: rules picked");
                for (got, want) in mined.iter().zip(picks) {
                    assert_eq!(cube_rule(&got.rule, d), want.rule, "{at}");
                    assert_eq!(got.count, want.support, "{at}");
                    assert!(
                        close(got.avg_measure * got.count as f64, want.sum_m),
                        "{at}"
                    );
                    assert!(
                        close(got.gain, want.gain),
                        "{at}: {} vs {}",
                        got.gain,
                        want.gain
                    );
                }
                tally.iterations += 1;
                tally.pairs += usize::from(mined.len() == 2);
            }
            model.extend(mined.iter().map(|r| cube_rule(&r.rule, d)));
            start = end;
        }
    }
}

fn cube_rule(rule: &Rule, d: usize) -> CubeRule {
    (0..d)
        .map(|j| (!rule.is_wildcard(j)).then(|| rule.values()[j]))
        .collect()
}

#[test]
fn the_default_miner_picks_the_brute_force_rule_each_iteration() {
    // Every sink: 16 partitions of 3–4 rows (fewer than 2^d) hash-probe
    // packed codes, one partition of every row takes the slot table, and
    // `packed_codes: false` keys the scan by `Rule`.
    for (partitions, packed_codes) in [(16, true), (1, true), (16, false), (1, false)] {
        let mut tally = Tally::default();
        for (seed, rows, cards, _) in TABLES {
            let mut oracle = Oracle::new((seed, rows, cards, 4));
            let case =
                format!("{partitions} partition(s), packed codes {packed_codes}, seed {seed}");
            // |s| = the whole table: every supported cube rule is a candidate.
            let sink = CombineStrategy::for_partition(rows / partitions, cards.len(), Some(rows));
            let expected = match partitions {
                1 => CombineStrategy::SlotTable,
                _ => CombineStrategy::HashProbe,
            };
            assert_eq!(sink, expected, "{case}");
            let config = SirumConfig {
                k: 4,
                strategy: CandidateStrategy::SampleLca { sample_size: rows },
                scaling: tight(),
                packed_codes,
                ..SirumConfig::default()
            };
            let engine =
                Engine::try_new(EngineConfig::in_memory().with_partitions(partitions)).unwrap();
            let prepared = PreparedTable::try_new(&oracle.small.to_table()).unwrap();
            oracle.check(Miner::new(engine, config), &prepared, &case, &mut tally);
        }
        // One full sweep, then three that count the largest RCT group, on
        // each table. Ties in gain (two rules, one support set) are
        // skipped, not asserted: on these seeds there is none.
        let case = format!("{partitions} partition(s), packed codes {packed_codes}");
        assert_eq!(tally.iterations, 12, "{case}");
    }
}

/// Scaling fitted far below the gain comparison's tolerance.
fn tight() -> ScalingConfig {
    ScalingConfig {
        epsilon: TIGHT,
        max_iterations: 1_000_000,
    }
}

/// Mine every table under `config(k, |s|)` — with `|s|` the whole table,
/// so every supported cube rule is a candidate — on raw and on compressed
/// frames, with one and two workers (16 partitions of 3–4 rows), and check
/// each mine against the brute force.
fn across_frames_and_workers(name: &str, config: impl Fn(usize, usize) -> SirumConfig) -> Tally {
    let mut tally = Tally::default();
    for table in TABLES.into_iter().chain([WIDE_TABLE]) {
        let mut oracle = Oracle::new(table);
        let (seed, rows, _, k) = table;
        let built = oracle.small.to_table();
        for compression in [Compression::Never, Compression::Always] {
            let prepared = PreparedTable::try_new_with(&built, compression).unwrap();
            for workers in [1, 2] {
                let case = format!("{name}, seed {seed}, {compression:?}, {workers} worker(s)");
                let engine =
                    Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
                let config = SirumConfig {
                    scaling: tight(),
                    ..config(k, rows)
                };
                oracle.check(Miner::new(engine, config), &prepared, &case, &mut tally);
            }
        }
    }
    tally
}

/// Checked iterations per mine of the four tables, one rule per iteration:
/// k = 4, 4, 6 and 6, no near-ties.
const SINGLE_RULE_ITERATIONS: usize = 4 + 4 + 6 + 6;

#[test]
fn every_table_4_2_variant_picks_the_brute_force_rules() {
    for variant in Variant::ALL {
        let tally = across_frames_and_workers(variant.name(), |k, s| variant.config(k, s));
        // Four mines per table (two frames × two worker counts).
        let (iterations, pairs) = match variant.config(1, 1).rules_per_iter {
            1 => (4 * SINGLE_RULE_ITERATIONS, 0),
            // Two rules per iteration: seed 13's fifth iteration is a
            // near-tie, and the wide table inserts two pairs in four
            // iterations.
            _ => (4 * (4 + 4 + 5 + 4), 4 * 2),
        };
        assert!(
            tally.iterations >= iterations,
            "{variant}: {} < {iterations}",
            tally.iterations
        );
        assert!(
            tally.pairs >= pairs,
            "{variant}: {} < {pairs} pairs",
            tally.pairs
        );
    }
}

#[test]
fn both_full_cube_paths_pick_the_brute_force_rules() {
    // The sweep's full-cube sink (the default miner) and the staged
    // pipeline's tuple-rule stage (Baseline): no sample at all.
    let full_cube = CandidateStrategy::FullCube;
    let swept = across_frames_and_workers("full cube, swept", |k, _| SirumConfig {
        k,
        strategy: full_cube,
        ..SirumConfig::default()
    });
    let staged = across_frames_and_workers("full cube, staged", |k, s| SirumConfig {
        strategy: full_cube,
        ..Variant::Baseline.config(k, s)
    });
    for (path, tally) in [("swept", swept), ("staged", staged)] {
        let iterations = 4 * SINGLE_RULE_ITERATIONS;
        assert!(
            tally.iterations >= iterations,
            "{path}: {} < {iterations}",
            tally.iterations
        );
    }
}
