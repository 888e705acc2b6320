//! A brute-force oracle for the greedy loop that shares no code with the
//! miner: on tables small enough to enumerate, every cube rule is scored
//! by a per-row match loop, Eq 2.2 and a textbook iterative-scaling refit
//! written out here, and the default miner — whose sweeps after the first
//! count the RCT's largest group instead of scanning it — must pick the
//! same rule each iteration, through every sink of the sweep's combine
//! scan.
//!
//! Nothing below calls into `sirum` except to build the [`Table`], run the
//! [`Miner`], read its result, and ask `CombineStrategy::for_partition`
//! which sink a configuration's partitions take.

use sirum::core::sweep::CombineStrategy;
use sirum::prelude::*;

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

impl SmallTable {
    fn to_table(&self) -> Table {
        let names: Vec<String> = (0..self.cards.len()).map(|j| format!("a{j}")).collect();
        let mut builder = Table::builder(Schema::new(names, "m"));
        for (j, &card) in self.cards.iter().enumerate() {
            for v in 0..card {
                builder.intern(j, &format!("v{v}"));
            }
        }
        for (row, &m) in self.rows.iter().zip(&self.m) {
            builder.push_coded_row(row, m);
        }
        builder.build()
    }

    /// Every rule of the cube: `∏ (card + 1)` of them.
    fn cube(&self) -> Vec<CubeRule> {
        let mut rules: Vec<CubeRule> = vec![Vec::new()];
        for &card in &self.cards {
            let choices = || std::iter::once(None).chain((0..card).map(Some));
            rules = rules
                .iter()
                .flat_map(|prefix| choices().map(move |c| [prefix.as_slice(), &[c]].concat()))
                .collect();
        }
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

#[test]
fn the_default_miner_picks_the_brute_force_rule_each_iteration() {
    // Every sink: 16 partitions of 3–4 rows (fewer than 2^d) hash-probe
    // packed codes, one partition of every row takes the slot table, and
    // `packed_codes: false` keys the scan by `Rule`.
    for (partitions, packed_codes) in [(16, true), (1, true), (16, false), (1, false)] {
        let case = format!("{partitions} partition(s), packed codes {packed_codes}");
        let asserted = mine_against_brute_force(partitions, packed_codes);
        // Ties in gain (two rules, one support set) are skipped, not
        // asserted: on these seeds there is none.
        assert_eq!(asserted, 12, "{case}");
    }
}

/// Mine the three tables on `partitions` partitions and check every
/// iteration against the brute force; returns how many were asserted.
fn mine_against_brute_force(partitions: usize, packed_codes: bool) -> usize {
    let mut asserted = 0;
    for (seed, rows, cards) in [
        (11, 64, vec![3, 3, 2, 3]),
        (12, 48, vec![4, 3, 4]),
        (13, 64, vec![4, 2, 3, 4]),
    ] {
        let case = format!("{partitions} partition(s), packed codes {packed_codes}, seed {seed}");
        let small = small_table(seed, rows, &cards);
        let d = cards.len();
        // |s| = the whole table: every supported cube rule is a candidate.
        let sink = CombineStrategy::for_partition(rows / partitions, d, Some(rows));
        let expected = match partitions {
            1 => CombineStrategy::SlotTable,
            _ => CombineStrategy::HashProbe,
        };
        assert_eq!(sink, expected, "{case}");
        let config = SirumConfig {
            k: 4,
            strategy: CandidateStrategy::SampleLca { sample_size: rows },
            scaling: ScalingConfig {
                epsilon: TIGHT,
                max_iterations: 1_000_000,
            },
            packed_codes,
            ..SirumConfig::default()
        };
        let engine = Engine::new(EngineConfig::in_memory().with_partitions(partitions));
        let result = Miner::new(engine, config)
            .try_mine(&small.to_table())
            .unwrap();
        // One full sweep, then three that count the largest RCT group.
        assert_eq!((result.iterations, result.rules.len()), (4, 5), "{case}");
        assert_eq!(result.transform_shift, 0.0);

        let cube = small.cube();
        let mut model: Vec<CubeRule> = vec![vec![None; d]];
        for (i, mined) in result.rules.iter().enumerate().skip(1) {
            // Conditioned on the miner's own prefix, so an iteration skipped
            // for a tie does not derail the ones after it.
            let mhat = small.fit(&model);
            let mut scored: Vec<(f64, &CubeRule, f64, u64)> = cube
                .iter()
                .filter(|rule| !model.contains(rule))
                .map(|rule| {
                    let (sum_m, support) = small.sum_over(rule, &small.m);
                    (
                        gain(sum_m, small.sum_over(rule, &mhat).0),
                        rule,
                        sum_m,
                        support,
                    )
                })
                .filter(|scored| scored.3 > 0)
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            let (best, runner_up) = (&scored[0], &scored[1]);
            let picked: CubeRule = (0..d)
                .map(|j| (!mined.rule.is_wildcard(j)).then(|| mined.rule.values()[j]))
                .collect();
            if !close(best.0, runner_up.0) {
                let at = format!("{case}, iteration {i}");
                assert_eq!(&picked, best.1, "{at}");
                assert_eq!(mined.count, best.3, "{at}");
                assert!(
                    close(mined.avg_measure * mined.count as f64, best.2),
                    "{at}"
                );
                assert!(
                    close(mined.gain, best.0),
                    "{at}: {} vs {}",
                    mined.gain,
                    best.0
                );
                asserted += 1;
            }
            model.push(picked);
        }
    }
    asserted
}
