//! Cross-crate integration tests through the facade crate: the worked
//! examples of the thesis and whole-pipeline invariants. The miner's rule
//! choices are checked against an independent brute force in
//! `tests/brute_force_oracle.rs`.

use sirum::prelude::*;

#[test]
fn flight_walkthrough_matches_the_thesis() {
    // Tables 1.1/1.2 end to end via the facade crate.
    let flights = generators::flights();
    let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
    let config = SirumConfig {
        k: 3,
        strategy: CandidateStrategy::SampleLca { sample_size: 14 },
        ..SirumConfig::default()
    };
    let result = Miner::new(engine, config).try_mine(&flights).unwrap();
    let names: Vec<String> = result
        .rules
        .iter()
        .map(|r| r.rule.display(&flights))
        .collect();
    assert_eq!(
        names,
        vec!["(*, *, *)", "(*, *, London)", "(Fri, *, *)", "(Sat, *, *)"],
        "Table 1.2 rule set"
    );
    let avgs: Vec<f64> = result.rules.iter().map(|r| r.avg_measure).collect();
    assert!((avgs[0] - 10.4).abs() < 0.05);
    assert!((avgs[1] - 15.25).abs() < 0.05); // paper rounds to 15.3
    assert!((avgs[2] - 18.0).abs() < 1e-9);
    assert!((avgs[3] - 16.0).abs() < 1e-9);
    let counts: Vec<u64> = result.rules.iter().map(|r| r.count).collect();
    assert_eq!(counts, vec![14, 4, 2, 2]);
}

#[test]
fn mined_rules_evaluate_consistently_offline() {
    // The KL the miner reports must agree with the offline evaluator.
    let table = generators::income_like(2_000, 77);
    let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
    let config = SirumConfig {
        k: 4,
        strategy: CandidateStrategy::SampleLca { sample_size: 32 },
        scaling: ScalingConfig {
            epsilon: 1e-6,
            max_iterations: 100_000,
        },
        ..SirumConfig::default()
    };
    let result = Miner::new(engine, config).try_mine(&table).unwrap();
    let rules: Vec<Rule> = result.rules.iter().map(|r| r.rule.clone()).collect();
    let eval = try_evaluate_rules(
        &table,
        &rules,
        &ScalingConfig {
            epsilon: 1e-6,
            max_iterations: 100_000,
        },
    )
    .unwrap();
    assert!(
        (eval.kl - result.final_kl()).abs() < 1e-3,
        "offline {} vs miner {}",
        eval.kl,
        result.final_kl()
    );
    assert!(eval.binary_kl.is_some(), "income measure is binary");
}

#[test]
fn csv_round_trip_preserves_mining_results() {
    let table = generators::gdelt_dirty(1_000, 9);
    let mut buf = Vec::new();
    sirum::table::csv::write_csv(&table, &mut buf).unwrap();
    let reread = sirum::table::csv::read_csv(buf.as_slice()).unwrap();

    let mine = |t: &Table| -> Vec<String> {
        let config = SirumConfig {
            k: 3,
            strategy: CandidateStrategy::SampleLca { sample_size: 16 },
            ..SirumConfig::default()
        };
        Miner::new(Engine::try_new(EngineConfig::in_memory()).unwrap(), config)
            .try_mine(t)
            .unwrap()
            .rules
            .iter()
            .map(|r| r.rule.display(t))
            .collect()
    };
    assert_eq!(mine(&table), mine(&reread));
}

#[test]
fn sweep_records_fewer_stages_and_shuffles_than_the_staged_pipeline() {
    let table = generators::income_like(4_000, 21);
    let engine = Engine::try_new(EngineConfig::in_memory().with_partitions(32)).unwrap();
    let config = SirumConfig {
        k: 3,
        strategy: CandidateStrategy::SampleLca { sample_size: 32 },
        evaluation: Evaluation::Staged(StagedPipeline {
            broadcast_join: true,
            fast_pruning: true,
            column_groups: 2,
        }),
        ..SirumConfig::default()
    };
    let _ = Miner::new(engine.clone(), config).try_mine(&table).unwrap();
    let stages = engine.metrics().stages();
    assert!(stages.len() > 10, "a staged mine spans many stages");
    let sweep_engine = Engine::try_new(EngineConfig::in_memory().with_partitions(32)).unwrap();
    let sweep_config = SirumConfig {
        k: 3,
        strategy: CandidateStrategy::SampleLca { sample_size: 32 },
        ..SirumConfig::default()
    };
    let _ = Miner::new(sweep_engine.clone(), sweep_config)
        .try_mine(&table)
        .unwrap();
    let sweep_stages = sweep_engine.metrics().stages();
    assert!(sweep_stages.len() < stages.len(), "the sweep fuses stages");
    let swept_shuffle: u64 = sweep_stages.iter().map(|s| s.shuffled_records).sum();
    let staged_shuffle: u64 = stages.iter().map(|s| s.shuffled_records).sum();
    assert!(swept_shuffle < staged_shuffle, "the sweep avoids shuffles");
}
