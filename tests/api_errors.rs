//! Integration coverage for the fallible API: every [`SirumError`] variant
//! is exercised end to end through `SirumService` / `ServiceBuilder` /
//! `ServiceRequest` (plus the layer entry points that produce the wrapped
//! variants), and the direct `Miner` facade is pinned to its fallible-only
//! surface.

use sirum::prelude::*;

fn empty_table() -> Table {
    Table::builder(Schema::try_new(vec!["a", "b"], "m").unwrap()).build()
}

fn service_with_flights() -> SirumService {
    let service = SirumService::in_memory().unwrap();
    service.register_demo("flights").unwrap();
    service
}

// ---- SirumError::EmptyDataset --------------------------------------------

#[test]
fn registering_an_empty_table_is_rejected() {
    let service = SirumService::in_memory().unwrap();
    let err = service.register("empty", empty_table()).unwrap_err();
    assert!(matches!(err, SirumError::EmptyDataset), "{err}");
    assert!(err.to_string().contains("empty dataset"));
}

#[test]
fn mining_an_empty_table_is_a_typed_error_not_a_panic() {
    // Direct core path: the old `assert!(n > 0, "empty dataset")`.
    let miner = Miner::new(
        Engine::try_new(EngineConfig::in_memory()).unwrap(),
        SirumConfig::default(),
    );
    let err = miner.try_mine(&empty_table()).unwrap_err();
    assert!(matches!(err, SirumError::EmptyDataset));
}

#[test]
fn empty_sample_rate_is_a_typed_error() {
    let service = service_with_flights();
    let err = service.mine("flights").k(2).run_on_sample(0.0).unwrap_err();
    assert!(matches!(err, SirumError::EmptyDataset));
    let err = service.mine("flights").k(2).run_on_sample(1.5).unwrap_err();
    assert!(matches!(
        err,
        SirumError::InvalidConfig { field: "rate", .. }
    ));
}

// ---- SirumError::InvalidConfig -------------------------------------------

#[test]
fn zero_sample_size_names_the_field() {
    let service = service_with_flights();
    let err = service.mine("flights").sample_size(0).run().unwrap_err();
    assert!(
        matches!(
            err,
            SirumError::InvalidConfig {
                field: "strategy.sample_size",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn zero_column_groups_names_the_field() {
    let service = service_with_flights();
    let err = service.mine("flights").column_groups(0).run().unwrap_err();
    assert!(matches!(
        err,
        SirumError::InvalidConfig {
            field: "column_groups",
            ..
        }
    ));
}

#[test]
fn invalid_multirule_scaling_and_target_fields_are_named() {
    let service = service_with_flights();
    let field = |result: Result<JobOutput, SirumError>| match result.unwrap_err() {
        SirumError::InvalidConfig { field, .. } => field,
        other => panic!("expected InvalidConfig, got {other}"),
    };
    assert_eq!(
        field(service.mine("flights").rules_per_iter(0).run()),
        "rules_per_iter"
    );
    assert_eq!(
        field(service.mine("flights").epsilon(0.0).run()),
        "scaling.epsilon"
    );
    assert_eq!(
        field(service.mine("flights").epsilon(f64::NAN).run()),
        "scaling.epsilon"
    );
    assert_eq!(
        field(service.mine("flights").max_scaling_iterations(0).run()),
        "scaling.max_iterations"
    );
    assert_eq!(
        field(service.mine("flights").target_kl(-0.5).run()),
        "target_kl"
    );
    assert_eq!(
        field(service.mine("flights").target_kl(0.1).max_rules(0).run()),
        "max_rules"
    );
    // Rule budget beyond the 64-bit rule-coverage arrays.
    assert_eq!(field(service.mine("flights").k(1_000).run()), "k/max_rules");
}

#[test]
fn rule_budget_arithmetic_saturates_instead_of_wrapping() {
    // Regression: `1 + priors + max(4·k, k)` was unchecked, so k = usize::MAX
    // wrapped to a budget of 0, passed the 64-rule check and mined (release)
    // or panicked on the multiply (debug).
    let service = service_with_flights();
    for k in [usize::MAX, usize::MAX / 4 + 1] {
        let err = service.mine("flights").k(k).run().unwrap_err();
        assert!(
            matches!(
                err,
                SirumError::InvalidConfig {
                    field: "k/max_rules",
                    ..
                }
            ),
            "k = {k}: {err}"
        );
    }
    // The same check is what bounds a stream's mine_more.
    let mut stream = service.stream("flights").unwrap();
    let err = stream.mine_more(usize::MAX).unwrap_err();
    assert!(matches!(err, SirumError::InvalidConfig { .. }), "{err}");
    assert_eq!(stream.rules().len(), 1);
}

#[test]
fn wrong_arity_prior_rules_are_rejected_not_panicking() {
    let service = service_with_flights();
    // flights has 3 dimensions; a 1-dimension prior must be a typed error.
    let err = service
        .mine("flights")
        .k(2)
        .prior(vec![Rule::from_values(vec![WILDCARD])])
        .run()
        .unwrap_err();
    assert!(
        matches!(err, SirumError::InvalidConfig { field: "prior", .. }),
        "{err}"
    );
    // Same guard on the offline evaluator's rule list.
    let bad = vec![
        Rule::all_wildcards(3),
        Rule::from_values(vec![WILDCARD, WILDCARD]),
    ];
    let err = service
        .evaluate("flights", &bad, &ScalingConfig::default())
        .unwrap_err();
    assert!(matches!(
        err,
        SirumError::InvalidConfig { field: "rules", .. }
    ));
}

#[test]
fn unknown_variant_spelling_is_invalid_config() {
    let err = "warp-speed".parse::<Variant>().unwrap_err();
    assert!(matches!(
        err,
        SirumError::InvalidConfig {
            field: "variant",
            ..
        }
    ));
    assert!(err.to_string().contains("optimized"), "lists valid names");
}

#[test]
fn config_validate_is_directly_callable() {
    let config = SirumConfig {
        evaluation: Evaluation::Staged(StagedPipeline {
            broadcast_join: true,
            fast_pruning: true,
            column_groups: 0,
        }),
        ..SirumConfig::default()
    };
    assert!(config.validate().is_err());
    assert!(SirumConfig::default().validate().is_ok());
}

// ---- SirumError::InvalidMeasure ------------------------------------------

#[test]
fn non_finite_measures_are_rejected_at_registration() {
    let mut table = Table::builder(Schema::try_new(vec!["a"], "m").unwrap());
    table.try_push_row(&["x"], 1.0).unwrap();
    table.try_push_row(&["y"], f64::NAN).unwrap();
    let service = SirumService::in_memory().unwrap();
    let err = service.register("bad", table.build()).unwrap_err();
    match err {
        SirumError::InvalidMeasure { reason } => {
            assert!(reason.contains("row 1"), "{reason}");
        }
        other => panic!("expected InvalidMeasure, got {other}"),
    }
}

// ---- Rules whose support has zero true mass ------------------------------

/// Six rows whose `x` rows carry the minimum measure, so `m′ = 0` on
/// exactly the support of `(x, *)` — whose dictionary code is 0.
fn service_with_zero_mass_rows() -> (SirumService, Rule) {
    let csv = "a,b,m\nx,p,0\nx,q,0\ny,p,3\ny,q,5\nz,p,2\nz,q,4\n";
    let service = SirumService::in_memory().unwrap();
    service.register_csv("zero", csv.as_bytes()).unwrap();
    (service, Rule::from_values(vec![0, WILDCARD]))
}

#[test]
fn a_prior_with_zero_true_mass_fits_its_rows_to_zero() {
    // Both scaling paths: the default fits on the RCT, Baseline runs
    // Algorithm 1 over the rows (`rct: false`).
    for variant in [None, Some(Variant::Baseline)] {
        let (service, x) = service_with_zero_mass_rows();
        let mut request = service.mine("zero").k(1).prior(vec![x.clone()]);
        if let Some(v) = variant {
            request = request.variant(v);
        }
        let out = request.run().unwrap();
        let prior = &out.result.rules[1];
        assert_eq!((&prior.rule, prior.avg_measure, prior.count), (&x, 0.0, 2));
        let kl = &out.result.kl_trace;
        assert!(kl.iter().all(|v| v.is_finite()), "{variant:?}: {kl:?}");
        assert!(kl.windows(2).all(|w| w[1] <= w[0]), "{variant:?}: {kl:?}");
    }
}

#[test]
fn evaluating_a_rule_with_zero_true_mass_is_finite() {
    let (service, x) = service_with_zero_mass_rows();
    let wildcard = Rule::all_wildcards(2);
    let eval = service
        .evaluate("zero", &[wildcard, x], &ScalingConfig::default())
        .unwrap();
    assert!(
        eval.kl.is_finite() && eval.kl <= eval.baseline_kl,
        "{eval:?}"
    );
    assert!(eval.converged, "{eval:?}");
}

// ---- SirumError::UnknownTable --------------------------------------------

#[test]
fn unknown_table_lists_registered_names() {
    let service = service_with_flights();
    let err = service.mine("nope").run().unwrap_err();
    match &err {
        SirumError::UnknownTable { name, registered } => {
            assert_eq!(name, "nope");
            assert_eq!(registered, &vec!["flights".to_string()]);
        }
        other => panic!("expected UnknownTable, got {other}"),
    }
    assert!(err.to_string().contains("flights"));
}

// ---- SirumError::UnknownDemo ---------------------------------------------

#[test]
fn unknown_demo_name_is_rejected() {
    let service = SirumService::in_memory().unwrap();
    let err = service.register_demo("nonesuch").unwrap_err();
    assert!(matches!(err, SirumError::UnknownDemo { ref name } if name == "nonesuch"));
    assert!(err.to_string().contains("flights"), "lists valid demos");
}

// ---- SirumError::Table ---------------------------------------------------

#[test]
fn malformed_csv_surfaces_as_table_errors() {
    let service = SirumService::in_memory().unwrap();
    let err = service
        .register_csv("ragged", &b"a,b,m\nx,y,1\nx,2\n"[..])
        .unwrap_err();
    assert!(matches!(
        err,
        SirumError::Table(TableError::RaggedLine {
            line: 3,
            expected: 3,
            found: 2
        })
    ));
    let err = service
        .register_csv("nonnum", &b"a,m\nx,not-a-number\n"[..])
        .unwrap_err();
    assert!(matches!(
        err,
        SirumError::Table(TableError::BadMeasure { line: 2, .. })
    ));
    let err = service.register_csv("empty", &b""[..]).unwrap_err();
    assert!(matches!(err, SirumError::Table(TableError::EmptyInput)));
    let err = service
        .register_csv("dup", &b"a,a,m\nx,y,1\n"[..])
        .unwrap_err();
    assert!(matches!(
        err,
        SirumError::Table(TableError::DuplicateDimension { .. })
    ));
}

// ---- SirumError::Dataflow ------------------------------------------------

#[test]
fn invalid_engine_config_surfaces_from_the_service_builder() {
    let err = SirumService::builder().partitions(0).build().unwrap_err();
    assert!(matches!(
        err,
        SirumError::Dataflow(DataflowError::InvalidConfig {
            field: "partitions",
            ..
        })
    ));
    let err = SirumService::builder().workers(0).build().unwrap_err();
    assert!(matches!(
        err,
        SirumError::Dataflow(DataflowError::InvalidConfig {
            field: "workers",
            ..
        })
    ));
}

#[test]
fn unknown_engine_mode_spelling_is_typed() {
    let err = "mapreduce-classic".parse::<EngineMode>().unwrap_err();
    assert!(matches!(err, DataflowError::UnknownMode { ref name } if name == "mapreduce-classic"));
    assert_eq!("disk-mr".parse::<EngineMode>().unwrap(), EngineMode::DiskMr);
}

// ---- Observer: progress + graceful cancellation --------------------------

#[test]
fn observer_sees_every_iteration_and_can_cancel() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let service = SirumService::in_memory().unwrap();
    service
        .register_demo_with("income", Some(1_500), 5)
        .unwrap();

    let events = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&events);
    let full = service
        .mine("income")
        .k(4)
        .sample_size(32)
        .on_iteration(move |event| {
            assert!(event.kl.is_finite());
            assert!(event.rules_total > event.rules_mined);
            seen.fetch_add(1, Ordering::Relaxed);
            IterationDecision::Continue
        })
        .run()
        .unwrap()
        .result;
    assert!(!full.cancelled);
    assert_eq!(events.load(Ordering::Relaxed), full.iterations);

    // Cancelling after the first iteration returns a partial result.
    let partial = service
        .mine("income")
        .k(4)
        .sample_size(32)
        .on_iteration(|_| IterationDecision::Stop)
        .run()
        .unwrap()
        .result;
    assert!(partial.cancelled);
    assert_eq!(partial.iterations, 1);
    assert!(partial.rules.len() < full.rules.len());
}

// ---- Fallible miner facade -------------------------------------------------
// (`try_mine` is the only direct entry point; there is no panicking shim.)

#[test]
fn direct_miner_facade_is_fallible_only() {
    let flights = generators::flights();
    let config = SirumConfig {
        k: 3,
        strategy: CandidateStrategy::SampleLca { sample_size: 14 },
        ..SirumConfig::default()
    };
    let result = Miner::new(Engine::try_new(EngineConfig::in_memory()).unwrap(), config)
        .try_mine(&flights)
        .unwrap();
    assert_eq!(result.rules.len(), 4);
    // Invalid input is a typed error, never a panic.
    let bad = SirumConfig {
        k: 3,
        strategy: CandidateStrategy::SampleLca { sample_size: 0 },
        ..SirumConfig::default()
    };
    assert!(matches!(
        Miner::new(Engine::try_new(EngineConfig::in_memory()).unwrap(), bad).try_mine(&flights),
        Err(SirumError::InvalidConfig { .. })
    ));
}

// ---- Parity: a service request reproduces the direct miner ---------------

#[test]
fn service_request_matches_direct_miner_output() {
    let service = service_with_flights();
    let flights = service.table("flights").unwrap();
    let served = service.mine("flights").k(3).sample_size(14).run().unwrap();

    let config = SirumConfig {
        k: 3,
        strategy: CandidateStrategy::SampleLca { sample_size: 14 },
        ..SirumConfig::default()
    };
    let direct = Miner::new(Engine::try_new(EngineConfig::in_memory()).unwrap(), config)
        .try_mine(&flights)
        .unwrap();

    let names = |r: &MiningResult| -> Vec<String> {
        r.rules.iter().map(|m| m.rule.display(&flights)).collect()
    };
    assert_eq!(names(&served.result), names(&direct));
    assert_eq!(served.result.final_kl(), direct.final_kl());
}

// ---- Service-layer errors -------------------------------------------------

#[test]
fn service_unknown_table_and_invalid_config_surface_at_submit() {
    let service = SirumService::in_memory().unwrap();
    let err = service.mine("nope").k(2).submit().unwrap_err();
    assert!(matches!(err, SirumError::UnknownTable { .. }));
    service.register_demo("flights").unwrap();
    let err = service.mine("flights").sample_size(0).submit().unwrap_err();
    assert!(
        matches!(err, SirumError::InvalidConfig { field, .. } if field == "strategy.sample_size")
    );
}

#[test]
fn service_error_variant_displays_its_reason() {
    let err = SirumError::service("worker pool has shut down");
    assert!(err.to_string().contains("service error"));
    assert!(err.to_string().contains("worker pool"));
    assert!(matches!(err, SirumError::Service { .. }));
}

#[test]
fn double_consuming_a_job_handle_is_a_typed_service_error() {
    let service = SirumService::in_memory().unwrap();
    service.register_demo("flights").unwrap();
    let mut handle = service
        .mine("flights")
        .k(1)
        .sample_size(14)
        .submit()
        .unwrap();
    loop {
        if let Some(outcome) = handle.try_poll() {
            outcome.unwrap();
            break;
        }
        std::thread::yield_now();
    }
    assert!(matches!(handle.wait(), Err(SirumError::Service { .. })));
}

#[test]
fn stream_rejects_negative_measure_tables_and_bad_batches() {
    let service = SirumService::in_memory().unwrap();
    // A table with a negative measure cannot seed a stream.
    let mut builder = Table::builder(Schema::try_new(vec!["A"], "m").unwrap());
    builder.try_push_row(&["x"], -1.0).unwrap();
    builder.try_push_row(&["y"], 2.0).unwrap();
    service.register("neg", builder.build()).unwrap();
    assert!(matches!(
        service.stream("neg"),
        Err(SirumError::InvalidMeasure { .. })
    ));
    // Bad batches are typed errors, not panics.
    service.register_demo("flights").unwrap();
    let mut stream = service.stream("flights").unwrap();
    assert!(matches!(
        stream.ingest(&[(&[0u32][..], 1.0)]),
        Err(SirumError::InvalidConfig { .. })
    ));
    assert!(matches!(
        stream.ingest(&[(&[0u32, 0, 0][..], f64::NAN)]),
        Err(SirumError::InvalidMeasure { .. })
    ));
}
