//! The `sirum` binary end to end: its flags are the fields `POST /mine`
//! and `GET /explain` take, asking for the same request, and its exit
//! codes follow the documented contract.

use sirum::json::{mining_result_to_json, parse_json, JsonValue};
use sirum::net::http::Request;
use sirum::prelude::*;
use std::process::{Command, Output};
use std::sync::Arc;

fn sirum(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sirum"))
        .args(args)
        .output()
        .expect("run the sirum binary")
}

/// The fields that identify what was mined: the rules, the KL trace and
/// the iteration count, as a comparable rendering.
fn mined(result: &JsonValue) -> (String, String, String) {
    let field = |name: &str| result.get(name).expect(name).render();
    (field("rules"), field("kl_trace"), field("iterations"))
}

fn cli_result(args: &[&str]) -> JsonValue {
    let out = sirum(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    parse_json(&String::from_utf8_lossy(&out.stdout)).expect("JSON result")
}

#[test]
fn cli_mines_the_request_the_service_mines_for_the_same_fields() {
    let args = [
        "--demo",
        "income",
        "--k",
        "4",
        "--sample-size",
        "16",
        "--format",
        "json",
    ];
    let cli = cli_result(&args);

    let service = SirumService::in_memory().unwrap();
    let table = service.register_demo("income").unwrap();
    let out = service.mine("income").k(4).sample_size(16).run().unwrap();
    let api = parse_json(&mining_result_to_json(&out.result, &table)).unwrap();
    assert_eq!(mined(&cli), mined(&api));

    // Two rules an iteration reach the same k in fewer iterations.
    let two = cli_result(&[&args[..], &["--rules-per-iter", "2"]].concat());
    let iterations = |r: &JsonValue| r.get("iterations").and_then(JsonValue::as_u64);
    assert!(
        iterations(&two) < iterations(&cli),
        "{:?} vs {:?}",
        iterations(&two),
        iterations(&cli)
    );
}

/// `--engine` reaches `ServiceBuilder::mode`: the staged Baseline mines
/// the same rules on every platform emulation.
#[test]
fn every_engine_mode_mines_what_the_in_memory_engine_mines() {
    let args = [
        "--demo",
        "flights",
        "--k",
        "2",
        "--variant",
        "baseline",
        "--format",
        "json",
    ];
    let with_engine = |engine: &str| cli_result(&[&args[..], &["--engine", engine]].concat());
    let in_memory = mined(&with_engine("in-memory"));
    for engine in ["disk-mr", "single-thread"] {
        assert_eq!(mined(&with_engine(engine)), in_memory, "--engine {engine}");
    }
}

#[test]
fn cli_explains_and_rejects_unknown_flags() {
    let out = sirum(&["--demo", "flights", "--explain"]);
    assert!(out.status.success(), "{out:?}");
    let plan = String::from_utf8_lossy(&out.stdout);
    assert!(plan.contains("plan: table \"flights\""), "{plan}");
    assert!(plan.contains("candidate evaluation"), "{plan}");

    // Each usage error names the flag at fault.
    for (args, named) in [
        (&["--no-such-flag"][..], "--no-such-flag"),
        (&["--no-such-flag", "1"], "--no-such-flag"),
        (&["--sample", "16"], "--sample"),
        (&["--epsilon", "nan"], "--epsilon"),
        (&["--two-sided", "yes"], "--two-sided"),
    ] {
        let out = sirum(&[&["--demo", "flights"][..], args].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

/// What `GET /explain` renders for `query`, on a service set up as the
/// CLI sets up its own: 16 partitions, the flights demo drawn with `seed`.
fn explain_over_the_wire(query: &str, seed: u64) -> String {
    let service = SirumService::builder().partitions(16).build().unwrap();
    service.register_demo_with("flights", None, seed).unwrap();
    let router = Router::new(
        service,
        Arc::new(NetMetrics::new()),
        RouterConfig::default(),
    );
    let (key, value) = query.split_once('=').unwrap();
    let request = Request {
        method: "GET".into(),
        path: "/explain".into(),
        query: vec![
            ("table".into(), "flights".into()),
            (key.into(), value.into()),
        ],
        headers: Vec::new(),
        body: Vec::new(),
        keep_alive: false,
    };
    let (_, response) = router.handle(&request);
    assert_eq!(response.status, 200, "{query}: {response:?}");
    let body = parse_json(&String::from_utf8_lossy(&response.body)).unwrap();
    body.get("rendered")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn every_wire_field_is_a_flag_that_plans_what_explain_plans() {
    for (field, value) in [
        ("k", "2"),
        ("sample_size", "14"),
        ("variant", "rct"),
        ("full_cube", "true"),
        ("two_sided", "true"),
        ("epsilon", "0.001"),
        ("max_scaling_iterations", "5"),
        ("seed", "7"),
        ("rules_per_iter", "2"),
        ("target_kl", "0.5"),
        ("max_rules", "4"),
        ("column_groups", "2"),
        ("prior", "[[0,null,null]]"),
    ] {
        let flag = format!("--{}", field.replace('_', "-"));
        let out = sirum(&["--demo", "flights", "--explain", &flag, value]);
        assert!(out.status.success(), "{flag} {value}: {out:?}");
        // `--seed` draws the demo data too.
        let seed = if field == "seed" { 7 } else { 42 };
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim_end(),
            explain_over_the_wire(&format!("{field}={value}"), seed),
            "{flag} {value}"
        );
    }
}

#[test]
fn mines_leave_nothing_in_the_spill_root() {
    // Every block store spills into its own directory under
    // `$TMPDIR/sirum-dataflow` and removes it when its last handle drops:
    // a DiskMr run of the binary, where every stage output goes through
    // disk, and a mine under a memory budget far below its working set.
    let tmp = std::env::temp_dir().join(format!("sirum-spill-root-{}", std::process::id()));
    let root = tmp.join("sirum-dataflow");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_sirum"))
        .args(["--demo", "income", "--k", "3", "--engine", "disk-mr"])
        .env("TMPDIR", &tmp)
        .output()
        .expect("run the sirum binary");
    assert!(out.status.success(), "{out:?}");
    assert!(root.is_dir(), "the DiskMr run spilled outside {root:?}");
    {
        let config = EngineConfig::in_memory()
            .with_memory_budget(48 << 10)
            .with_spill_dir(root.clone());
        let service = SirumService::builder()
            .engine_config(config)
            .build()
            .unwrap();
        service.register_demo("income").unwrap();
        service.mine("income").k(3).sample_size(16).run().unwrap();
        assert!(service.stats().memory.spilled_bytes > 0, "nothing spilled");
    }
    let left: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
    let _ = std::fs::remove_dir_all(&tmp);
}
