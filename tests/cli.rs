//! The `sirum` binary end to end: its flags ask for the same request the
//! service API (and so `POST /mine`) makes for the same fields, and its
//! exit codes follow the documented contract.

use sirum::json::{mining_result_to_json, parse_json, JsonValue};
use sirum::prelude::*;
use std::process::{Command, Output};

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
        "--demo", "income", "--k", "4", "--sample", "16", "--format", "json",
    ];
    let cli = cli_result(&args);

    let service = SirumService::in_memory().unwrap();
    let table = service.register_demo("income").unwrap();
    let out = service.mine("income").k(4).sample_size(16).run().unwrap();
    let api = parse_json(&mining_result_to_json(&out.result, &table)).unwrap();
    assert_eq!(mined(&cli), mined(&api));

    // Two rules an iteration reach the same k in fewer iterations.
    let two = cli_result(&[&args[..], &["--two-rules"]].concat());
    let iterations = |r: &JsonValue| r.get("iterations").and_then(JsonValue::as_u64);
    assert!(
        iterations(&two) < iterations(&cli),
        "{:?} vs {:?}",
        iterations(&two),
        iterations(&cli)
    );
}

#[test]
fn cli_explains_and_rejects_unknown_flags() {
    let out = sirum(&["--demo", "flights", "--explain"]);
    assert!(out.status.success(), "{out:?}");
    let plan = String::from_utf8_lossy(&out.stdout);
    assert!(plan.contains("plan: table \"flights\""), "{plan}");
    assert!(plan.contains("candidate evaluation"), "{plan}");

    let out = sirum(&["--demo", "flights", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
