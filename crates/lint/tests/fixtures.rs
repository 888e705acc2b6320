//! Fixture-driven rule tests: each `fixtures/slNNN_bad.rs` must produce
//! exactly the findings annotated in it (positions included), each
//! `slNNN_ok.rs` must be clean, and the frozen corpus proves SL001 still
//! catches the bare asserts the retired awk gate (`scripts/lint-panics.sh`)
//! caught, leaving its `panic!`/`.unwrap()`/`.expect(…)` hits to clippy.
//! Finally, the analyzer runs over the real workspace tree — making the
//! lint gate itself part of `cargo test`.

use std::path::Path;

use sirum_lint::driver::check_sources;
use sirum_lint::Finding;

fn lint(rel_path: &str, src: &str) -> Vec<Finding> {
    check_sources(&[(rel_path.to_string(), src.to_string())]).findings
}

/// `(line, col)` of every finding for `rule`, in report order.
fn positions(findings: &[Finding], rule: &str) -> Vec<(u32, u32)> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.line, f.col))
        .collect()
}

fn lines(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn sl001_bad_exact_positions() {
    let findings = lint(
        "crates/core/src/x.rs",
        include_str!("../fixtures/sl001_bad.rs"),
    );
    assert_eq!(
        positions(&findings, "SL001"),
        vec![(6, 5), (10, 5), (14, 5)],
        "findings: {findings:#?}"
    );
    assert_eq!(findings.len(), 3, "only SL001 expected: {findings:#?}");
}

#[test]
fn sl001_ok_is_clean() {
    let findings = lint(
        "crates/core/src/x.rs",
        include_str!("../fixtures/sl001_ok.rs"),
    );
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn sl001_does_not_run_outside_library_paths() {
    let findings = lint(
        "crates/figures/src/x.rs",
        include_str!("../fixtures/sl001_bad.rs"),
    );
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn sl002_bad_exact_positions() {
    let findings = lint(
        "crates/core/src/sweep.rs",
        include_str!("../fixtures/sl002_bad.rs"),
    );
    assert_eq!(
        positions(&findings, "SL002"),
        vec![(6, 5), (15, 5)],
        "findings: {findings:#?}"
    );
}

#[test]
fn sl002_ok_is_clean() {
    let findings = lint(
        "crates/core/src/sweep.rs",
        include_str!("../fixtures/sl002_ok.rs"),
    );
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn sl002_does_not_run_outside_hot_modules() {
    let findings = lint(
        "crates/core/src/lattice.rs",
        include_str!("../fixtures/sl002_bad.rs"),
    );
    assert!(
        lines(&findings, "SL002").is_empty(),
        "findings: {findings:#?}"
    );
}

#[test]
fn sl003_bad_exact_positions() {
    let findings = lint("src/service.rs", include_str!("../fixtures/sl003_bad.rs"));
    assert_eq!(
        positions(&findings, "SL003"),
        vec![(25, 17), (33, 26), (39, 41)],
        "findings: {findings:#?}"
    );
}

#[test]
fn sl003_ok_is_clean() {
    let findings = lint("src/service.rs", include_str!("../fixtures/sl003_ok.rs"));
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn sl004_bad_exact_positions() {
    let findings = lint(
        "src/net/server.rs",
        include_str!("../fixtures/sl004_bad.rs"),
    );
    assert_eq!(
        positions(&findings, "SL004"),
        vec![(6, 14), (13, 13)],
        "findings: {findings:#?}"
    );
}

#[test]
fn sl004_ok_is_clean() {
    let findings = lint("src/net/server.rs", include_str!("../fixtures/sl004_ok.rs"));
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn sl006_bad_reports_the_seeded_inversion_with_both_witness_paths() {
    let findings = lint("src/state.rs", include_str!("../fixtures/sl006_bad.rs"));
    assert_eq!(
        positions(&findings, "SL006"),
        vec![(15, 1)],
        "findings: {findings:#?}"
    );
    let msg = &findings
        .iter()
        .find(|f| f.rule == "SL006")
        .map(|f| f.message.clone())
        .unwrap_or_default();
    for needle in [
        "lock-order inversion",
        "alpha",
        "beta",
        "forward",
        "backward",
    ] {
        assert!(msg.contains(needle), "witness is missing {needle:?}: {msg}");
    }
}

#[test]
fn sl006_ok_is_clean() {
    let findings = lint("src/state.rs", include_str!("../fixtures/sl006_ok.rs"));
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

/// The inversion only exists across the call graph: `load`/`flush` in
/// one file each take their first lock locally, and the second lock is
/// acquired two hops away through free functions in another file.
#[test]
fn sl006_reports_a_cycle_whose_witness_spans_files() {
    let store = "pub struct Store {\n    alpha: Mutex<Vec<u32>>,\n    beta: Mutex<Vec<u32>>,\n}\n\nimpl Store {\n    pub fn load(&self) {\n        let held = self.alpha.lock();\n        sync_beta(self);\n        drop(held);\n    }\n\n    pub fn push_beta(&self) {\n        self.beta.lock().push(1);\n    }\n\n    pub fn flush(&self) {\n        let held = self.beta.lock();\n        refresh_alpha(self);\n        drop(held);\n    }\n\n    pub fn push_alpha(&self) {\n        self.alpha.lock().push(1);\n    }\n}\n";
    let helpers = "pub fn sync_beta(store: &Store) {\n    store.push_beta();\n}\n\npub fn refresh_alpha(store: &Store) {\n    store.push_alpha();\n}\n";
    let findings = check_sources(&[
        ("src/store.rs".to_string(), store.to_string()),
        ("src/helpers.rs".to_string(), helpers.to_string()),
    ])
    .findings;
    let sl006: Vec<&Finding> = findings.iter().filter(|f| f.rule == "SL006").collect();
    assert_eq!(sl006.len(), 1, "findings: {findings:#?}");
    let msg = &sl006[0].message;
    for needle in ["lock-order inversion", "alpha", "beta", "load", "flush"] {
        assert!(msg.contains(needle), "witness is missing {needle:?}: {msg}");
    }
}

#[test]
fn sl007_bad_exact_positions() {
    let findings = lint(
        "crates/core/src/x.rs",
        include_str!("../fixtures/sl007_bad.rs"),
    );
    assert_eq!(
        positions(&findings, "SL007"),
        vec![(7, 25), (17, 28), (23, 16)],
        "findings: {findings:#?}"
    );
    assert_eq!(findings.len(), 3, "only SL007 expected: {findings:#?}");
}

#[test]
fn sl007_ok_is_clean() {
    let findings = lint(
        "crates/core/src/x.rs",
        include_str!("../fixtures/sl007_ok.rs"),
    );
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn sl007_does_not_run_outside_deterministic_paths() {
    let findings = lint(
        "crates/figures/src/x.rs",
        include_str!("../fixtures/sl007_bad.rs"),
    );
    assert!(
        lines(&findings, "SL007").is_empty(),
        "findings: {findings:#?}"
    );
}

#[test]
fn pragma_blesses_only_its_own_line() {
    // The pragma sits two lines above the offending call: no suppression.
    let src = "fn f() {\n    // lint:allow(SL001) — cannot leak downward\n    let a = 1;\n    assert!(a > 0);\n}\n";
    let findings = lint("crates/core/src/x.rs", src);
    assert_eq!(
        lines(&findings, "SL001"),
        vec![4],
        "findings: {findings:#?}"
    );
    // And the pragma itself is now stale.
    assert_eq!(
        lines(&findings, "SL000"),
        vec![2],
        "findings: {findings:#?}"
    );
}

/// The awk gate's output on `fixtures/frozen_corpus.rs`, captured before
/// `scripts/lint-panics.sh` was deleted (line numbers only):
///
/// ```text
/// crates/lint/fixtures/frozen_corpus.rs:8
/// crates/lint/fixtures/frozen_corpus.rs:10
/// crates/lint/fixtures/frozen_corpus.rs:11
/// crates/lint/fixtures/frozen_corpus.rs:12
/// crates/lint/fixtures/frozen_corpus.rs:13
/// crates/lint/fixtures/frozen_corpus.rs:14
/// crates/lint/fixtures/frozen_corpus.rs:25
/// ```
///
/// Line 25 is a string literal — a regex false positive SL001 must not
/// repeat. Line 30 (legacy-marker-blessed assert) is an awk blind spot
/// SL001 must catch. Lines 8, 10 and 11 (`panic!`, `.unwrap()`,
/// `.expect(…)`) and 44 (an `.unwrap()` after the `#[cfg(test)]` scan
/// cutoff) now belong to clippy (`panic`, `unwrap_used`, `expect_used`),
/// so SL001 must stay silent there.
#[test]
fn sl001_parity_with_frozen_awk_corpus() {
    const AWK_TRUE_POSITIVES: &[u32] = &[12, 13, 14];
    const AWK_STRING_FALSE_POSITIVE: u32 = 25;
    const AWK_BLIND_SPOTS: &[u32] = &[30];
    const CLIPPY_SITES: &[u32] = &[8, 10, 11, 44];

    let findings = lint(
        "crates/core/src/frozen.rs",
        include_str!("../fixtures/frozen_corpus.rs"),
    );
    let sl001 = lines(&findings, "SL001");
    for &line in AWK_TRUE_POSITIVES {
        assert!(
            sl001.contains(&line),
            "awk caught line {line}, SL001 missed it: {sl001:?}"
        );
    }
    assert!(
        !sl001.contains(&AWK_STRING_FALSE_POSITIVE),
        "SL001 repeated awk's string-literal false positive: {sl001:?}"
    );
    for &line in AWK_BLIND_SPOTS {
        assert!(
            sl001.contains(&line),
            "SL001 missed awk blind spot line {line}: {sl001:?}"
        );
    }
    for &line in CLIPPY_SITES {
        assert!(
            !sl001.contains(&line),
            "SL001 reported clippy's site on line {line}: {sl001:?}"
        );
    }
    // The retired marker form itself is diagnosed.
    assert!(
        lines(&findings, "SL000").contains(&29),
        "findings: {findings:#?}"
    );
}

/// The real gate: the workspace's own tree must be clean. This is what
/// makes seeding any `_bad` fixture into a library crate fail the suite.
#[test]
fn workspace_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = match sirum_lint::check_tree(&root) {
        Ok(report) => report,
        Err(e) => panic!("discovery failed: {e}"),
    };
    assert!(
        report.files > 50,
        "suspiciously few files: {}",
        report.files
    );
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report.render_human()
    );
}
