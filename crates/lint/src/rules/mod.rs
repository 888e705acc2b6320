//! The rule registry. Each rule is a token/structure pass over one
//! [`SourceFile`]; the driver decides applicability from the workspace-
//! relative path, runs `check`, then applies pragma suppression.
//!
//! Adding a rule: create `rules/slNNN.rs` implementing [`Rule`], register
//! it in [`all`] and [`CODES`], add `fixtures/slNNN_{bad,ok}.rs` with
//! a case in `tests/fixtures.rs`, and document the invariant in DESIGN.md.

use crate::callgraph::Workspace;
use crate::diag::Finding;
use crate::resolve::FileSymbols;
use crate::syntax::SourceFile;

mod sl001;
mod sl002;
mod sl003;
mod sl004;
mod sl006;
mod sl007;

/// One per-file static-analysis rule.
pub trait Rule {
    /// Stable code, e.g. `"SL001"`.
    fn code(&self) -> &'static str;
    /// One-line description shown by `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Whether this rule runs on the file at this workspace-relative path.
    fn applies(&self, rel_path: &str) -> bool;
    /// Scan the file, pushing findings.
    fn check(&self, file: &SourceFile, sym: &FileSymbols, out: &mut Vec<Finding>);
}

/// One workspace rule: runs once over the resolved workspace (built from
/// per-file summaries), not per file.
pub trait WorkspaceRule {
    /// Stable code, e.g. `"SL006"`.
    fn code(&self) -> &'static str;
    /// One-line description shown by `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Scan the workspace, pushing findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// Every registered per-file rule, in code order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(sl001::PanicFreedom),
        Box::new(sl002::CancellationPoll),
        Box::new(sl003::LockAcrossBlocking),
        Box::new(sl004::AcceptLoopPurity),
        Box::new(sl007::NondeterministicIteration),
    ]
}

/// Every registered workspace rule, in code order.
pub fn workspace_rules() -> Vec<Box<dyn WorkspaceRule>> {
    vec![Box::new(sl006::LockOrderInversion)]
}

/// Every registered rule code, in code order.
pub const CODES: &[&str] = &["SL001", "SL002", "SL003", "SL004", "SL006", "SL007"];

/// Whether `code` names a registered rule (pragmas citing anything else
/// are themselves diagnosed). `SL000` is the pragma-hygiene pseudo-rule —
/// it cannot be suppressed, so it is not "known" for pragma purposes.
pub fn known_rule(code: &str) -> bool {
    CODES.contains(&code)
}

/// Library and facade paths whose non-test code must be panic-free
/// (SL001). `crates/figures` and `crates/baselines` are harness/reference
/// code and exempt, exactly like under the retired grep gate; the lint
/// crate holds itself to the same standard.
pub(crate) fn is_library_path(rel_path: &str) -> bool {
    rel_path.starts_with("crates/core/src/")
        || rel_path.starts_with("crates/dataflow/src/")
        || rel_path.starts_with("crates/table/src/")
        || rel_path.starts_with("crates/lint/src/")
        || rel_path.starts_with("src/")
}

/// Significant-token ranges covering the arguments of `spawn(…)` calls.
/// Closures passed to `spawn` run on another thread, so blocking calls
/// inside them do not block the *current* thread — SL003/SL004 mask
/// these ranges out.
pub(crate) fn spawn_arg_spans(file: &SourceFile) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..file.sig.len() {
        if file.sig_is_ident(i, "spawn") && file.sig_text(i + 1) == "(" {
            if let Some(close) = file.matching.get(i + 1).copied().flatten() {
                spans.push((i + 1, close));
            }
        }
    }
    spans
}

/// Whether significant index `i` falls strictly inside one of `spans`.
pub(crate) fn in_spans(i: usize, spans: &[(usize, usize)]) -> bool {
    spans.iter().any(|&(open, close)| i > open && i < close)
}

/// Shared helper: push a finding anchored at significant token `i`.
pub(crate) fn finding_at(
    file: &SourceFile,
    sig_idx: usize,
    rule: &'static str,
    message: String,
    out: &mut Vec<Finding>,
) {
    let offset = file.sig_offset(sig_idx);
    let (line, col) = file.pos(offset);
    out.push(Finding {
        rule,
        file: file.rel_path.clone(),
        line,
        col,
        message,
    });
}
