//! The driver: file discovery, the two-phase rule pipeline, pragma
//! application and hygiene (SL000), and the report CI archives.
//!
//! Phase 1 runs per file: lex → symbol-resolve → per-file rules (SL001–
//! SL004, SL007), producing a [`FileAnalysis`] — raw findings, pragmas,
//! and the [`FileSummary`] digest the workspace layer needs. Phase 2 runs
//! once: summaries → [`Workspace`] (call graph, lock propagation) →
//! workspace rules (SL006). Suppression and pragma hygiene run
//! last, over the *combined* findings, so a pragma blessing a workspace
//! finding is "used" and a pragma blessing nothing is stale.
//!
//! Every run analyses every file it is given and writes nothing: the
//! report is a function of the tree and this binary, so a local run and
//! the CI gate cannot disagree about one commit.
//!
//! Suppression contract: a finding on line L is suppressed only by a
//! pragma whose blessed line is L, whose code list names the finding's
//! rule, *and* which carries a `— reason`. Reasonless pragmas suppress
//! nothing — they are themselves diagnosed, as are pragmas citing
//! unknown codes, stale pragmas, and the retired legacy marker forms.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::callgraph::{FileSummary, Workspace};
use crate::diag::{finding_json, json_escape, Finding};
use crate::lexer::TokenKind;
use crate::resolve::FileSymbols;
use crate::rules;
use crate::syntax::{Pragma, SourceFile};

/// Pragma-hygiene pseudo-rule code. Not suppressible.
pub const HYGIENE: &str = "SL000";

/// Directory names never descended into during discovery.
const SKIP_DIRS: &[&str] = &["target", "fixtures", "vendor"];

/// Per-rule timing and yield across the whole run.
#[derive(Debug, Clone)]
pub struct RuleStat {
    /// Rule code.
    pub code: &'static str,
    /// Wall-clock nanoseconds spent in this rule's `check`.
    pub nanos: u128,
    /// Findings emitted (pre-suppression).
    pub raw_findings: usize,
}

/// Everything one analyzer run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Findings that survived pragma suppression, plus SL000 hygiene
    /// findings, sorted by file/line/col.
    pub findings: Vec<Finding>,
    /// Files analyzed.
    pub files: usize,
    /// Bytes lexed.
    pub bytes: usize,
    /// Tokens produced.
    pub tokens: usize,
    /// Total wall-clock nanoseconds (lex + rules + suppression).
    pub nanos: u128,
    /// Per-rule breakdown.
    pub rule_stats: Vec<RuleStat>,
}

impl Report {
    /// True when no finding survived.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One `file:line:col: CODE message` line per finding plus a summary
    /// trailer.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render_human());
            out.push('\n');
        }
        out.push_str(&format!(
            "sirum-lint: {} finding(s) in {} file(s)\n",
            self.findings.len(),
            self.files
        ));
        out
    }

    /// The stable JSON shape CI uploads as an artifact.
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self.findings.iter().map(finding_json).collect();
        let rules: Vec<String> = self
            .rule_stats
            .iter()
            .map(|r| {
                format!(
                    "{{\"code\":\"{}\",\"micros\":{},\"raw_findings\":{}}}",
                    json_escape(r.code),
                    r.nanos / 1_000,
                    r.raw_findings
                )
            })
            .collect();
        format!(
            "{{\"findings\":[{}],\"stats\":{{\"files\":{},\"bytes\":{},\"tokens\":{},\"duration_ms\":{},\"rules\":[{}]}}}}\n",
            findings.join(","),
            self.files,
            self.bytes,
            self.tokens,
            self.nanos / 1_000_000,
            rules.join(",")
        )
    }

    /// The `--stats` block (human form).
    pub fn render_stats(&self) -> String {
        let mut out = format!(
            "files: {}\nbytes: {}\ntokens: {}\nduration: {:.1} ms\n",
            self.files,
            self.bytes,
            self.tokens,
            self.nanos as f64 / 1e6,
        );
        for r in &self.rule_stats {
            out.push_str(&format!(
                "  {}: {:.2} ms, {} raw finding(s)\n",
                r.code,
                r.nanos as f64 / 1e6,
                r.raw_findings
            ));
        }
        out
    }
}

/// One active reasoned pragma, for the `--pragmas` inventory.
#[derive(Debug, Clone)]
pub struct PragmaEntry {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the pragma comment.
    pub line: u32,
    /// Rule codes it suppresses.
    pub codes: Vec<String>,
    /// The stated reason.
    pub reason: String,
}

/// A full run: the report plus the workspace artifacts and the pragma
/// inventory.
pub struct Analysis {
    /// The findings report.
    pub report: Report,
    /// Call-graph JSON artifact.
    pub callgraph_json: String,
    /// Lock-order-graph JSON artifact (edges, witnesses, cycles).
    pub lock_graph_json: String,
    /// Every pragma in the tree, file/line ordered.
    pub pragmas: Vec<PragmaEntry>,
}

/// The result of phase 1 on one file.
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Source size in bytes.
    pub bytes: usize,
    /// Token count.
    pub tokens: usize,
    /// Raw per-file findings, pre-suppression.
    pub raw: Vec<Finding>,
    /// Parsed pragmas.
    pub pragmas: Vec<Pragma>,
    /// Positions of retired legacy suppression markers.
    pub legacy_markers: Vec<(u32, u32)>,
    /// The workspace-layer digest.
    pub summary: FileSummary,
}

/// Phase 1: lex, resolve, run per-file rules. `stats` accumulates rule
/// timings (indexed like `rules::all()`).
fn analyze_file(
    rel_path: &str,
    src: &str,
    per_file: &[Box<dyn rules::Rule>],
    stats: &mut [RuleStat],
) -> FileAnalysis {
    let file = SourceFile::parse(rel_path, src);
    let sym = FileSymbols::analyze(&file);
    let mut raw: Vec<Finding> = Vec::new();
    for (ri, rule) in per_file.iter().enumerate() {
        if !rule.applies(rel_path) {
            continue;
        }
        let rule_started = Instant::now();
        rule.check(&file, &sym, &mut raw);
        stats[ri].nanos += rule_started.elapsed().as_nanos();
    }
    let legacy_markers = file
        .tokens
        .iter()
        .filter(|tok| matches!(tok.kind, TokenKind::LineComment { doc: false }))
        .filter(|tok| {
            let text = tok.text(&file.src);
            text.contains("lint:allow-panic") || text.contains("lint:allow-assert")
        })
        .map(|tok| file.pos(tok.start))
        .collect();
    FileAnalysis {
        rel_path: rel_path.to_string(),
        bytes: file.src.len(),
        tokens: file.tokens.len(),
        summary: FileSummary::build(&file, &sym),
        pragmas: file.pragmas.clone(),
        legacy_markers,
        raw,
    }
}

/// Phase 2 plus reporting: workspace rules, suppression, hygiene, sort.
fn finish(
    analyses: Vec<FileAnalysis>,
    mut rule_stats: Vec<RuleStat>,
    started: Instant,
) -> Analysis {
    let mut report = Report::default();
    // Workspace phase over all summaries.
    let ws = Workspace::build(analyses.iter().map(|a| a.summary.clone()).collect());
    let mut ws_raw: Vec<Finding> = Vec::new();
    for rule in rules::workspace_rules() {
        let before = ws_raw.len();
        let rule_started = Instant::now();
        rule.check(&ws, &mut ws_raw);
        rule_stats.push(RuleStat {
            code: rule.code(),
            nanos: rule_started.elapsed().as_nanos(),
            raw_findings: ws_raw.len() - before,
        });
    }
    // Per-file raw-finding counts.
    for a in &analyses {
        for f in &a.raw {
            if let Some(stat) = rule_stats.iter_mut().find(|s| s.code == f.rule) {
                stat.raw_findings += 1;
            }
        }
    }
    // Suppression + hygiene, per file, over combined findings.
    let mut pragmas = Vec::new();
    for a in &analyses {
        report.files += 1;
        report.bytes += a.bytes;
        report.tokens += a.tokens;
        let mut raw = a.raw.clone();
        raw.extend(ws_raw.iter().filter(|f| f.file == a.rel_path).cloned());
        apply_pragmas(a, raw, &mut report.findings);
        hygiene(a, &mut report.findings);
        for p in &a.pragmas {
            if p.has_reason && !p.codes.is_empty() {
                pragmas.push(PragmaEntry {
                    file: a.rel_path.clone(),
                    line: p.line,
                    codes: p.codes.clone(),
                    reason: p.reason.clone(),
                });
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    report.rule_stats = rule_stats;
    report.nanos = started.elapsed().as_nanos();
    let lock_graph = ws.lock_graph();
    Analysis {
        report,
        callgraph_json: ws.callgraph_json(),
        lock_graph_json: lock_graph.to_json(),
        pragmas,
    }
}

fn new_rule_stats(per_file: &[Box<dyn rules::Rule>]) -> Vec<RuleStat> {
    per_file
        .iter()
        .map(|r| RuleStat {
            code: r.code(),
            nanos: 0,
            raw_findings: 0,
        })
        .collect()
}

/// Analyze `(rel_path, source)` pairs. The pure core — tests feed it
/// fixtures under synthetic in-scope paths.
pub fn check_sources(sources: &[(String, String)]) -> Report {
    analyze_sources(sources).report
}

/// [`check_sources`], returning the full [`Analysis`].
pub fn analyze_sources(sources: &[(String, String)]) -> Analysis {
    let started = Instant::now();
    let per_file = rules::all();
    let mut stats = new_rule_stats(&per_file);
    let analyses = sources
        .iter()
        .map(|(rel_path, src)| analyze_file(rel_path, src, &per_file, &mut stats))
        .collect();
    finish(analyses, stats, started)
}

/// Analyze a tree on disk: discover under `root`, read, check.
pub fn check_tree(root: &Path) -> Result<Report, String> {
    let rel_paths = discover_files(root)?;
    check_paths(root, &rel_paths)
}

/// Analyze an explicit list of workspace-relative paths.
pub fn check_paths(root: &Path, rel_paths: &[String]) -> Result<Report, String> {
    Ok(analyze_paths(root, rel_paths)?.report)
}

/// Full run over a tree: discover under `root`, then [`analyze_paths`].
pub fn analyze_tree(root: &Path) -> Result<Analysis, String> {
    let rel_paths = discover_files(root)?;
    analyze_paths(root, &rel_paths)
}

/// Full run over explicit workspace-relative paths.
pub fn analyze_paths(root: &Path, rel_paths: &[String]) -> Result<Analysis, String> {
    let started = Instant::now();
    let per_file = rules::all();
    let mut stats = new_rule_stats(&per_file);
    let mut analyses = Vec::with_capacity(rel_paths.len());
    for rel in rel_paths {
        let abs = root.join(rel);
        let bytes = fs::read(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
        let src = String::from_utf8_lossy(&bytes);
        analyses.push(analyze_file(rel, &src, &per_file, &mut stats));
    }
    Ok(finish(analyses, stats, started))
}

// ---------------------------------------------------------------------
// Discovery.

/// Discover the workspace's own sources under `root`: `src/` plus every
/// `crates/*/src/`, skipping `target`/`fixtures`/`vendor`. Returned paths are
/// workspace-relative with forward slashes, sorted.
pub fn discover_files(root: &Path) -> Result<Vec<String>, String> {
    let mut rel_paths = Vec::new();
    walk(&root.join("src"), root, &mut rel_paths)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries =
            fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
        let mut members: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", crates_dir.display()))?;
            members.push(entry.path());
        }
        members.sort();
        for member in members {
            walk(&member.join("src"), root, &mut rel_paths)?;
        }
    }
    rel_paths.sort();
    Ok(rel_paths)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk(&path, root, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Suppression.

/// Suppress findings blessed by a reasoned pragma; pass the rest through.
fn apply_pragmas(a: &FileAnalysis, raw: Vec<Finding>, out: &mut Vec<Finding>) {
    let mut used = vec![false; a.pragmas.len()];
    for finding in raw {
        let suppressed = a.pragmas.iter().enumerate().any(|(pi, p)| {
            let hit = p.has_reason
                && p.blessed_line == finding.line
                && p.codes.iter().any(|c| c == finding.rule);
            if hit {
                used[pi] = true;
            }
            hit
        });
        if !suppressed {
            out.push(finding);
        }
    }
    // Stale pragmas: reasoned, well-formed, but suppressing nothing.
    for (pi, p) in a.pragmas.iter().enumerate() {
        if p.has_reason && !p.codes.is_empty() && !used[pi] {
            out.push(Finding {
                rule: HYGIENE,
                file: a.rel_path.clone(),
                line: p.line,
                col: p.col,
                message: format!(
                    "unused pragma: no {} finding on line {} to suppress; delete it",
                    p.codes.join("/"),
                    p.blessed_line
                ),
            });
        }
    }
}

/// Pragma-form diagnostics: missing reasons, unknown codes, legacy
/// marker forms.
fn hygiene(a: &FileAnalysis, out: &mut Vec<Finding>) {
    for p in &a.pragmas {
        if !p.has_reason {
            out.push(Finding {
                rule: HYGIENE,
                file: a.rel_path.clone(),
                line: p.line,
                col: p.col,
                message: "pragma has no reason; write `lint:allow(CODE) — <why this is safe>`"
                    .to_string(),
            });
        }
        if !p.unknown_codes.is_empty() {
            out.push(Finding {
                rule: HYGIENE,
                file: a.rel_path.clone(),
                line: p.line,
                col: p.col,
                message: format!(
                    "pragma cites unknown rule code(s) {}; known codes are {}",
                    p.unknown_codes.join(", "),
                    rules::CODES.join(", ")
                ),
            });
        }
    }
    for &(line, col) in &a.legacy_markers {
        out.push(Finding {
            rule: HYGIENE,
            file: a.rel_path.clone(),
            line,
            col,
            message: "legacy suppression marker; migrate to `lint:allow(SL001) — <reason>`"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_one(rel_path: &str, src: &str) -> Report {
        check_sources(&[(rel_path.to_string(), src.to_string())])
    }

    #[test]
    fn reasoned_pragma_suppresses_and_is_not_stale() {
        let src = "fn f() { assert!(x); // lint:allow(SL001) — invariant: x set in new()\n}\n";
        let r = check_one("crates/core/src/x.rs", src);
        assert!(r.is_clean(), "unexpected: {:?}", r.findings);
    }

    #[test]
    fn reasonless_pragma_suppresses_nothing_and_is_flagged() {
        let src = "fn f() { assert!(x); // lint:allow(SL001)\n}\n";
        let r = check_one("crates/core/src/x.rs", src);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"SL001"));
        assert!(rules.contains(&"SL000"));
    }

    #[test]
    fn stale_pragma_is_flagged() {
        let src = "fn f() { fine(); // lint:allow(SL001) — was fixed, pragma left behind\n}\n";
        let r = check_one("crates/core/src/x.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "SL000");
        assert!(r.findings[0].message.contains("unused pragma"));
    }

    #[test]
    fn unknown_code_is_flagged_with_the_registered_codes() {
        let src = "fn f() { y(); } // lint:allow(SL008) — retired rule\n";
        let r = check_one("crates/core/src/x.rs", src);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "SL000");
        assert!(
            r.findings[0]
                .message
                .ends_with("known codes are SL001, SL002, SL003, SL004, SL006, SL007"),
            "{}",
            r.findings[0].message
        );
    }

    #[test]
    fn legacy_marker_is_flagged() {
        let src = "fn f() { y(); } // lint:allow-panic — old form\n";
        let r = check_one("crates/core/src/x.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "SL000");
        assert!(r.findings[0].message.contains("legacy"));
    }

    #[test]
    fn out_of_scope_paths_get_no_sl001() {
        let src = "fn f() { assert!(x); assert_eq!(a, b); }\n";
        let r = check_one("crates/figures/src/x.rs", src);
        assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    }

    #[test]
    fn report_json_has_findings_and_stats() {
        let src = "fn f() { assert!(ok); }\n";
        let r = check_one("src/lib.rs", src);
        let json = r.to_json();
        assert!(json.contains("\"rule\":\"SL001\""));
        assert!(json.contains("\"files\":1"));
        assert!(json.contains("\"duration_ms\""));
    }

    #[test]
    fn findings_sorted_by_position() {
        let src = "fn f() { assert!(b); }\nfn g() { assert_eq!(x, 1); }\n";
        let r = check_one("src/lib.rs", src);
        assert_eq!(r.findings.len(), 2);
        assert!(r.findings[0].line < r.findings[1].line);
    }

    /// An ABBA inversion: `fwd` holds `a` and takes `b`, `back` the reverse.
    /// SL006 anchors the cycle at line 3, `fwd`'s outer acquisition.
    const INVERSION: &str = "struct P { a: Mutex<u32>, b: Mutex<u32> }\nimpl P {\n\
        fn fwd(&self) { let g = self.a.lock();{}\n let h = self.b.lock(); drop(h); drop(g); }\n\
        fn back(&self) { let g = self.b.lock(); let h = self.a.lock(); drop(h); drop(g); }\n}\n";

    #[test]
    fn workspace_findings_flow_through_pragmas() {
        // SL006 is a workspace rule; a reasoned pragma on the anchor line
        // must suppress it and count as used.
        let blessed = INVERSION.replace("{}", " // lint:allow(SL006) — fixture: intended order");
        let r = check_one("src/x.rs", &blessed);
        assert!(r.is_clean(), "unexpected: {:?}", r.findings);
        let bare = INVERSION.replace("{}", "");
        let r = check_one("src/x.rs", &bare);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "SL006");
        assert_eq!(r.findings[0].line, 3);
    }

    #[test]
    fn analyze_tree_writes_nothing_and_is_repeatable() {
        let dir = std::env::temp_dir().join(format!("sirum-lint-tree-test-{}", std::process::id()));
        let src_dir = dir.join("src");
        fs::create_dir_all(&src_dir).expect("mkdir");
        let src = format!(
            "pub fn f() {{ assert!(x); }}\n{}",
            INVERSION.replace("{}", "")
        );
        fs::write(src_dir.join("lib.rs"), src).expect("write");
        let listing = |d: &Path| {
            let mut names: Vec<_> = fs::read_dir(d)
                .expect("read_dir")
                .map(|e| e.expect("entry").file_name())
                .collect();
            names.sort();
            names
        };
        let before = (listing(&dir), listing(&src_dir));
        let first = analyze_tree(&dir).expect("first run");
        let second = analyze_tree(&dir).expect("second run");
        assert_eq!(before, (listing(&dir), listing(&src_dir)));
        let rules: Vec<&str> = first.report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["SL001", "SL006"]);
        assert_eq!(first.report.findings, second.report.findings);
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
