//! Resolution totality: symbol extraction, call-graph digestion, the
//! lock-set fixpoint, and the whole driver pipeline must never panic —
//! on generated Rust-ish programs and on arbitrary byte soup alike. The
//! analyzer runs in CI over whatever the tree contains mid-refactor, so
//! "malformed input" is a normal Tuesday, not an edge case.

use proptest::collection::vec;
use proptest::prelude::*;
use sirum_lint::callgraph::{FileSummary, Workspace};
use sirum_lint::driver::check_sources;
use sirum_lint::resolve::FileSymbols;
use sirum_lint::syntax::SourceFile;

/// Fragments biased toward what resolve/callgraph/locks actually read:
/// fn items, impl blocks, use-aliases, lock acquisitions, method chains,
/// hash annotations — plus unterminated wreckage.
const FRAGMENTS: &[&str] = &[
    "fn f() -> Result<(), E> { g()?; Ok(()) }",
    "pub fn g(x: u32) -> u32 { x }",
    "impl Hub { fn h(&self) { let held = self.jobs.lock(); self.tick(); drop(held); } }",
    "impl Hub { pub fn tick(&self) { self.state.lock().push(1); } }",
    "use std::collections::HashMap as Map;",
    "use crate::core::mine;",
    "let m: HashMap<String, u32> = HashMap::new();",
    "let keys: Vec<String> = m.keys().cloned().collect();",
    "for (k, v) in &m { out.push(k); }",
    "let _ = persist(data);",
    "handle.join().ok();",
    "let guard = state.read();",
    "struct S { jobs: Mutex<Vec<u32>>, cache: HashMap<u64, u64> }",
    "trait T { fn m(&self) -> Result<(), E>; }",
    "#[cfg(test)] mod tests { fn t() { x.unwrap(); } }",
    "fn unterminated( {",
    "impl {",
    "let broken = \"runs to eof",
    "/* unterminated block",
    "} } ) ( -> :: . self",
    "fn r#match(r#fn: u32) {}",
    "macro_rules! m { () => { lock() } }",
];

fn rustish_source() -> impl Strategy<Value = String> {
    vec((0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i]), 0..16).prop_map(|parts| parts.join("\n"))
}

/// Run the full analysis stack over one source; every layer must be
/// total. Returns a checksum so nothing gets optimized away.
fn analyze_everything(rel_path: &str, src: &str) -> usize {
    let file = SourceFile::parse(rel_path, src);
    let sym = FileSymbols::analyze(&file);
    let summary = FileSummary::build(&file, &sym);
    let ws = Workspace::build(vec![summary]);
    let graph = ws.lock_graph();
    let report = check_sources(&[(rel_path.to_string(), src.to_string())]);
    sym.fns.len() + graph.cycles().len() + ws.callgraph_json().len() + report.findings.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn resolution_is_total_on_rustish_source(src in rustish_source()) {
        analyze_everything("crates/core/src/x.rs", &src);
        analyze_everything("src/service.rs", &src);
    }

    #[test]
    fn resolution_is_total_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        analyze_everything("crates/core/src/x.rs", &src);
    }
}
