//! Call-graph golden test: a frozen two-file mini-workspace must digest
//! into exactly this call graph and lock-order graph. Any drift in
//! symbol extraction, call resolution, lock-set propagation, or the
//! JSON emitters shows up here as a readable string diff.

use sirum_lint::callgraph::{FileSummary, Workspace};
use sirum_lint::resolve::FileSymbols;
use sirum_lint::syntax::SourceFile;

const FILE_A: &str = "pub struct Hub {\n    jobs: Mutex<Vec<u32>>,\n}\n\nimpl Hub {\n    pub fn enqueue(&self, v: u32) -> Result<(), String> {\n        let held = self.jobs.lock();\n        audit(v);\n        drop(held);\n        Ok(())\n    }\n}\n";

const FILE_B: &str = "pub fn audit(v: u32) {\n    record(v);\n}\n\nfn record(_v: u32) {}\n";

fn mini_workspace() -> Workspace {
    let files = [("src/a.rs", FILE_A), ("src/b.rs", FILE_B)]
        .iter()
        .map(|(path, src)| {
            let file = SourceFile::parse(path, src);
            let sym = FileSymbols::analyze(&file);
            FileSummary::build(&file, &sym)
        })
        .collect();
    Workspace::build(files)
}

#[test]
fn frozen_mini_workspace_callgraph_is_stable() {
    let ws = mini_workspace();
    let expected = concat!(
        "{\"fns\":[",
        "{\"acquires\":[\"jobs\"],\"calls\":[",
        "{\"line\":8,\"name\":\"audit\",\"resolved\":\"src/b.rs::audit\"},",
        "{\"line\":9,\"name\":\"drop\",\"resolved\":null},",
        "{\"line\":10,\"name\":\"Ok\",\"resolved\":null}],",
        "\"file\":\"src/a.rs\",\"impl_type\":\"Hub\",\"is_test\":false,\"line\":6,",
        "\"may_acquire\":[\"`jobs` (src/a.rs)\"],\"name\":\"enqueue\"},",
        "{\"acquires\":[],\"calls\":[",
        "{\"line\":2,\"name\":\"record\",\"resolved\":\"src/b.rs::record\"}],",
        "\"file\":\"src/b.rs\",\"impl_type\":null,\"is_test\":false,\"line\":1,",
        "\"may_acquire\":[],\"name\":\"audit\"},",
        "{\"acquires\":[],\"calls\":[],",
        "\"file\":\"src/b.rs\",\"impl_type\":null,\"is_test\":false,\"line\":5,",
        "\"may_acquire\":[],\"name\":\"record\"}]}",
    );
    assert_eq!(ws.callgraph_json(), expected);
}

#[test]
fn frozen_mini_workspace_lock_graph_is_stable() {
    let ws = mini_workspace();
    let graph = ws.lock_graph();
    assert_eq!(graph.edges.len(), 0, "no two-lock ordering exists here");
    assert!(graph.cycles().is_empty());
    // `enqueue` is the only acquirer, so `may_acquire` names exactly
    // one lock identity, rendered in its display form.
    let json = ws.callgraph_json();
    assert!(
        json.contains("\"may_acquire\":[\"`jobs` (src/a.rs)\"]"),
        "lock-set propagation drifted: {json}"
    );
}
