//! The workspace layer: per-file summaries, the intra-workspace call
//! graph, and the lock-order graph SL006 walks for cycles.
//!
//! A [`FileSummary`] is the digest of one file — fn names, impl types,
//! call sites and lock acquisitions with held extents. It is everything
//! the cross-file rule needs, and nothing tied to live token indices, so
//! the workspace phase owns its input outright once the per-file phase
//! has dropped tokens and source.
//!
//! Resolution is name-based: a free call resolves when exactly one
//! workspace fn bears the name; a method call when exactly one impl
//! defines it; `Type::assoc(…)` prefers the impl match. Ambiguity means
//! *unresolved* (never a guess), so the graph under-approximates — the
//! right bias for a deadlock/determinism gate that must stay quiet on
//! clean code.
//!
//! Lock identity is `(file, receiver-field)` — `jobs` acquired anywhere
//! in `src/service.rs` is one lock, and a same-named field in another
//! file is a different one. Held-lock sets propagate through resolved
//! calls to a fixpoint, every propagation step recording provenance so a
//! cycle report can print the full witness chain
//! (`f holds A and calls g → g acquires B`).

use std::collections::{BTreeMap, BTreeSet};

use crate::jsonio::{self, n, obj, s, Value};
use crate::locks;
use crate::resolve::FileSymbols;
use crate::syntax::SourceFile;

/// One lock acquisition inside a fn (summary form).
#[derive(Debug, Clone)]
pub struct LockEvent {
    /// Lock identity within the file (receiver field name).
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: u32,
}

/// One call site inside a fn (summary form).
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// Callee name.
    pub name: String,
    /// `Type::name(…)` qualifier, when present.
    pub qualifier: Option<String>,
    /// True for `.name(…)` method calls.
    pub method: bool,
    /// 1-based line of the call.
    pub line: u32,
    /// Indices into the fn's `acquires` whose guards are live here.
    pub held: Vec<usize>,
}

/// One fn in summary form.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Fn name.
    pub name: String,
    /// Enclosing impl type, when any.
    pub impl_type: Option<String>,
    /// 1-based line of the fn name.
    pub line: u32,
    /// Whether the fn is test code.
    pub is_test: bool,
    /// Lock acquisitions, in token order.
    pub acquires: Vec<LockEvent>,
    /// Call sites, in token order.
    pub calls: Vec<CallRecord>,
    /// `(outer, inner)` pairs into `acquires`: inner acquired while
    /// outer's guard is live (the direct lock-order edges).
    pub nested: Vec<(usize, usize)>,
}

/// The digest of one analyzed file.
#[derive(Debug, Clone, Default)]
pub struct FileSummary {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Every fn, in source order.
    pub fns: Vec<FnNode>,
}

impl FileSummary {
    /// Digest a freshly parsed file.
    pub fn build(file: &SourceFile, sym: &FileSymbols) -> FileSummary {
        let mut fns = Vec::with_capacity(sym.fns.len());
        for f in &sym.fns {
            let acquires: Vec<LockEvent> = f
                .locks
                .iter()
                .map(|a| LockEvent {
                    lock: a.lock.clone(),
                    line: a.line,
                })
                .collect();
            let acquire_sites: Vec<usize> = f.locks.iter().map(|a| a.sig_idx).collect();
            let mut calls = Vec::new();
            for c in &f.calls {
                // Lock/guard-chain calls are modeled as acquisitions, not
                // graph edges; skip the exact acquisition sites and the
                // std guard-preserving chain methods.
                if acquire_sites.contains(&c.sig_idx)
                    || locks::GUARD_PRESERVING.contains(&c.name.as_str())
                {
                    continue;
                }
                let held: Vec<usize> = f
                    .locks
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.sig_idx < c.sig_idx && c.sig_idx < a.live_end)
                    .map(|(ai, _)| ai)
                    .collect();
                calls.push(CallRecord {
                    name: c.name.clone(),
                    qualifier: c.qualifier.clone(),
                    method: c.method,
                    line: c.line,
                    held,
                });
            }
            let mut nested = Vec::new();
            for (ai, a) in f.locks.iter().enumerate() {
                for (bi, b) in f.locks.iter().enumerate() {
                    if ai != bi && a.sig_idx < b.sig_idx && b.sig_idx < a.live_end {
                        nested.push((ai, bi));
                    }
                }
            }
            fns.push(FnNode {
                name: f.name.clone(),
                impl_type: f.impl_type.clone(),
                line: f.line,
                is_test: f.is_test,
                acquires,
                calls,
                nested,
            });
        }
        FileSummary {
            rel_path: file.rel_path.clone(),
            fns,
        }
    }
}

/// A fn address: `(file index, fn index)` into [`Workspace::files`].
pub type FnId = (usize, usize);

/// How a fn came to (transitively) acquire a lock.
#[derive(Debug, Clone)]
enum Provenance {
    /// Acquired directly at this line.
    Direct(u32),
    /// Inherited from a resolved callee (call at `line`).
    Via(FnId, u32),
}

/// Method names that collide with the std container / iterator /
/// sync / io surface. A workspace method with one of these names is
/// never the target of name-only method resolution, because most call
/// sites with that name are std calls (`guard.iter()`,
/// `condvar.wait_timeout(..)`). Keep sorted; extend when a collision
/// produces a false call edge.
const STD_METHOD_COLLISIONS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "chain",
    "clear",
    "clone",
    "collect",
    "contains",
    "contains_key",
    "count",
    "dedup",
    "drain",
    "entry",
    "extend",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "flush",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "len",
    "load",
    "map",
    "map_err",
    "max",
    "min",
    "next",
    "notify_all",
    "notify_one",
    "ok_or",
    "or_else",
    "parse",
    "pop",
    "position",
    "push",
    "push_str",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "recv",
    "remove",
    "replace",
    "retain",
    "rev",
    "send",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "spawn",
    "split",
    "store",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "try_recv",
    "values",
    "wait",
    "wait_timeout",
    "write_all",
    "zip",
];

/// The resolved workspace: summaries plus name indexes and the
/// transitive may-acquire relation.
pub struct Workspace {
    /// Per-file summaries, in driver order (sorted by path).
    pub files: Vec<FileSummary>,
    /// name → method fns (those with an impl type).
    methods: BTreeMap<String, Vec<FnId>>,
    /// name → free fns.
    free: BTreeMap<String, Vec<FnId>>,
    /// (impl type, name) → fns.
    typed: BTreeMap<(String, String), Vec<FnId>>,
    /// Transitive lock set per fn, with witness provenance.
    may_acquire: BTreeMap<FnId, BTreeMap<String, Provenance>>,
}

impl Workspace {
    /// Index the summaries and run the lock-set fixpoint.
    pub fn build(files: Vec<FileSummary>) -> Workspace {
        let mut ws = Workspace {
            files,
            methods: BTreeMap::new(),
            free: BTreeMap::new(),
            typed: BTreeMap::new(),
            may_acquire: BTreeMap::new(),
        };
        for (fi, file) in ws.files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                let id = (fi, ni);
                if f.is_test {
                    // Test fns are not resolution targets: library code
                    // cannot call them, and their lock usage is scoped to
                    // the test harness.
                    continue;
                }
                match &f.impl_type {
                    Some(ty) => {
                        ws.methods.entry(f.name.clone()).or_default().push(id);
                        ws.typed
                            .entry((ty.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    None => ws.free.entry(f.name.clone()).or_default().push(id),
                }
            }
        }
        ws.propagate_locks();
        ws
    }

    /// The fn behind an id.
    pub fn fn_node(&self, id: FnId) -> &FnNode {
        &self.files[id.0].fns[id.1]
    }

    /// Resolve one call site to a unique workspace fn, or `None`.
    ///
    /// Method calls are resolved by name only (there are no receiver
    /// types at this layer), so a name that also exists on std types
    /// would mis-resolve every std use of it to the one workspace
    /// method — `guard.iter()` is slice iteration, not `Dataset::iter`.
    /// `STD_METHOD_COLLISIONS` lists such names; calls through them
    /// stay unresolved. Under-approximation: the call graph may miss
    /// edges, it must not invent them.
    pub fn resolve_call(&self, call: &CallRecord) -> Option<FnId> {
        let unique = |m: &BTreeMap<String, Vec<FnId>>| -> Option<FnId> {
            match m.get(&call.name).map(Vec::as_slice) {
                Some([only]) => Some(*only),
                _ => None,
            }
        };
        if call.method {
            if STD_METHOD_COLLISIONS.contains(&call.name.as_str()) {
                return None;
            }
            return unique(&self.methods);
        }
        if let Some(q) = &call.qualifier {
            if let Some(ids) = self.typed.get(&(q.clone(), call.name.clone())) {
                if let [only] = ids.as_slice() {
                    return Some(*only);
                }
                return None;
            }
        }
        unique(&self.free)
    }

    /// Lock identity key: `(file, receiver field)` rendered as one string.
    fn lock_key(&self, file_idx: usize, lock: &str) -> String {
        format!("{}\u{1}{}", self.files[file_idx].rel_path, lock)
    }

    /// Human form of a lock key: `` `lock` (file) ``.
    pub fn lock_display(key: &str) -> String {
        match key.split_once('\u{1}') {
            Some((file, lock)) => format!("`{lock}` ({file})"),
            None => format!("`{key}`"),
        }
    }

    /// Fixpoint: `may_acquire(f) = direct(f) ∪ ⋃ may_acquire(callee)`,
    /// recording how each lock was reached. Deterministic: ids iterate in
    /// `BTreeMap` order and first provenance wins.
    fn propagate_locks(&mut self) {
        let mut may: BTreeMap<FnId, BTreeMap<String, Provenance>> = BTreeMap::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                let mut direct = BTreeMap::new();
                for a in &f.acquires {
                    direct
                        .entry(self.lock_key(fi, &a.lock))
                        .or_insert(Provenance::Direct(a.line));
                }
                may.insert((fi, ni), direct);
            }
        }
        // Edge list once, to keep each pass cheap.
        let mut edges: Vec<(FnId, FnId, u32)> = Vec::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                for c in &f.calls {
                    if let Some(callee) = self.resolve_call(c) {
                        if callee != (fi, ni) {
                            edges.push(((fi, ni), callee, c.line));
                        }
                    }
                }
            }
        }
        // The lock-lattice height is tiny (dozens of locks); the fixpoint
        // settles in call-graph-diameter passes. Bound it anyway.
        for _ in 0..32 {
            let mut changed = false;
            for &(caller, callee, line) in &edges {
                let inherited: Vec<String> = may
                    .get(&callee)
                    .map(|m| m.keys().cloned().collect())
                    .unwrap_or_default();
                let into = may.entry(caller).or_default();
                for key in inherited {
                    if let std::collections::btree_map::Entry::Vacant(e) = into.entry(key) {
                        e.insert(Provenance::Via(callee, line));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.may_acquire = may;
    }

    /// The transitive lock keys a fn may acquire.
    pub fn locks_of(&self, id: FnId) -> Vec<String> {
        self.may_acquire
            .get(&id)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Witness chain for `id` reaching `lock`: `` calls `g` (line 12) →
    /// `h` acquires `x` (file:34) ``.
    fn chain_text(&self, mut id: FnId, lock: &str) -> String {
        let mut out = String::new();
        for _ in 0..16 {
            match self.may_acquire.get(&id).and_then(|m| m.get(lock)) {
                Some(Provenance::Direct(line)) => {
                    out.push_str(&format!(
                        "`{}` acquires {} at {}:{}",
                        self.fn_node(id).name,
                        Workspace::lock_display(lock),
                        self.files[id.0].rel_path,
                        line
                    ));
                    return out;
                }
                Some(Provenance::Via(callee, line)) => {
                    out.push_str(&format!(
                        "`{}` (line {}) calls ",
                        self.fn_node(id).name,
                        line
                    ));
                    id = *callee;
                }
                None => break,
            }
        }
        out.push('…');
        out
    }

    /// Build the lock-order graph: one edge per ordered pair of lock
    /// identities observed held-then-acquired, each with a witness.
    pub fn lock_graph(&self) -> LockGraph {
        let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
        for (fi, file) in self.files.iter().enumerate() {
            for f in &file.fns {
                if f.is_test {
                    continue;
                }
                // Direct same-fn nesting.
                for &(ai, bi) in &f.nested {
                    let (a, b) = (&f.acquires[ai], &f.acquires[bi]);
                    let from = self.lock_key(fi, &a.lock);
                    let to = self.lock_key(fi, &b.lock);
                    let witness = format!(
                        "`{}` ({}:{}) acquires {} then {} (line {})",
                        f.name,
                        file.rel_path,
                        a.line,
                        Workspace::lock_display(&from),
                        Workspace::lock_display(&to),
                        b.line
                    );
                    edges.entry((from.clone(), to.clone())).or_insert(LockEdge {
                        from,
                        to,
                        file: file.rel_path.clone(),
                        line: a.line,
                        witness,
                    });
                }
                // Held across a resolved call into lock-acquiring code.
                for c in &f.calls {
                    if c.held.is_empty() {
                        continue;
                    }
                    let Some(callee) = self.resolve_call(c) else {
                        continue;
                    };
                    for to in self.locks_of(callee) {
                        for &ai in &c.held {
                            let a = &f.acquires[ai];
                            let from = self.lock_key(fi, &a.lock);
                            let witness = format!(
                                "`{}` ({}:{}) holds {} and (line {}) calls {}",
                                f.name,
                                file.rel_path,
                                a.line,
                                Workspace::lock_display(&from),
                                c.line,
                                self.chain_text(callee, &to)
                            );
                            edges.entry((from.clone(), to.clone())).or_insert(LockEdge {
                                from,
                                to: to.clone(),
                                file: file.rel_path.clone(),
                                line: a.line,
                                witness,
                            });
                        }
                    }
                }
            }
        }
        LockGraph {
            edges: edges.into_values().collect(),
        }
    }

    /// The call-graph artifact CI uploads: every fn with its resolved
    /// call edges and lock set.
    pub fn callgraph_json(&self) -> String {
        let mut fns: Vec<Value> = Vec::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                let calls: Vec<Value> = f
                    .calls
                    .iter()
                    .map(|c| {
                        let resolved = self.resolve_call(c).map(|(tf, tn)| {
                            s(format!(
                                "{}::{}",
                                self.files[tf].rel_path, self.files[tf].fns[tn].name
                            ))
                        });
                        obj(vec![
                            ("name", s(&c.name)),
                            ("line", n(c.line)),
                            ("resolved", resolved.unwrap_or(Value::Null)),
                        ])
                    })
                    .collect();
                fns.push(obj(vec![
                    ("file", s(&file.rel_path)),
                    ("name", s(&f.name)),
                    (
                        "impl_type",
                        f.impl_type.as_deref().map(s).unwrap_or(Value::Null),
                    ),
                    ("line", n(f.line)),
                    ("is_test", Value::Bool(f.is_test)),
                    (
                        "acquires",
                        Value::Arr(f.acquires.iter().map(|a| s(&a.lock)).collect()),
                    ),
                    (
                        "may_acquire",
                        Value::Arr(
                            self.locks_of((fi, ni))
                                .iter()
                                .map(|k| s(Workspace::lock_display(k)))
                                .collect(),
                        ),
                    ),
                    ("calls", Value::Arr(calls)),
                ]));
            }
        }
        let mut root = BTreeMap::new();
        root.insert("fns".to_string(), Value::Arr(fns));
        Value::Obj(root).to_json()
    }
}

/// One edge in the lock-order graph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Held lock (key form).
    pub from: String,
    /// Lock acquired while `from` is held (key form).
    pub to: String,
    /// File anchoring the witness.
    pub file: String,
    /// Line of the outer acquisition.
    pub line: u32,
    /// Full human witness for this ordering.
    pub witness: String,
}

/// A cycle in the lock-order graph: the edges, in order.
#[derive(Debug, Clone)]
pub struct LockCycle {
    /// Edge indices into [`LockGraph::edges`], in traversal order.
    pub edges: Vec<usize>,
}

/// The lock-order graph with its cycles.
pub struct LockGraph {
    /// Deduplicated ordering edges, sorted by `(from, to)`.
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// Every elementary inversion: for each edge `A→B`, the shortest
    /// return path `B→…→A` (BFS), deduplicated by node set. Self-edges
    /// (`A→A`, reentrant acquisition) are single-edge cycles.
    pub fn cycles(&self) -> Vec<LockCycle> {
        let mut adj: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (ei, e) in self.edges.iter().enumerate() {
            adj.entry(e.from.as_str()).or_default().push(ei);
        }
        let mut seen: BTreeSet<Vec<&str>> = BTreeSet::new();
        let mut out = Vec::new();
        for (ei, e) in self.edges.iter().enumerate() {
            if e.from == e.to {
                if seen.insert(vec![e.from.as_str()]) {
                    out.push(LockCycle { edges: vec![ei] });
                }
                continue;
            }
            // BFS from e.to back to e.from.
            let mut parent: BTreeMap<&str, usize> = BTreeMap::new();
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(e.to.as_str());
            let mut found = false;
            while let Some(node) = queue.pop_front() {
                if node == e.from {
                    found = true;
                    break;
                }
                for &next_edge in adj.get(node).map(Vec::as_slice).unwrap_or(&[]) {
                    let next = self.edges[next_edge].to.as_str();
                    if next != e.to && !parent.contains_key(next) {
                        parent.insert(next, next_edge);
                        queue.push_back(next);
                    }
                }
            }
            if !found {
                continue;
            }
            // Reconstruct e.to → e.from, then prepend e.
            let mut path = Vec::new();
            let mut node = e.from.as_str();
            while node != e.to {
                let Some(&through) = parent.get(node) else {
                    break;
                };
                path.push(through);
                node = self.edges[through].from.as_str();
            }
            path.push(ei);
            path.reverse();
            let mut nodes: Vec<&str> = path.iter().map(|&p| self.edges[p].from.as_str()).collect();
            nodes.sort_unstable();
            if seen.insert(nodes) {
                out.push(LockCycle { edges: path });
            }
        }
        out
    }

    /// The lock-order-graph artifact CI uploads.
    pub fn to_json(&self) -> String {
        let nodes: BTreeSet<&str> = self
            .edges
            .iter()
            .flat_map(|e| [e.from.as_str(), e.to.as_str()])
            .collect();
        let edges: Vec<Value> = self
            .edges
            .iter()
            .map(|e| {
                obj(vec![
                    ("from", s(Workspace::lock_display(&e.from))),
                    ("to", s(Workspace::lock_display(&e.to))),
                    ("file", s(&e.file)),
                    ("line", n(e.line)),
                    ("witness", s(&e.witness)),
                ])
            })
            .collect();
        let cycles: Vec<Value> = self
            .cycles()
            .iter()
            .map(|c| {
                Value::Arr(
                    c.edges
                        .iter()
                        .map(|&ei| s(&self.edges[ei].witness))
                        .collect(),
                )
            })
            .collect();
        jsonio::obj(vec![
            (
                "nodes",
                Value::Arr(
                    nodes
                        .into_iter()
                        .map(|k| s(Workspace::lock_display(k)))
                        .collect(),
                ),
            ),
            ("edges", Value::Arr(edges)),
            ("cycles", Value::Arr(cycles)),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(sources: &[(&str, &str)]) -> Workspace {
        let files = sources
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
    fn cross_file_inversion_found_with_witness() {
        let w = ws(&[
            (
                "src/a.rs",
                "impl A { fn forward(&self) { let g = self.alpha.lock(); self.tail(); }\n\
                 fn tail(&self) { let h = self.beta.lock(); h.touch(); } }\n",
            ),
            (
                "src/b.rs",
                "impl B { fn backward(&self) { let g = self.beta.lock(); self.head(); }\n\
                 fn head(&self) { let h = self.alpha.lock(); h.touch(); } }\n",
            ),
        ]);
        // Identity is per-file, so a.rs's beta and b.rs's beta differ —
        // use one file to make the cycle real.
        let w2 = ws(&[(
            "src/a.rs",
            "impl A { fn forward(&self) { let g = self.alpha.lock(); self.tail(); }\n\
             fn tail(&self) { let h = self.beta.lock(); h.touch(); }\n\
             fn backward(&self) { let g = self.beta.lock(); self.head(); }\n\
             fn head(&self) { let h = self.alpha.lock(); h.touch(); } }\n",
        )]);
        assert!(w.lock_graph().cycles().is_empty());
        let graph = w2.lock_graph();
        let cycles = graph.cycles();
        assert_eq!(cycles.len(), 1, "edges: {:#?}", graph.edges);
        let witness: Vec<&str> = cycles[0]
            .edges
            .iter()
            .map(|&ei| graph.edges[ei].witness.as_str())
            .collect();
        assert!(
            witness.iter().any(|t| t.contains("`forward`")),
            "{witness:?}"
        );
        assert!(
            witness.iter().any(|t| t.contains("`backward`")),
            "{witness:?}"
        );
        assert!(witness.iter().any(|t| t.contains("calls `tail` acquires")
            || t.contains("calls `head` acquires")
            || t.contains("calls ")),);
    }

    #[test]
    fn reentrant_self_edge_is_a_cycle() {
        let w = ws(&[(
            "src/a.rs",
            "impl A { fn outer(&self) { let g = self.state.lock(); self.inner_step(); }\n\
             fn inner_step(&self) { let h = self.state.lock(); h.poke(); } }\n",
        )]);
        let graph = w.lock_graph();
        let cycles = graph.cycles();
        assert_eq!(cycles.len(), 1, "edges: {:#?}", graph.edges);
        assert_eq!(cycles[0].edges.len(), 1);
    }

    #[test]
    fn ambiguous_names_do_not_resolve() {
        let w = ws(&[(
            "src/a.rs",
            "impl A { fn go(&self) { } }\nimpl B { fn go(&self) { } }\n\
             fn caller(x: &A) { x.go(); }\n",
        )]);
        let call = CallRecord {
            name: "go".into(),
            qualifier: None,
            method: true,
            line: 3,
            held: vec![],
        };
        assert_eq!(w.resolve_call(&call), None);
    }

    #[test]
    fn transitive_locks_propagate_through_call_chain() {
        let w = ws(&[(
            "src/a.rs",
            "fn top() { mid(); }\nfn mid() { bottom(); }\n\
             impl C { fn helper(&self) { let g = self.deep.lock(); g.t(); } }\n\
             fn bottom() { c().helper(); }\n",
        )]);
        let top = (
            0,
            w.files[0].fns.iter().position(|f| f.name == "top").unwrap(),
        );
        let locks = w.locks_of(top);
        assert_eq!(locks.len(), 1, "{locks:?}");
        assert!(locks[0].ends_with("deep"));
    }
}
