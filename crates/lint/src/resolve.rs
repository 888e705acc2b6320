//! Symbol resolution: the per-file item table the semantic layer is built
//! on. One pass over a [`SourceFile`] yields:
//!
//! * every `fn` with its enclosing `impl` type, test-ness, and the call
//!   sites in its body,
//! * `use … as …` aliases and local `type` aliases,
//! * the set of *hash-typed names* (locals, fields, params whose type or
//!   initializer names a `HashMap`/`HashSet`/`FxHashMap`/`FxHashSet`,
//!   directly or through a local `type` alias) — SL007's seed set.
//!
//! Everything here is name-based token analysis — no type inference. That
//! is exact for this workspace's style (locks and hash containers live in
//! named private fields) and keeps resolution a cheap, total pass: it must
//! never panic, whatever bytes it is fed (proptested).

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::locks;
use crate::syntax::SourceFile;

/// Container types whose iteration order is hash-dependent.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "in", "as", "move", "else", "impl",
    "where", "break",
];

/// One call site inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name (`wait_job` for `self.service.wait_job(…)`).
    pub name: String,
    /// Path qualifier directly before the name (`Rct` for
    /// `Rct::from_partials(…)`, `http` for `http::write_response(…)`).
    pub qualifier: Option<String>,
    /// True for `.name(…)` method calls.
    pub method: bool,
    /// Significant-token index of the callee name.
    pub sig_idx: usize,
    /// 1-based line.
    pub line: u32,
}

/// One `fn` item with everything the workspace layer needs.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// The fn's name.
    pub name: String,
    /// Enclosing `impl` type, when the fn is a method/assoc fn.
    pub impl_type: Option<String>,
    /// Index into [`SourceFile::fns`].
    pub fn_idx: usize,
    /// 1-based line of the name.
    pub line: u32,
    /// Whether the fn sits inside a `#[cfg(test)]`/`#[test]` span.
    pub is_test: bool,
    /// Body span (significant-token indices), when present.
    pub body: Option<(usize, usize)>,
    /// Call sites in the body, in token order.
    pub calls: Vec<CallSite>,
    /// Lock acquisitions in the body (identity + guard extent).
    pub locks: Vec<locks::LockAcquisition>,
}

/// A `use path::X as Y;` alias (or local `type Y = …;` alias).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseAlias {
    /// The introduced name.
    pub alias: String,
    /// The last path segment it renames.
    pub target: String,
}

/// The per-file symbol table.
#[derive(Debug, Clone, Default)]
pub struct FileSymbols {
    /// Every fn, in source order.
    pub fns: Vec<FnSym>,
    /// Names whose type or initializer is hash-ordered.
    pub hash_names: BTreeSet<String>,
    /// `use … as …` and `type` aliases.
    pub aliases: Vec<UseAlias>,
}

impl FileSymbols {
    /// Build the symbol table for one parsed file.
    pub fn analyze(file: &SourceFile) -> FileSymbols {
        let impls = impl_spans(file);
        let hash_types = local_hash_types(file);
        let mut fns = Vec::new();
        for (fn_idx, info) in file.fns.iter().enumerate() {
            let name = file.sig_text(info.name).to_string();
            let offset = file.sig_offset(info.name);
            let (line, _) = file.pos(offset);
            let impl_type = impls
                .iter()
                .find(|(_, start, end)| info.name > *start && info.name < *end)
                .map(|(ty, _, _)| ty.clone());
            let self_name = impl_type.clone().unwrap_or_default();
            let (calls, locks) = match info.body {
                Some((open, close)) => (
                    call_sites(file, open + 1, close),
                    locks::acquisitions_in(file, open + 1, close, &self_name),
                ),
                None => (Vec::new(), Vec::new()),
            };
            fns.push(FnSym {
                name,
                impl_type,
                fn_idx,
                line,
                is_test: file.in_test(offset),
                body: info.body,
                calls,
                locks,
            });
        }
        FileSymbols {
            fns,
            hash_names: hash_names(file, &hash_types),
            aliases: aliases(file),
        }
    }

    /// Whether `name` is hash-typed in this file.
    pub fn is_hash_name(&self, name: &str) -> bool {
        self.hash_names.contains(name)
    }
}

/// `(type_name, open_brace, close_brace)` of every `impl` block.
fn impl_spans(file: &SourceFile) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..file.sig.len() {
        if !file.sig_is_ident(i, "impl") {
            continue;
        }
        // Walk the header to its body `{`, tracking the self-type: the
        // path right after `impl` (skipping generics), overridden by the
        // path after a top-level `for` (trait impls).
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut ty: Option<String> = None;
        let mut open = None;
        while j < file.sig.len() {
            let text = file.sig_text(j);
            match text {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => {
                    open = Some(j);
                    break;
                }
                ";" if angle <= 0 => break,
                "for" if angle <= 0 => ty = None,
                _ => {
                    if ty.is_none()
                        && angle <= 0
                        && matches!(
                            file.sig_kind(j),
                            Some(TokenKind::Ident | TokenKind::RawIdent)
                        )
                        && !matches!(text, "dyn" | "mut" | "const" | "unsafe" | "where")
                    {
                        // Follow `a::b::C` to its last segment.
                        let mut k = j;
                        while file.sig_text(k + 1) == ":"
                            && file.sig_text(k + 2) == ":"
                            && matches!(file.sig_kind(k + 3), Some(TokenKind::Ident))
                        {
                            k += 3;
                        }
                        ty = Some(file.sig_text(k).to_string());
                    }
                }
            }
            j += 1;
        }
        if let (Some(ty), Some(open)) = (ty, open) {
            if let Some(close) = file.matching.get(open).copied().flatten() {
                spans.push((ty, open, close));
            }
        }
    }
    spans
}

/// Call sites in `[start, end)`: `.name(…)` method calls and `name(…)` /
/// `Qual::name(…)` free calls. Macros (`name!(…)`) are not calls.
fn call_sites(file: &SourceFile, start: usize, end: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in start..end {
        if !matches!(
            file.sig_kind(i),
            Some(TokenKind::Ident | TokenKind::RawIdent)
        ) {
            continue;
        }
        if file.sig_text(i + 1) != "(" {
            continue;
        }
        let name = file.sig_text(i);
        if CALL_KEYWORDS.contains(&name) {
            continue;
        }
        let method = i > 0 && file.sig_text(i - 1) == ".";
        let mut qualifier = None;
        if !method
            && i >= 3
            && file.sig_text(i - 1) == ":"
            && file.sig_text(i - 2) == ":"
            && matches!(file.sig_kind(i - 3), Some(TokenKind::Ident))
        {
            qualifier = Some(file.sig_text(i - 3).to_string());
        }
        let (line, _) = file.pos(file.sig_offset(i));
        out.push(CallSite {
            name: name.to_string(),
            qualifier,
            method,
            sig_idx: i,
            line,
        });
    }
    out
}

/// Local `type X = …;` aliases whose right-hand side names a hash type.
fn local_hash_types(file: &SourceFile) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = BTreeSet::new();
    for i in 0..file.sig.len() {
        if !file.sig_is_ident(i, "type") || !matches!(file.sig_kind(i + 1), Some(TokenKind::Ident))
        {
            continue;
        }
        let alias = file.sig_text(i + 1);
        let mut j = i + 2;
        let mut is_hash = false;
        while j < file.sig.len() && file.sig_text(j) != ";" {
            if HASH_TYPES.contains(&file.sig_text(j)) {
                is_hash = true;
            }
            j += 1;
        }
        if is_hash {
            out.insert(alias.to_string());
        }
    }
    out
}

/// Containers whose iteration order is deterministic. A name annotated
/// with one of these *anywhere* in the file vetoes its membership in
/// `hash_names`: name resolution here is file-scoped, so two structs
/// reusing a field name (one `HashMap`, one `BTreeMap`) would otherwise
/// smear hash-ness onto the ordered one. Ambiguity silences, never
/// flags.
const ORDERED_TYPES: &[&str] = &["BTreeMap", "BTreeSet", "Vec", "VecDeque"];

/// Names whose declared type or initializer is hash-ordered: `name: …
/// HashMap<…>` annotations (let/field/param) and `name = HashMap::new()`
/// style initializers, including file-local aliases. Names *also*
/// declared with an [`ORDERED_TYPES`] container somewhere in the file
/// are excluded as ambiguous.
fn hash_names(file: &SourceFile, local_aliases: &BTreeSet<String>) -> BTreeSet<String> {
    let is_hash_ty = |t: &str| HASH_TYPES.contains(&t) || local_aliases.contains(t);
    let is_ordered_ty = |t: &str| ORDERED_TYPES.contains(&t);
    let mut hashed = BTreeSet::new();
    let mut ordered = BTreeSet::new();
    for i in 0..file.sig.len() {
        if !matches!(
            file.sig_kind(i),
            Some(TokenKind::Ident | TokenKind::RawIdent)
        ) {
            continue;
        }
        // `name : Type` (not `::`). The first container name inside the
        // annotation window decides: `BTreeMap<K, HashSet<V>>` is
        // ordered at the top level, which is what iteration sees.
        if file.sig_text(i + 1) == ":"
            && file.sig_text(i + 2) != ":"
            && (i == 0 || file.sig_text(i - 1) != ":")
        {
            let mut depth = 0i32;
            for j in i + 2..(i + 34).min(file.sig.len()) {
                match file.sig_text(j) {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    ";" | "=" | "{" => break,
                    "," if depth == 0 => break,
                    t if is_hash_ty(t) => {
                        hashed.insert(file.sig_text(i).to_string());
                        break;
                    }
                    t if is_ordered_ty(t) => {
                        ordered.insert(file.sig_text(i).to_string());
                        break;
                    }
                    _ => {}
                }
            }
        }
        // `name = Type::…`.
        if file.sig_text(i + 1) == "=" && file.sig_text(i + 3) == ":" {
            let ty = file.sig_text(i + 2);
            if is_hash_ty(ty) {
                hashed.insert(file.sig_text(i).to_string());
            } else if is_ordered_ty(ty) {
                ordered.insert(file.sig_text(i).to_string());
            }
        }
    }
    &hashed - &ordered
}

/// `use … as …;` aliases plus local `type` aliases.
fn aliases(file: &SourceFile) -> Vec<UseAlias> {
    let mut out = Vec::new();
    for i in 0..file.sig.len() {
        let in_use_or_type = file.sig_is_ident(i, "as")
            && i >= 1
            && matches!(file.sig_kind(i - 1), Some(TokenKind::Ident))
            && matches!(file.sig_kind(i + 1), Some(TokenKind::Ident));
        if !in_use_or_type {
            continue;
        }
        // Only aliases inside `use` items: scan back to the statement
        // start and require the `use` keyword (casts share the `as`
        // keyword but sit in expressions).
        let stmt = locks::statement_start(file, i);
        if !file.sig_is_ident(stmt, "use") && !(file.sig_is_ident(stmt, "pub")) {
            continue;
        }
        if file.sig_is_ident(stmt, "pub") && !file.sig_is_ident(stmt + 1, "use") {
            continue;
        }
        out.push(UseAlias {
            alias: file.sig_text(i + 1).to_string(),
            target: file.sig_text(i - 1).to_string(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(src: &str) -> (SourceFile, FileSymbols) {
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let s = FileSymbols::analyze(&f);
        (f, s)
    }

    #[test]
    fn fns_get_impl_type_and_return_shape() {
        let (_, s) = sym("impl Frame { fn col(&self) -> &[u32] { &self.c } }\n\
             impl Clone for Wide<T> { fn clone(&self) -> Wide<T> { w() } }\n\
             fn free() -> Result<u32, E> { Ok(1) }\n");
        assert_eq!(s.fns.len(), 3);
        assert_eq!(s.fns[0].impl_type.as_deref(), Some("Frame"));
        assert_eq!(s.fns[1].impl_type.as_deref(), Some("Wide"));
        assert_eq!(s.fns[2].impl_type, None);
    }

    #[test]
    fn call_sites_capture_methods_and_qualified_calls() {
        let (_, s) = sym("fn f(x: T) { x.step(); Rct::from_partials(x); helper(1); go!(2); }\n");
        let calls: Vec<(&str, bool, Option<&str>)> = s.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.method, c.qualifier.as_deref()))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("step", true, None),
                ("from_partials", false, Some("Rct")),
                ("helper", false, None),
            ]
        );
    }

    #[test]
    fn hash_names_from_annotations_initializers_and_aliases() {
        let (_, s) = sym("type Lanes = FxHashMap<u64, Agg>;\n\
             struct S { groups: HashMap<u64, G>, order: Vec<u64> }\n\
             fn f() { let mut seen = HashSet::new(); let lanes: Lanes = Lanes::default();\n\
                 let inner: Mutex<FxHashMap<K, V>> = m(); let plain: Vec<u32> = v(); }\n");
        for name in ["groups", "seen", "lanes", "inner"] {
            assert!(s.is_hash_name(name), "{name} missing: {:?}", s.hash_names);
        }
        assert!(!s.is_hash_name("order"));
        assert!(!s.is_hash_name("plain"));
    }

    #[test]
    fn ordered_annotation_elsewhere_vetoes_hash_name() {
        // Two structs in one file reuse a field name; the BTreeMap one
        // must not inherit hash-ness from the HashMap one.
        let (_, s) = sym("struct Cache { entries: HashMap<Key, V> }\n\
             struct Registry { entries: BTreeMap<u64, R> }\n\
             struct Only { lanes: HashMap<u64, L> }\n");
        assert!(!s.is_hash_name("entries"), "{:?}", s.hash_names);
        assert!(s.is_hash_name("lanes"));
    }

    #[test]
    fn use_aliases_recorded_and_casts_ignored() {
        let (_, s) = sym("use a::b::Thing as Alias;\nfn f(x: u64) -> u32 { x as u32 }\n");
        assert_eq!(s.aliases.len(), 1);
        assert_eq!(s.aliases[0].alias, "Alias");
        assert_eq!(s.aliases[0].target, "Thing");
    }
}
