//! sirum-lint: a hand-rolled, zero-dependency static-analysis pass that
//! enforces the workspace invariants the toolchain cannot — no bare
//! `assert!` in library code (SL001), cancellation polling in data-scale
//! loops (SL002), no lock guard live across blocking calls (SL003),
//! accept-loop purity (SL004), no lock-order inversion across the call
//! graph (SL006) and no nondeterministic hash-order leaking into output
//! (SL007). The rest is the toolchain's: every crate root under `src/`
//! and `crates/*/src/` carries `#![forbid(unsafe_code)]`, and the library
//! roots turn on clippy's `panic`, `todo`, `unimplemented`, `unwrap_used`,
//! `expect_used`, `let_underscore_must_use` and `unused_result_ok`, with
//! every suppression a reasoned `#[expect]`.
//! See DESIGN.md "Enforced invariants" for the rule-by-rule rationale.
//!
//! Pipeline: [`lexer`] (total, tiling Rust lexer) → [`syntax`]
//! (brackets, test spans, fns, loops, pragmas) → [`resolve`] (per-file
//! symbol table: fns, impls, calls, aliases, hash-typed names) →
//! per-file [`rules`] → [`callgraph`] (workspace assembly: call
//! resolution, lock-set propagation, lock-order graph) → workspace
//! rules → [`driver`] (discovery, suppression, report). Every run walks
//! that one path over every file and keeps no state between runs.
//! [`locks`] holds the guard-liveness classifier shared by SL003 and the
//! lock summaries; [`jsonio`] is the dependency-free JSON writer behind
//! the graph artifacts and the pragma inventory.

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod callgraph;
pub mod diag;
pub mod driver;
pub mod jsonio;
pub mod lexer;
pub mod locks;
pub mod resolve;
pub mod rules;
pub mod syntax;

pub use diag::Finding;
pub use driver::{
    analyze_paths, analyze_sources, analyze_tree, check_paths, check_sources, check_tree,
    discover_files, Analysis, Report,
};
pub use syntax::SourceFile;
