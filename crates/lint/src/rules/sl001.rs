//! SL001 — panic-freedom: no bare `assert!`/`assert_eq!`/`assert_ne!` in
//! non-test library and facade code. Token-accurate: strings and
//! comments cannot false-positive, and code *after* a `#[cfg(test)]` item
//! is still scanned.
//!
//! The rest of panic-freedom is clippy's, turned on in each crate root
//! this rule covers: `panic`, `todo`, `unimplemented`, `unwrap_used` and
//! `expect_used`, with `clippy.toml` exempting test code as this rule
//! does. Clippy has no lint for a bare assert, so this rule keeps that
//! arm. Deliberately out of scope: `debug_assert*` and `unreachable!` —
//! those document internal logic errors, not user-input-reachable
//! failures, and converting them to `Result`s would only bury corruption.

use super::{finding_at, Rule};
use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::resolve::FileSymbols;
use crate::syntax::SourceFile;

/// See module docs.
pub struct PanicFreedom;

const ASSERTS: &[&str] = &["assert", "assert_eq", "assert_ne"];

impl Rule for PanicFreedom {
    fn code(&self) -> &'static str {
        "SL001"
    }

    fn describe(&self) -> &'static str {
        "no bare assert!/assert_eq!/assert_ne! in non-test library+facade code"
    }

    fn applies(&self, rel_path: &str) -> bool {
        super::is_library_path(rel_path)
    }

    fn check(&self, file: &SourceFile, _sym: &FileSymbols, out: &mut Vec<Finding>) {
        for i in 0..file.sig.len() {
            if file.sig_kind(i) != Some(TokenKind::Ident) {
                continue;
            }
            let text = file.sig_text(i);
            if ASSERTS.contains(&text)
                && file.sig_text(i + 1) == "!"
                && !file.in_test(file.sig_offset(i))
            {
                finding_at(
                    file,
                    i,
                    self.code(),
                    format!(
                        "bare `{text}!` in library code; use a typed error for \
                         user-reachable conditions, or justify an internal invariant \
                         with `// lint:allow(SL001) — <reason>`"
                    ),
                    out,
                );
            }
        }
    }
}
