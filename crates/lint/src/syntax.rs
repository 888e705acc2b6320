//! Lightweight structural layer over the token stream: line/column
//! mapping, a brace/paren match map, `#[cfg(test)]`/`#[test]` item spans,
//! `fn` signatures, loop headers/bodies, and `// lint:allow(SLNNN) — why`
//! pragma parsing. No AST — rules work on significant-token adjacency
//! plus these spans, which is exactly enough for the invariants they
//! check and keeps the analyzer a single pass per file.

use crate::lexer::{lex, Token, TokenKind};

/// A parsed suppression pragma: `// lint:allow(SL001, SL003) — reason`.
///
/// Scoping follows the retired awk gate: a pragma trailing code on its own
/// line blesses that line; a pragma alone on a line blesses the line
/// directly below. Nothing else — a pragma can never leak onto distant
/// code through intervening comment blocks.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Uppercased rule codes listed in the parens (e.g. `"SL001"`).
    pub codes: Vec<String>,
    /// Codes that do not name a known rule (reported as SL000).
    pub unknown_codes: Vec<String>,
    /// Whether a non-empty `— reason` (or `- reason`) follows the parens.
    pub has_reason: bool,
    /// The reason text after the dash (empty when `has_reason` is false).
    pub reason: String,
    /// 1-based line the pragma comment sits on.
    pub line: u32,
    /// 1-based byte column of the comment token.
    pub col: u32,
    /// 1-based line whose findings this pragma suppresses.
    pub blessed_line: u32,
}

/// A `fn` item: name, parameter-list span and (for non-trait-decl fns)
/// body span, all as indices into the significant-token list.
#[derive(Debug, Clone, Copy)]
pub struct FnInfo {
    /// Significant-token index of the `fn` name.
    pub name: usize,
    /// Significant-token range `(open_paren, close_paren)` of the params.
    pub params: (usize, usize),
    /// Significant-token range `(open_brace, close_brace)` of the body,
    /// when the fn has one.
    pub body: Option<(usize, usize)>,
}

/// A `for`/`while`/`loop` with its header and body spans (significant-
/// token indices). `impl Trait for Type` and `for<'a>` binders are not
/// loops and are excluded.
#[derive(Debug, Clone, Copy)]
pub struct LoopInfo {
    /// Significant-token index of the loop keyword.
    pub keyword: usize,
    /// Significant tokens strictly between the keyword and the body brace.
    pub header: (usize, usize),
    /// Significant-token range `(open_brace, close_brace)` of the body.
    pub body: (usize, usize),
}

/// One fully lexed and structurally indexed source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// The file contents.
    pub src: String,
    /// Every token, tiling `src`.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (non-whitespace, non-comment)
    /// tokens.
    pub sig: Vec<usize>,
    /// For each *significant-token index*, the significant-token index of
    /// its matching bracket (for `(` `)` `[` `]` `{` `}`), if balanced.
    pub matching: Vec<Option<usize>>,
    /// Byte spans of items annotated `#[cfg(test)]` / `#[test]`.
    pub test_spans: Vec<(usize, usize)>,
    /// Parsed `lint:allow` pragmas.
    pub pragmas: Vec<Pragma>,
    /// Every `fn` item found.
    pub fns: Vec<FnInfo>,
    /// Every loop found.
    pub loops: Vec<LoopInfo>,
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Lex and index `src`.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace
                        | TokenKind::LineComment { .. }
                        | TokenKind::BlockComment { .. }
                )
            })
            .map(|(i, _)| i)
            .collect();
        let mut file = SourceFile {
            rel_path: rel_path.replace('\\', "/"),
            src: src.to_string(),
            tokens,
            sig,
            matching: Vec::new(),
            test_spans: Vec::new(),
            pragmas: Vec::new(),
            fns: Vec::new(),
            loops: Vec::new(),
            line_starts,
        };
        file.matching = file.match_brackets();
        file.test_spans = file.find_test_spans();
        file.pragmas = file.find_pragmas();
        file.fns = file.find_fns();
        file.loops = file.find_loops();
        file
    }

    /// 1-based `(line, column)` of a byte offset (column counts bytes).
    pub fn pos(&self, offset: usize) -> (u32, u32) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        let col = offset.saturating_sub(*self.line_starts.get(line).unwrap_or(&0)) + 1;
        (line as u32 + 1, col as u32)
    }

    /// The token behind significant index `i`.
    pub fn sig_tok(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).and_then(|&ti| self.tokens.get(ti))
    }

    /// Text of significant token `i` (empty when out of range).
    pub fn sig_text(&self, i: usize) -> &str {
        self.sig_tok(i).map(|t| t.text(&self.src)).unwrap_or("")
    }

    /// Kind of significant token `i`.
    pub fn sig_kind(&self, i: usize) -> Option<TokenKind> {
        self.sig_tok(i).map(|t| t.kind)
    }

    /// Whether significant token `i` is an identifier with this exact text.
    pub fn sig_is_ident(&self, i: usize, text: &str) -> bool {
        matches!(self.sig_kind(i), Some(TokenKind::Ident)) && self.sig_text(i) == text
    }

    /// Byte offset of significant token `i` (0 when out of range).
    pub fn sig_offset(&self, i: usize) -> usize {
        self.sig_tok(i).map(|t| t.start).unwrap_or(0)
    }

    /// True when the byte offset falls inside a `#[cfg(test)]`/`#[test]`
    /// item.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(start, end)| offset >= start && offset < end)
    }

    fn match_brackets(&self) -> Vec<Option<usize>> {
        let mut matching = vec![None; self.sig.len()];
        let mut stack: Vec<(usize, &str)> = Vec::new();
        for i in 0..self.sig.len() {
            if self.sig_kind(i) != Some(TokenKind::Punct) {
                continue;
            }
            match self.sig_text(i) {
                open @ ("(" | "[" | "{") => stack.push((i, open)),
                ")" | "]" | "}" => {
                    let want = match self.sig_text(i) {
                        ")" => "(",
                        "]" => "[",
                        _ => "{",
                    };
                    // Pop unbalanced leftovers so one stray bracket cannot
                    // derail the rest of the file.
                    while let Some((j, open)) = stack.pop() {
                        if open == want {
                            matching[i] = Some(j);
                            matching[j] = Some(i);
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        matching
    }

    /// Byte spans of items carrying a test attribute: from `#[…test…]` we
    /// skip any further attributes, then span the next braced body (or
    /// nothing for `;`-terminated items).
    fn find_test_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut i = 0;
        while i < self.sig.len() {
            if self.sig_text(i) == "#" && self.sig_text(i + 1) == "[" {
                let Some(close) = self.matching.get(i + 1).copied().flatten() else {
                    i += 1;
                    continue;
                };
                let is_test_attr = (i + 2..close).any(|j| self.sig_is_ident(j, "test"));
                if !is_test_attr {
                    i = close + 1;
                    continue;
                }
                // Skip stacked attributes after the test attribute.
                let mut j = close + 1;
                while self.sig_text(j) == "#" && self.sig_text(j + 1) == "[" {
                    match self.matching.get(j + 1).copied().flatten() {
                        Some(c) => j = c + 1,
                        None => break,
                    }
                }
                // Find the item's body brace before any `;`.
                let mut body = None;
                let mut k = j;
                while k < self.sig.len() {
                    let text = self.sig_text(k);
                    if text == "{" {
                        body = self.matching.get(k).copied().flatten().map(|c| (k, c));
                        break;
                    }
                    if text == ";" {
                        break;
                    }
                    k += 1;
                }
                if let Some((open, closeb)) = body {
                    let start = self.sig_offset(open);
                    let end = self
                        .sig_tok(closeb)
                        .map(|t| t.end)
                        .unwrap_or(self.src.len());
                    spans.push((start, end));
                    i = closeb + 1;
                    continue;
                }
                i = k + 1;
                continue;
            }
            i += 1;
        }
        spans
    }

    fn find_pragmas(&self) -> Vec<Pragma> {
        let mut pragmas = Vec::new();
        for tok in &self.tokens {
            // Doc comments are documentation (and may *mention* pragma
            // syntax); only plain `//` comments carry pragmas.
            if !matches!(tok.kind, TokenKind::LineComment { doc: false }) {
                continue;
            }
            let text = tok.text(&self.src);
            let Some(at) = text.find("lint:allow(") else {
                continue;
            };
            let after_open = &text[at + "lint:allow(".len()..];
            let Some(close) = after_open.find(')') else {
                continue;
            };
            let mut codes = Vec::new();
            let mut unknown_codes = Vec::new();
            for raw in after_open[..close].split(',') {
                let code = raw.trim().to_ascii_uppercase();
                if code.is_empty() {
                    continue;
                }
                if crate::rules::known_rule(&code) {
                    codes.push(code);
                } else {
                    unknown_codes.push(code);
                }
            }
            let tail = after_open[close + 1..].trim_start();
            let reason = tail.trim_start_matches(['—', '-', ' ']).trim().to_string();
            let has_reason = (tail.starts_with('—') || tail.starts_with('-')) && reason.len() >= 3;
            let (line, col) = self.pos(tok.start);
            // Same-line pragma when code precedes the comment on its line;
            // otherwise the pragma blesses the next line.
            let line_start = *self.line_starts.get(line as usize - 1).unwrap_or(&0);
            let code_before = self.sig.iter().any(|&ti| {
                let t = &self.tokens[ti];
                t.start >= line_start && t.end <= tok.start
            });
            let blessed_line = if code_before { line } else { line + 1 };
            pragmas.push(Pragma {
                codes,
                unknown_codes,
                has_reason,
                reason: if has_reason { reason } else { String::new() },
                line,
                col,
                blessed_line,
            });
        }
        pragmas
    }

    fn find_fns(&self) -> Vec<FnInfo> {
        let mut fns = Vec::new();
        for i in 0..self.sig.len() {
            if !self.sig_is_ident(i, "fn") {
                continue;
            }
            // `fn` name: the next ident (skipping nothing — Rust puts the
            // name right after, except in fn-pointer types `fn(..)` which
            // have no name and are skipped here).
            if !matches!(
                self.sig_kind(i + 1),
                Some(TokenKind::Ident | TokenKind::RawIdent)
            ) {
                continue;
            }
            let name = i + 1;
            // Scan to the parameter parens (over any generics).
            let mut j = name + 1;
            let mut params = None;
            while j < self.sig.len() {
                match self.sig_text(j) {
                    "(" => {
                        params = self.matching.get(j).copied().flatten().map(|c| (j, c));
                        break;
                    }
                    "{" | ";" => break,
                    _ => j += 1,
                }
            }
            let Some(params) = params else {
                continue;
            };
            // Body: first `{` before `;` after the params.
            let mut body = None;
            let mut k = params.1 + 1;
            while k < self.sig.len() {
                match self.sig_text(k) {
                    "{" => {
                        body = self.matching.get(k).copied().flatten().map(|c| (k, c));
                        break;
                    }
                    ";" => break,
                    _ => k += 1,
                }
            }
            fns.push(FnInfo { name, params, body });
        }
        fns
    }

    fn find_loops(&self) -> Vec<LoopInfo> {
        let mut loops = Vec::new();
        for i in 0..self.sig.len() {
            let kw = self.sig_text(i);
            if !(self.sig_is_ident(i, "for")
                || self.sig_is_ident(i, "while")
                || self.sig_is_ident(i, "loop"))
            {
                continue;
            }
            // `for<'a>` higher-ranked binders are not loops.
            if kw == "for" && self.sig_text(i + 1) == "<" {
                continue;
            }
            // Find the body `{` at bracket depth 0 relative to the keyword.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut open = None;
            while j < self.sig.len() {
                match self.sig_text(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth <= 0 => {
                        open = Some(j);
                        break;
                    }
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    ";" if depth <= 0 => break, // not a loop after all
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = open else {
                continue;
            };
            let Some(close) = self.matching.get(open).copied().flatten() else {
                continue;
            };
            // `impl Trait for Type { … }`: a real for-loop header contains
            // a top-level `in`.
            if kw == "for" && !(i + 1..open).any(|h| self.sig_is_ident(h, "in")) {
                continue;
            }
            loops.push(LoopInfo {
                keyword: i,
                header: (i + 1, open),
                body: (open, close),
            });
        }
        loops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_are_one_based_lines_and_columns() {
        let f = SourceFile::parse("x.rs", "ab\ncde\nf");
        assert_eq!(f.pos(0), (1, 1));
        assert_eq!(f.pos(3), (2, 1));
        assert_eq!(f.pos(5), (2, 3));
        assert_eq!(f.pos(7), (3, 1));
    }

    #[test]
    fn cfg_test_mod_is_a_test_span_and_code_after_it_is_not() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", src);
        let tests_body = src.find("mod tests").unwrap() + 20;
        assert!(f.in_test(tests_body));
        assert!(!f.in_test(src.find("fn lib").unwrap()));
        // Unlike the retired awk gate, scanning resumes after the test mod.
        assert!(!f.in_test(src.find("fn after").unwrap()));
    }

    #[test]
    fn test_attribute_with_stacked_attrs_spans_the_fn_body() {
        let src = "#[test]\n#[ignore]\nfn t() { body(); }\nfn real() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.in_test(src.find("body").unwrap()));
        assert!(!f.in_test(src.find("fn real").unwrap()));
    }

    #[test]
    fn cfg_test_on_use_item_spans_nothing() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() { x(); }\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_test(src.find("x()").unwrap()));
    }

    #[test]
    fn pragma_same_line_vs_line_above() {
        let src =
            "foo(); // lint:allow(SL001) — same line\n// lint:allow(SL002) — line above\nbar();\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.pragmas.len(), 2);
        assert_eq!(f.pragmas[0].codes, vec!["SL001"]);
        assert_eq!(f.pragmas[0].blessed_line, 1);
        assert!(f.pragmas[0].has_reason);
        assert_eq!(f.pragmas[1].codes, vec!["SL002"]);
        assert_eq!(f.pragmas[1].blessed_line, 3);
    }

    #[test]
    fn pragma_without_reason_or_with_unknown_code_is_detected() {
        let src = "// lint:allow(SL001)\n// lint:allow(SL999) — made up\n\
                   // lint:allow(SL008) — retired: clippy owns discards\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.pragmas[0].has_reason);
        assert!(f.pragmas[1].has_reason);
        assert_eq!(f.pragmas[1].unknown_codes, vec!["SL999"]);
        assert!(f.pragmas[2].codes.is_empty());
        assert_eq!(f.pragmas[2].unknown_codes, vec!["SL008"]);
    }

    #[test]
    fn pragma_accepts_ascii_dash_and_multiple_codes() {
        let src = "// lint:allow(SL001, sl003) - both, ascii dash\nx();\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.pragmas[0].codes, vec!["SL001", "SL003"]);
        assert!(f.pragmas[0].has_reason);
        assert_eq!(f.pragmas[0].blessed_line, 2);
    }

    #[test]
    fn fns_capture_params_and_body() {
        let src = "fn a(x: u32) -> u32 { x }\ntrait T { fn decl(&self); }\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.sig_text(f.fns[0].name), "a");
        assert!(f.fns[0].body.is_some());
        assert_eq!(f.sig_text(f.fns[1].name), "decl");
        assert!(f.fns[1].body.is_none());
    }

    #[test]
    fn loops_found_and_impl_for_excluded() {
        let src = "impl Clone for X { fn clone(&self) -> X { for i in 0..n { poll(); } X } }\nfn g() { while ready { step(); } loop { break; } }\n";
        let f = SourceFile::parse("x.rs", src);
        let kws: Vec<&str> = f.loops.iter().map(|l| f.sig_text(l.keyword)).collect();
        assert_eq!(kws, vec!["for", "while", "loop"]);
        let for_loop = &f.loops[0];
        assert!((for_loop.header.0..for_loop.header.1).any(|h| f.sig_is_ident(h, "i")));
    }

    #[test]
    fn for_loop_header_with_method_calls_and_closures() {
        let src =
            "fn g() { for (i, row) in rows.iter().map(|r| f(r)).enumerate() { use_it(i, row); } }";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.loops.len(), 1);
        let l = &f.loops[0];
        assert!((l.header.0..l.header.1).any(|h| f.sig_is_ident(h, "rows")));
        assert!((l.body.0..l.body.1).any(|h| f.sig_is_ident(h, "use_it")));
    }

    #[test]
    fn brackets_match_through_nesting() {
        let src = "fn f() { a(b[c(d)]); }";
        let f = SourceFile::parse("x.rs", src);
        for i in 0..f.sig.len() {
            if let "(" | "[" | "{" = f.sig_text(i) {
                let m = f.matching[i].expect("balanced");
                assert_eq!(f.matching[m], Some(i));
            }
        }
    }
}
