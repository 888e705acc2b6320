//! Diagnostics: the finding type shared by every rule plus human and JSON
//! rendering. The JSON writer is hand-rolled (the crate has zero
//! dependencies) and emits one stable shape CI archives as an artifact.

/// One diagnostic: a rule code anchored at `file:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule code, e.g. `"SL001"`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Finding {
    /// `file:line:col: CODE message` — the grep-able human form.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}:{}: {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Escape `s` as a JSON string body (without surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render one finding as a JSON object.
pub fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
        f.rule,
        json_escape(&f.file),
        f.line,
        f.col,
        json_escape(&f.message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering_is_file_line_col_code() {
        let f = Finding {
            rule: "SL001",
            file: "crates/core/src/x.rs".into(),
            line: 3,
            col: 9,
            message: "panic! in library code".into(),
        };
        assert_eq!(
            f.render_human(),
            "crates/core/src/x.rs:3:9: SL001 panic! in library code"
        );
    }

    #[test]
    fn json_escapes_quotes_newlines_and_controls() {
        assert_eq!(
            json_escape("a\"b\\c\nd\te\u{1}"),
            "a\\\"b\\\\c\\nd\\te\\u0001"
        );
        let f = Finding {
            rule: "SL007",
            file: "a\"b.rs".into(),
            line: 1,
            col: 1,
            message: "x".into(),
        };
        assert!(finding_json(&f).contains("\"file\":\"a\\\"b.rs\""));
    }
}
