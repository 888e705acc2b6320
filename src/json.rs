//! Hand-rolled JSON encoding *and* parsing (the build is offline, so no
//! serde): machine-consumable `MiningResult` serialization for the CLI's
//! `--format json`, plus the RFC 8259 parser the wire front end
//! ([`crate::net`]) uses to decode request bodies.
//!
//! The encoder is deliberately tiny — string escaping per RFC 8259, floats
//! via Rust's shortest-round-trip `Display` (non-finite values become
//! `null`), and one composer for [`MiningResult`]. The parser
//! ([`parse_json`]) is a recursive-descent reader into [`JsonValue`] with
//! typed positional errors ([`JsonError`]) and hard depth (64) and size
//! (16 MiB) limits so hostile wire input cannot blow the stack or the
//! heap.

use sirum_core::{MiningResult, Rule, WILDCARD};
use sirum_table::Table;

/// Escape `s` as a JSON string literal (including the surrounding quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a float as a JSON number; non-finite values (which JSON cannot
/// represent) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_f64_array(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(json_number).collect();
    format!("[{}]", items.join(","))
}

/// One rule as a JSON object: the display string, the per-dimension values
/// (`null` for wildcards, decoded strings otherwise) and the reporting
/// aggregates.
fn rule_json(id: usize, rule: &Rule, avg: f64, count: u64, gain: f64, table: &Table) -> String {
    let values: Vec<String> = (0..rule.arity())
        .map(|i| match rule.get(i) {
            WILDCARD => "null".to_string(),
            code => json_string(table.decode(i, code)),
        })
        .collect();
    format!(
        "{{\"id\":{id},\"rule\":{},\"values\":[{}],\"avg_measure\":{},\"count\":{count},\"gain\":{}}}",
        json_string(&rule.display(table)),
        values.join(","),
        json_number(avg),
        json_number(gain),
    )
}

/// Serialize a [`MiningResult`] (with the table it was mined from, for
/// schema names and dictionary decoding) as a single JSON object.
///
/// ```
/// use sirum::service::SirumService;
///
/// let service = SirumService::in_memory()?;
/// let flights = service.register_demo("flights")?;
/// let output = service.mine("flights").k(2).sample_size(14).run()?;
/// let json = sirum::json::mining_result_to_json(&output.result, &flights);
/// assert!(json.starts_with('{') && json.ends_with('}'));
/// assert!(json.contains("\"rules\":["));
/// assert!(json.contains("\"measure\":\"Delay\""));
/// # Ok::<(), sirum::core::SirumError>(())
/// ```
pub fn mining_result_to_json(result: &MiningResult, table: &Table) -> String {
    let dims: Vec<String> = table
        .schema()
        .dim_names()
        .iter()
        .map(|n| json_string(n))
        .collect();
    let rules: Vec<String> = result
        .rules
        .iter()
        .enumerate()
        .map(|(i, r)| rule_json(i + 1, &r.rule, r.avg_measure, r.count, r.gain, table))
        .collect();
    let scaling_iterations: Vec<String> = result
        .scaling_iterations
        .iter()
        .map(|n| n.to_string())
        .collect();
    let t = &result.timings;
    format!(
        concat!(
            "{{\"schema\":{{\"dimensions\":[{}],\"measure\":{}}}",
            ",\"rules\":[{}]",
            ",\"kl_trace\":{},\"final_kl\":{},\"information_gain\":{}",
            ",\"iterations\":{},\"ancestors_emitted\":{},\"scaling_iterations\":[{}]",
            ",\"transform_shift\":{},\"cancelled\":{}",
            ",\"timings\":{{\"candidate_pruning\":{},\"ancestor_generation\":{},\"gain_computation\":{},\"gain_sweep\":{},\"iterative_scaling\":{},\"rule_generation\":{},\"total\":{}}}}}",
        ),
        dims.join(","),
        json_string(table.schema().measure_name()),
        rules.join(","),
        json_f64_array(result.kl_trace.iter().copied()),
        json_number(result.final_kl()),
        json_number(result.information_gain()),
        result.iterations,
        result.ancestors_emitted,
        scaling_iterations.join(","),
        json_number(result.transform_shift),
        result.cancelled,
        json_number(t.candidate_pruning),
        json_number(t.ancestor_generation),
        json_number(t.gain_computation),
        json_number(t.gain_sweep),
        json_number(t.iterative_scaling),
        json_number(t.rule_generation()),
        json_number(t.total),
    )
}

// ---------------------------------------------------------------------------
// Parsing (RFC 8259)
// ---------------------------------------------------------------------------

/// A parsed JSON document node.
///
/// Objects preserve their textual key order (and duplicate keys — lookups
/// via [`JsonValue::get`] return the *first* occurrence, later duplicates
/// are reachable through [`JsonValue::entries`]). Numbers are `f64`, like
/// JavaScript; [`JsonValue::as_u64`] / [`JsonValue::as_usize`] reject
/// non-integral values instead of truncating.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite — the grammar has no NaN/Infinity).
    Number(f64),
    /// A string literal, unescaped.
    String(String),
    /// `[ … ]`.
    Array(Vec<JsonValue>),
    /// `{ … }`, in textual order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first occurrence); `None` for non-objects and
    /// missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact nonnegative integer; `None` when
    /// fractional, negative, or beyond `u64`'s exactly-representable range.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// [`Self::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object (textual order, duplicates
    /// preserved).
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Re-encode the value as compact JSON text, using the same rules as
    /// the result encoder (RFC 8259 string escapes, shortest-round-trip
    /// floats). `parse_json(v.render())` reproduces `v` exactly for every
    /// value this parser can produce.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => out.push_str(&json_number(*n)),
            JsonValue::String(s) => out.push_str(&json_string(s)),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// What went wrong while parsing, without position (see [`JsonError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Input ended inside a value.
    UnexpectedEof,
    /// A byte that cannot start or continue the expected production.
    UnexpectedByte(u8),
    /// Bytes remain after the top-level value.
    TrailingData,
    /// Nesting exceeded the 64-level limit.
    TooDeep(usize),
    /// The document exceeded the 16 MiB limit.
    TooLarge(usize),
    /// A malformed number literal (leading zeros, bare `-`, `1.`, …).
    InvalidNumber,
    /// A number outside `f64`'s finite range (e.g. `1e999`).
    NumberOutOfRange,
    /// A backslash escape other than `\" \\ \/ \b \f \n \r \t \uXXXX`.
    InvalidEscape,
    /// A `\u` escape with bad hex digits or an unpaired surrogate.
    InvalidUnicodeEscape,
    /// A raw control character (< 0x20) inside a string literal.
    ControlCharacterInString,
}

/// A typed JSON parse error with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// The failure class.
    pub kind: JsonErrorKind,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match &self.kind {
            JsonErrorKind::UnexpectedEof => "unexpected end of input".to_string(),
            JsonErrorKind::UnexpectedByte(b) => {
                format!("unexpected byte {:?} (0x{b:02x})", char::from(*b))
            }
            JsonErrorKind::TrailingData => "trailing data after the value".to_string(),
            JsonErrorKind::TooDeep(limit) => {
                format!("nesting deeper than the {limit}-level limit")
            }
            JsonErrorKind::TooLarge(limit) => {
                format!("document larger than the {limit}-byte limit")
            }
            JsonErrorKind::InvalidNumber => "malformed number literal".to_string(),
            JsonErrorKind::NumberOutOfRange => "number outside f64 range".to_string(),
            JsonErrorKind::InvalidEscape => "invalid string escape".to_string(),
            JsonErrorKind::InvalidUnicodeEscape => "invalid \\u escape".to_string(),
            JsonErrorKind::ControlCharacterInString => {
                "raw control character inside a string".to_string()
            }
        };
        write!(f, "JSON error at byte {}: {msg}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting (arrays + objects) [`parse_json`] accepts.
/// The parser is recursive, so this bounds stack use.
const MAX_DEPTH: usize = 64;

/// Maximum input size in bytes [`parse_json`] accepts: 16 MiB, the
/// request-body cap of the wire front end too.
const MAX_BYTES: usize = 16 << 20;

/// Parse one complete JSON document of at most 16 MiB and 64 levels of
/// nesting. Trailing whitespace is allowed; any
/// other trailing bytes are [`JsonErrorKind::TrailingData`].
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    if input.len() > MAX_BYTES {
        return Err(JsonError {
            offset: MAX_BYTES,
            kind: JsonErrorKind::TooLarge(MAX_BYTES),
        });
    }
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos < parser.bytes.len() {
        return Err(parser.err(JsonErrorKind::TrailingData));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            offset: self.pos,
            kind,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `literal` (the parser sits on its first byte). A truncated
    /// prefix reports EOF; a diverging byte reports itself.
    fn literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        let rest = &self.bytes[self.pos..];
        if rest.starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            return Ok(value);
        }
        if literal.as_bytes().starts_with(rest) {
            self.pos = self.bytes.len();
            return Err(self.err(JsonErrorKind::UnexpectedEof));
        }
        let start = self.pos;
        while self.pos < self.bytes.len()
            && self.bytes[self.pos] == literal.as_bytes()[self.pos - start]
        {
            self.pos += 1;
        }
        Err(self.err(JsonErrorKind::UnexpectedByte(self.bytes[self.pos])))
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        match self.peek() {
            None => Err(self.err(JsonErrorKind::UnexpectedEof)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(JsonErrorKind::UnexpectedByte(b))),
        }
    }

    fn enter(&self, depth: usize) -> Result<usize, JsonError> {
        if depth + 1 > MAX_DEPTH {
            Err(self.err(JsonErrorKind::TooDeep(MAX_DEPTH)))
        } else {
            Ok(depth + 1)
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        let depth = self.enter(depth)?;
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                Some(b) => return Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        let depth = self.enter(depth)?;
        self.pos += 1; // '{'
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return match self.peek() {
                    Some(b) => Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                    None => Err(self.err(JsonErrorKind::UnexpectedEof)),
                };
            }
            let key = self.string()?;
            self.skip_ws();
            match self.peek() {
                Some(b':') => self.pos += 1,
                Some(b) => return Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            }
            self.skip_ws();
            entries.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                Some(b) => return Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening '"'
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err(JsonErrorKind::UnexpectedEof));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                0x00..=0x1f => return Err(self.err(JsonErrorKind::ControlCharacterInString)),
                _ => {
                    // Input is &str, so multi-byte sequences are valid
                    // UTF-8; copy the whole scalar in one step.
                    let start = self.pos;
                    let mut end = self.pos + 1;
                    while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.err(JsonErrorKind::UnexpectedEof));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(),
            _ => {
                self.pos -= 1;
                return Err(self.err(JsonErrorKind::InvalidEscape));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err(JsonErrorKind::UnexpectedEof));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err(JsonErrorKind::InvalidUnicodeEscape)),
            };
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    /// `\uXXXX`, with surrogate pairs (`😀`) combined per
    /// RFC 8259 §7. The parser sits just past the `u`.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let start = self.pos - 2; // at the backslash, for error offsets
        let first = self.hex4()?;
        let code = match first {
            0xd800..=0xdbff => {
                // High surrogate: a low surrogate escape must follow.
                if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                    self.pos += 2;
                    let second = self.hex4()?;
                    if !(0xdc00..=0xdfff).contains(&second) {
                        self.pos = start;
                        return Err(self.err(JsonErrorKind::InvalidUnicodeEscape));
                    }
                    0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
                } else {
                    self.pos = start;
                    return Err(self.err(JsonErrorKind::InvalidUnicodeEscape));
                }
            }
            0xdc00..=0xdfff => {
                self.pos = start;
                return Err(self.err(JsonErrorKind::InvalidUnicodeEscape));
            }
            other => other,
        };
        char::from_u32(code).ok_or(JsonError {
            offset: start,
            kind: JsonErrorKind::InvalidUnicodeEscape,
        })
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a single 0, or [1-9][0-9]* — leading zeros are
        // malformed per the RFC 8259 grammar.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err(JsonErrorKind::InvalidNumber)),
        }
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            // Only reachable after a leading 0.
            return Err(self.err(JsonErrorKind::InvalidNumber));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err(JsonErrorKind::InvalidNumber));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err(JsonErrorKind::InvalidNumber));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err(JsonErrorKind::InvalidNumber))?;
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(JsonErrorKind::InvalidNumber))?;
        if !n.is_finite() {
            return Err(JsonError {
                offset: start,
                kind: JsonErrorKind::NumberOutOfRange,
            });
        }
        Ok(JsonValue::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirum_dataflow::EngineConfig;
    use sirum_table::generators;

    #[test]
    fn strings_escape_control_and_quote_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_round_trip_and_non_finite_become_null() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(-0.25), "-0.25");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn mining_result_serializes_with_balanced_braces() {
        let engine = sirum_dataflow::Engine::try_new(EngineConfig::in_memory()).unwrap();
        let table = generators::flights();
        let config = sirum_core::SirumConfig {
            k: 2,
            strategy: sirum_core::CandidateStrategy::SampleLca { sample_size: 14 },
            ..Default::default()
        };
        let result = sirum_core::Miner::new(engine, config)
            .try_mine(&table)
            .unwrap();
        let json = mining_result_to_json(&result, &table);
        assert!(json.starts_with('{') && json.ends_with('}'));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"id\":1"));
        assert!(json.contains("\"cancelled\":false"));
        assert!(json.contains("\"dimensions\":[\"Day\",\"Origin\",\"Destination\"]"));
        // The wildcard seed rule renders null values.
        assert!(json.contains("\"values\":[null,null,null]"));
    }

    // -- parser -------------------------------------------------------------

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("0").unwrap(), JsonValue::Number(0.0));
        assert_eq!(parse_json("-0.5e2").unwrap(), JsonValue::Number(-50.0));
        assert_eq!(
            parse_json("\"a\\n\\u00e9\\ud83d\\ude00\"").unwrap(),
            JsonValue::String("a\né😀".to_string())
        );
    }

    #[test]
    fn parses_containers_preserving_order() {
        let v = parse_json("{\"b\":[1,2,{\"c\":null}],\"a\":\"x\"}").unwrap();
        let entries = v.entries().unwrap();
        assert_eq!(entries[0].0, "b");
        assert_eq!(entries[1].0, "a");
        assert_eq!(v.get("a").unwrap().as_str(), Some("x"));
        let b = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0].as_u64(), Some(1));
        assert!(b[2].get("c").unwrap().is_null());
        // Duplicate keys: get() returns the first.
        let dup = parse_json("{\"k\":1,\"k\":2}").unwrap();
        assert_eq!(dup.get("k").unwrap().as_u64(), Some(1));
        assert_eq!(dup.entries().unwrap().len(), 2);
    }

    #[test]
    fn accessors_reject_mismatched_types() {
        let v = parse_json("{\"n\":1.5,\"neg\":-3,\"big\":1e300}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), None, "fractional");
        assert_eq!(v.get("neg").unwrap().as_u64(), None, "negative");
        assert_eq!(v.get("big").unwrap().as_u64(), None, "beyond exact u64");
        assert_eq!(v.get("n").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("k"), None);
        assert_eq!(v.get("n").unwrap().as_str(), None);
    }

    #[test]
    fn malformed_documents_yield_typed_errors() {
        use JsonErrorKind as K;
        let kind = |s: &str| parse_json(s).unwrap_err().kind;
        assert_eq!(kind(""), K::UnexpectedEof);
        assert_eq!(kind("{"), K::UnexpectedEof);
        assert_eq!(kind("\"abc"), K::UnexpectedEof);
        assert_eq!(kind("[1,"), K::UnexpectedEof);
        assert_eq!(kind("nul"), K::UnexpectedEof);
        assert_eq!(kind("nulL"), K::UnexpectedByte(b'L'));
        assert_eq!(kind("[1 2]"), K::UnexpectedByte(b'2'));
        assert_eq!(kind("{\"a\" 1}"), K::UnexpectedByte(b'1'));
        assert_eq!(kind("{a:1}"), K::UnexpectedByte(b'a'));
        assert_eq!(kind("1 2"), K::TrailingData);
        assert_eq!(kind("01"), K::InvalidNumber);
        assert_eq!(kind("1."), K::InvalidNumber);
        assert_eq!(kind("-"), K::InvalidNumber);
        assert_eq!(kind("1e"), K::InvalidNumber);
        assert_eq!(kind("1e999"), K::NumberOutOfRange);
        assert_eq!(kind("\"\\x\""), K::InvalidEscape);
        assert_eq!(kind("\"\\u12g4\""), K::InvalidUnicodeEscape);
        assert_eq!(kind("\"\\ud800\""), K::InvalidUnicodeEscape);
        assert_eq!(kind("\"\\ude00\\ud800\""), K::InvalidUnicodeEscape);
        assert_eq!(kind("\"\u{1}\""), K::ControlCharacterInString);
        // Errors carry the detection offset and render with it: in
        // `[true, nope]` the parse of a `null` literal diverges at the
        // `o`, byte 8.
        let err = parse_json("[true, nope]").unwrap_err();
        assert_eq!(err.offset, 8);
        assert_eq!(err.kind, K::UnexpectedByte(b'o'));
        assert!(err.to_string().contains("byte 8"));
    }

    #[test]
    fn depth_and_size_limits_hold() {
        let deep_ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(parse_json(&deep_ok).is_ok());
        let deep_bad = format!("{}1{}", "[".repeat(65), "]".repeat(65));
        assert_eq!(
            parse_json(&deep_bad).unwrap_err().kind,
            JsonErrorKind::TooDeep(64)
        );
        // A string filling the cap parses; one byte more does not.
        let at_cap = format!("\"{}\"", "x".repeat(MAX_BYTES - 2));
        assert!(parse_json(&at_cap).is_ok());
        let over = format!("{at_cap} ");
        assert_eq!(
            parse_json(&over).unwrap_err().kind,
            JsonErrorKind::TooLarge(MAX_BYTES)
        );
    }

    #[test]
    fn parser_round_trips_the_mining_result_encoder() {
        let engine = sirum_dataflow::Engine::try_new(EngineConfig::in_memory()).unwrap();
        let table = generators::flights();
        let config = sirum_core::SirumConfig {
            k: 2,
            strategy: sirum_core::CandidateStrategy::SampleLca { sample_size: 14 },
            ..Default::default()
        };
        let result = sirum_core::Miner::new(engine, config)
            .try_mine(&table)
            .unwrap();
        let json = mining_result_to_json(&result, &table);
        let value = parse_json(&json).unwrap();
        assert_eq!(
            value.get("rules").unwrap().as_array().unwrap().len(),
            result.rules.len()
        );
        assert_eq!(
            value.get("iterations").unwrap().as_usize(),
            Some(result.iterations)
        );
        assert_eq!(value.get("cancelled").unwrap().as_bool(), Some(false));
        // Re-encoding the parse tree and re-parsing reaches a fixpoint.
        assert_eq!(parse_json(&value.render()).unwrap(), value);
    }

    /// FNV-1a of the encoder's bytes for two fixed mines, wall-clock
    /// timings replaced by fixed values: any change to how the document is
    /// built must leave every byte where it was.
    #[test]
    fn mining_result_json_is_pinned_byte_for_byte() {
        let cases = [
            (generators::flights(), 3, 14, 0x94b1_fa96_d432_9730_u64),
            (
                generators::income_like(2000, 7),
                4,
                32,
                0xc328_5150_774a_5d77,
            ),
        ];
        for (table, k, sample_size, pinned) in cases {
            let config = sirum_core::SirumConfig {
                k,
                strategy: sirum_core::CandidateStrategy::SampleLca { sample_size },
                ..Default::default()
            };
            let mut result = sirum_core::Miner::new(
                sirum_dataflow::Engine::try_new(EngineConfig::in_memory()).unwrap(),
                config,
            )
            .try_mine(&table)
            .unwrap();
            result.timings = sirum_core::PhaseTimings {
                candidate_pruning: 0.125,
                ancestor_generation: 1.5,
                gain_computation: 0.1,
                gain_sweep: 2.0,
                iterative_scaling: 1e-3,
                total: 3.75,
            };
            let mut h = sirum_table::fingerprint::Fnv64::new();
            h.write_str(&mining_result_to_json(&result, &table));
            assert_eq!(h.finish(), pinned, "{:#x}", h.finish());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Strings that stress escaping: quotes, backslashes, control chars,
    /// multi-byte scalars, astral-plane characters.
    fn string_pool() -> impl Strategy<Value = &'static str> {
        let pool: &[&'static str] = &[
            "",
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "tab\tnewline\ncr\r",
            "ctrl\u{1}\u{1f}",
            "東京 Zürich ØΔπ",
            "astral 😀 pair",
            "/slashes//",
            "null",
            "-1e3",
        ];
        (0..pool.len()).prop_map(move |i| pool[i])
    }

    /// Finite measures whose Display text round-trips exactly.
    fn number() -> impl Strategy<Value = f64> {
        prop_oneof![
            -1.0e12f64..1.0e12,
            (-1.0e6f64..1.0e6).prop_map(f64::trunc),
            Just(0.0),
            Just(-0.5),
            Just(1.0e-300),
        ]
    }

    fn leaf() -> impl Strategy<Value = JsonValue> {
        prop_oneof![
            Just(JsonValue::Null),
            any::<bool>().prop_map(JsonValue::Bool),
            number().prop_map(JsonValue::Number),
            string_pool().prop_map(|s| JsonValue::String(s.to_string())),
        ]
    }

    /// One level of containers over leaves.
    fn level1() -> impl Strategy<Value = JsonValue> {
        prop_oneof![
            leaf(),
            vec(leaf(), 0..4).prop_map(JsonValue::Array),
            vec((string_pool(), leaf()), 0..4).prop_map(|entries| JsonValue::Object(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            )),
        ]
    }

    /// Bounded-depth JSON trees: leaves, then two levels of containers
    /// (the vendored proptest has no `prop_recursive`; two explicit levels
    /// exercise every parser production).
    fn tree() -> impl Strategy<Value = JsonValue> {
        prop_oneof![
            vec(level1(), 0..4).prop_map(JsonValue::Array),
            vec((string_pool(), level1()), 0..4).prop_map(|entries| JsonValue::Object(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            )),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn encode_then_parse_is_identity(value in tree()) {
            let text = value.render();
            let parsed = parse_json(&text).unwrap();
            prop_assert_eq!(&parsed, &value);
            // And rendering the parse tree is byte-stable.
            prop_assert_eq!(parsed.render(), text);
        }

        #[test]
        fn string_escaping_round_trips(s in proptest::collection::vec(0u32..0x300, 0..24)) {
            // Arbitrary scalar soup (skipping the surrogate gap) through
            // the escaper and back.
            let s: String = s
                .into_iter()
                .filter_map(char::from_u32)
                .collect();
            let parsed = parse_json(&json_string(&s)).unwrap();
            prop_assert_eq!(parsed, JsonValue::String(s));
        }

        #[test]
        fn number_rendering_round_trips(n in number()) {
            let parsed = parse_json(&json_number(n)).unwrap();
            prop_assert_eq!(parsed, JsonValue::Number(n));
        }

        #[test]
        fn parser_never_panics_on_mutated_input(
            bytes in vec(0u8..=255, 0..64),
        ) {
            // Fuzz-shaped: arbitrary byte soup, lossily decoded. The
            // parser must return Ok or a typed error, never panic.
            let text = String::from_utf8_lossy(&bytes);
            if let Err(e) = parse_json(&text) {
                prop_assert!(e.offset <= text.len(), "offset {} past {}", e.offset, text.len());
            }
        }
    }
}
