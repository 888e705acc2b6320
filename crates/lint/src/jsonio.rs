//! A minimal JSON value and writer for the artifacts the lint emits:
//! `callgraph.json`, `lock-order.json` and the `--pragmas` inventory.
//! The crate has zero dependencies, and nothing here reads JSON back —
//! the lint keeps no state between runs — so this is a tree of values
//! and [`Value::to_json`] over the crate's one escaper,
//! [`json_escape`].

use std::collections::BTreeMap;

use crate::diag::json_escape;

/// One JSON value. Objects use a `BTreeMap` so serialization is
/// canonical — an artifact is byte-stable for identical inputs.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (line numbers, indices, counts).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, key-sorted.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Serialize (compact, canonical key order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => out.push_str(&n.to_string()),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Build a `Value::Obj` from pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Shorthand constructors.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

/// Numeric shorthand (from anything that widens to u64).
pub fn n(num: impl Into<u64>) -> Value {
    Value::Num(num.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = obj(vec![
            ("name", s("fn \"quoted\"\npath")),
            ("count", n(42u32)),
            ("ok", Value::Bool(true)),
            ("items", Value::Arr(vec![n(1u32), s("two"), Value::Null])),
            ("nested", obj(vec![("k", s("v"))])),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"count":42,"items":[1,"two",null],"name":"fn \"quoted\"\npath","nested":{"k":"v"},"ok":true}"#
        );
    }

    #[test]
    fn canonical_key_order_is_stable() {
        let a = obj(vec![("b", n(2u32)), ("a", n(1u32))]);
        let b = obj(vec![("a", n(1u32)), ("b", n(2u32))]);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn unicode_and_escape_round_trip() {
        let v = s("héllo → wörld \u{1}");
        assert_eq!(v.to_json(), r#""héllo → wörld \u0001""#);
        assert_eq!(s("tab\there\\").to_json(), r#""tab\there\\""#);
    }
}
