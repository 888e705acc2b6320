//! The metric families — read from the repository's `BENCHMARK.json`, the
//! one place their names and units are written — and the result-line /
//! result-file rendering.

use sirum::json::{json_number, json_string, parse_json, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the result-file layout.
pub const SCHEMA_VERSION: u32 = 1;

/// `BENCHMARK.json` as it was when this binary was built.
pub fn benchmark_json() -> JsonValue {
    parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON")
}

#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// Measured with tracing off.
    EndToEnd,
    /// From the traced pass; the prefix of a name is the module the
    /// number belongs to.
    PerLayer,
}

/// The values of one metric family, keyed by the names `BENCHMARK.json`
/// declares for it.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// `(name, unit)` in declaration order.
    family: Vec<(String, String)>,
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn new(family: Family) -> Self {
        let key = match family {
            Family::EndToEnd => "end_to_end",
            Family::PerLayer => "per_layer",
        };
        let text = |m: &JsonValue, field: &str| {
            m.get(field)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("a {key} entry of BENCHMARK.json lacks {field:?}"))
                .to_string()
        };
        let family = benchmark_json()
            .get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        Metrics {
            family,
            values: BTreeMap::new(),
        }
    }

    /// Record `name`; a name outside the family is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.family.iter().any(|(n, _)| n == name),
            "metric {name:?} is not declared in BENCHMARK.json"
        );
        self.values.insert(name.to_string(), value);
    }

    /// `(name, unit)` of every metric of the family.
    pub fn declared(&self) -> &[(String, String)] {
        &self.family
    }

    /// Names of the family that were never set.
    pub fn missing(&self) -> Vec<&str> {
        self.family
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| !self.values.contains_key(*n))
            .collect()
    }

    /// `(name, value, unit)` in declaration order.
    pub fn rows(&self) -> impl Iterator<Item = (&str, f64, &str)> + '_ {
        self.family
            .iter()
            .filter_map(|(n, u)| self.values.get(n).map(|v| (n.as_str(), *v, u.as_str())))
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` with every digit measured.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.rows().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(value),
                json_string(unit),
            );
        }
        out.push('}');
        out
    }
}

/// The contract's result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}
