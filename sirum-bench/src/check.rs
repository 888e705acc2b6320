//! Correctness checks applied to every operation: the same fields are read
//! from an in-process `MiningResult` and from a parsed wire response, and
//! the same invariants are asserted on both.

use sirum::json::JsonValue;
use sirum::prelude::*;
use sirum::table::fingerprint::Fnv64;

/// `PhaseTimings`, in seconds, under the benchmark's layer names.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub sweep: f64,
    pub scaling: f64,
    pub select: f64,
    pub pruning: f64,
    pub ancestor: f64,
    pub total: f64,
}

impl Phases {
    /// `(span name, seconds)` of each phase, in pipeline order.
    pub fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("core.pruning", self.pruning),
            ("core.ancestor", self.ancestor),
            ("core.sweep", self.sweep),
            ("core.select", self.select),
            ("core.scaling", self.scaling),
        ]
    }
}

impl From<&sirum::core::PhaseTimings> for Phases {
    fn from(t: &sirum::core::PhaseTimings) -> Phases {
        Phases {
            sweep: t.gain_sweep,
            scaling: t.iterative_scaling,
            select: t.gain_computation,
            pruning: t.candidate_pruning,
            ancestor: t.ancestor_generation,
            total: t.total,
        }
    }
}

/// What one mine produced, reduced to the fields the checks and the layer
/// metrics read. Built from either side of the wire.
#[derive(Debug, Clone, Default)]
pub struct Mined {
    pub rules: usize,
    pub first_rule_is_wildcards: bool,
    pub gains_valid: bool,
    pub kl_trace: Vec<f64>,
    pub cancelled: bool,
    pub from_cache: bool,
    pub phases: Phases,
}

fn valid_gain(g: f64) -> bool {
    g.is_finite() && g >= 0.0
}

impl Mined {
    pub fn from_result(r: &MiningResult, from_cache: bool) -> Mined {
        Mined {
            rules: r.rules.len(),
            first_rule_is_wildcards: r
                .rules
                .first()
                .is_some_and(|m| m.rule.values().iter().all(|&v| v == WILDCARD)),
            gains_valid: r.rules.iter().all(|m| valid_gain(m.gain)),
            kl_trace: r.kl_trace.clone(),
            cancelled: r.cancelled,
            from_cache,
            phases: Phases::from(&r.timings),
        }
    }

    /// Read a `POST /mine` (or `GET /jobs/{id}`) response body.
    pub fn from_wire(job: &JsonValue) -> Result<Mined, String> {
        let state = job.get("state").and_then(JsonValue::as_str);
        if state != Some("done") {
            return Err(format!("job state is {state:?}, not \"done\""));
        }
        let result = job.get("result").ok_or("response carries no result")?;
        let rules = result
            .get("rules")
            .and_then(JsonValue::as_array)
            .ok_or("result.rules is not an array")?;
        let num = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("field {key:?} is not a number"))
        };
        let timings = result.get("timings").ok_or("result carries no timings")?;
        Ok(Mined {
            rules: rules.len(),
            first_rule_is_wildcards: rules.first().is_some_and(|r| {
                r.get("values")
                    .and_then(JsonValue::as_array)
                    .is_some_and(|vs| vs.iter().all(JsonValue::is_null))
            }),
            gains_valid: rules.iter().all(|r| num(r, "gain").is_ok_and(valid_gain)),
            kl_trace: result
                .get("kl_trace")
                .and_then(JsonValue::as_array)
                .ok_or("result.kl_trace is not an array")?
                .iter()
                .map(|v| v.as_f64().unwrap_or(f64::NAN))
                .collect(),
            cancelled: job.get("cancelled").and_then(JsonValue::as_bool) == Some(true),
            from_cache: job.get("from_cache").and_then(JsonValue::as_bool) == Some(true),
            phases: Phases {
                sweep: num(timings, "gain_sweep")?,
                scaling: num(timings, "iterative_scaling")?,
                select: num(timings, "gain_computation")?,
                pruning: num(timings, "candidate_pruning")?,
                ancestor: num(timings, "ancestor_generation")?,
                total: num(timings, "total")?,
            },
        })
    }

    /// The per-op invariants: rule 1 is all-wildcards, `k` more rules were
    /// mined, KL never rises as rules are added, gains are finite and ≥ 0,
    /// and the answer came from where the op expected it to.
    pub fn check(&self, k: usize, expect_cached: bool) -> Result<(), String> {
        if self.cancelled {
            return Err("run was cancelled".into());
        }
        if !self.first_rule_is_wildcards {
            return Err("rule 1 is not all-wildcards".into());
        }
        if self.rules != k + 1 {
            return Err(format!(
                "{} rules returned, {} requested",
                self.rules,
                k + 1
            ));
        }
        if !self.gains_valid {
            return Err("a gain is negative or not finite".into());
        }
        for pair in self.kl_trace.windows(2) {
            let ceiling = pair[0] + 1e-9 * pair[0].abs().max(1.0);
            // A NaN is neither above nor below: it fails too.
            if pair[1] > ceiling || pair[1].is_nan() || pair[0].is_nan() {
                return Err(format!("kl_trace rises: {} -> {}", pair[0], pair[1]));
            }
        }
        if self.from_cache != expect_cached {
            return Err(format!(
                "from_cache is {}, expected {expect_cached}",
                self.from_cache
            ));
        }
        Ok(())
    }
}

/// FNV-1a digest of the mined rule set: every rule's dimension values and
/// its support count, in insertion order. Integer-only, so it is stable
/// across hosts.
pub fn rules_digest(result: &MiningResult) -> String {
    let mut h = Fnv64::new();
    for mined in &result.rules {
        for &v in mined.rule.values() {
            h.write_u32(v);
        }
        h.write_u64(mined.count);
    }
    format!("{:016x}", h.finish())
}
