//! `sirum-bench repeat`: run the suite several times in sets — every run
//! its own child process and its own seed — and hold each end-to-end
//! metric's run-to-run spread and set-to-set drift against the bound
//! `BENCHMARK.json` gives it. This is the acceptance driver's rule, so the
//! bounds can be checked before they are committed.

use crate::report::benchmark_json;
use crate::stats::{median, quartiles, spread};
use crate::DEFAULT_SEED;
use sirum::json::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::process::Command;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &JsonValue) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(JsonValue::as_str);
            Ok(Bound {
                name: text("name").ok_or("metric without a name")?.to_string(),
                lower_is_better: text("better") == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// One child run; returns its metric values by name.
fn child_run(workload: &str, seed: u64, seconds: &str) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", seconds, "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = parse_json(line).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if result.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: run was not correct: {line}"
        ));
    }
    Ok(result
        .get("metrics")
        .and_then(JsonValue::entries)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Returns whether every metric of every workload held its bound.
pub fn repeat(args: &[String]) -> Result<bool, String> {
    let benchmark = benchmark_json();
    let mut sets = 2_usize;
    let mut runs = 5_usize;
    let mut base_seed = DEFAULT_SEED;
    let mut seconds = benchmark
        .get("run_seconds")
        .and_then(JsonValue::as_u64)
        .ok_or("BENCHMARK.json has no run_seconds")?
        .to_string();
    let mut only = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--sets" => sets = value.parse().map_err(|_| bad())?,
            "--runs" => runs = value.parse().map_err(|_| bad())?,
            "--seed" => base_seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.clone(),
            "--workload" => only = Some(value.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if sets == 0 || runs < 2 {
        return Err("need --sets ≥ 1 and --runs ≥ 2 (quartiles need two values)".into());
    }
    let bounds = bounds(&benchmark)?;
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .filter(|name| only.as_deref().is_none_or(|o| o == *name))
        .collect();
    if workloads.is_empty() {
        return Err(format!("no workload named {only:?}"));
    }

    let mut held = true;
    for workload in workloads {
        // values[set][metric] = one value per run
        let mut values: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(); sets];
        for (set, by_metric) in values.iter_mut().enumerate() {
            for run in 0..runs {
                let seed = base_seed + (set * runs + run) as u64;
                for (name, value) in child_run(workload, seed, &seconds)? {
                    by_metric.entry(name).or_default().push(value);
                }
                eprintln!("{workload}: set {} run {} done", set + 1, run + 1);
            }
        }
        println!("\n{workload} ({sets} sets x {runs} runs, {seconds} s each)");
        println!(
            "{:<16} {:>3} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
            "metric", "set", "median", "q1", "q3", "spread", "drift", "bound"
        );
        for b in &bounds {
            let medians: Vec<f64> = values.iter().map(|set| median(&set[&b.name])).collect();
            for (set, by_metric) in values.iter().enumerate() {
                let v = &by_metric[&b.name];
                let (q1, q3) = quartiles(v);
                let spread = spread(v);
                // How much worse this set's median is than the first's.
                let drift = if b.lower_is_better {
                    medians[set] / medians[0] - 1.0
                } else {
                    1.0 - medians[set] / medians[0]
                };
                let spread_ok = b.name == "setup_s" || spread <= b.bound;
                let ok = spread_ok && drift <= b.bound;
                held &= ok;
                println!(
                    "{:<16} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>+7.2}% {:>5.0}%  {}",
                    b.name,
                    set + 1,
                    medians[set],
                    q1,
                    q3,
                    spread * 100.0,
                    drift * 100.0,
                    b.bound * 100.0,
                    if ok { "ok" } else { "EXCEEDS BOUND" },
                );
            }
        }
    }
    Ok(held)
}
