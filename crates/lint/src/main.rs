//! The `sirum-lint` binary.
//!
//! ```text
//! sirum-lint --check [--format human|json] [--stats] [--root DIR]
//!            [--budget-ms N] [--emit-graphs DIR] [--list-rules]
//!            [--pragmas] [FILE..]
//! ```
//!
//! Exit codes: 0 clean, 1 findings (or time budget exceeded), 2 usage or
//! IO error. `FILE..` are workspace-relative paths; without them the
//! whole tree under `--root` (default `.`) is discovered.
//!
//! Every run analyses every file and writes nothing it was not asked
//! to, so the verdict is a function of the tree (`--stats` shows where
//! the time goes). `--pragmas` prints the suppression inventory — every
//! reasoned `lint:allow` in the tree with its file, line, codes, and
//! stated reason — instead of checking. `--emit-graphs DIR` additionally
//! writes `callgraph.json` and `lock-order.json` (the SL006 evidence) for
//! CI to archive.

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

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use sirum_lint::driver;

struct Options {
    format_json: bool,
    stats: bool,
    list_rules: bool,
    pragmas: bool,
    emit_graphs: Option<PathBuf>,
    root: PathBuf,
    budget_ms: Option<u128>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        format_json: false,
        stats: false,
        list_rules: false,
        pragmas: false,
        emit_graphs: None,
        root: PathBuf::from("."),
        budget_ms: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => {} // checking is the only mode; accepted for clarity
            "--stats" => opts.stats = true,
            "--list-rules" => opts.list_rules = true,
            "--pragmas" => opts.pragmas = true,
            "--emit-graphs" => match it.next() {
                Some(dir) => opts.emit_graphs = Some(PathBuf::from(dir)),
                None => return Err("--emit-graphs expects a directory".to_string()),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("human") => opts.format_json = false,
                Some("json") => opts.format_json = true,
                other => {
                    return Err(format!(
                        "--format expects `human` or `json`, got {:?}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--root" => match it.next() {
                Some(dir) => opts.root = PathBuf::from(dir),
                None => return Err("--root expects a directory".to_string()),
            },
            "--budget-ms" => match it.next().map(|v| v.parse::<u128>()) {
                Some(Ok(ms)) => opts.budget_ms = Some(ms),
                _ => return Err("--budget-ms expects a number".to_string()),
            },
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}\n{USAGE}")),
            file => opts.files.push(file.to_string()),
        }
    }
    Ok(opts)
}

const USAGE: &str = "usage: sirum-lint --check [--format human|json] [--stats] \
[--root DIR] [--budget-ms N] [--emit-graphs DIR] [--list-rules] [--pragmas] \
[FILE..]";

fn render_pragmas_human(entries: &[driver::PragmaEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&format!(
            "{}:{}: {} — {}\n",
            e.file,
            e.line,
            e.codes.join("/"),
            e.reason
        ));
    }
    out.push_str(&format!("sirum-lint: {} active pragma(s)\n", entries.len()));
    out
}

fn render_pragmas_json(entries: &[driver::PragmaEntry]) -> String {
    use sirum_lint::jsonio::{n, obj, s, Value};
    let items: Vec<Value> = entries
        .iter()
        .map(|e| {
            obj(vec![
                ("file", s(&e.file)),
                ("line", n(e.line)),
                (
                    "codes",
                    Value::Arr(e.codes.iter().map(|c| s(c.as_str())).collect()),
                ),
                ("reason", s(&e.reason)),
            ])
        })
        .collect();
    let mut json = obj(vec![("pragmas", Value::Arr(items))]).to_json();
    json.push('\n');
    json
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if opts.list_rules {
        for rule in sirum_lint::rules::all() {
            println!("{}  {}", rule.code(), rule.describe());
        }
        for rule in sirum_lint::rules::workspace_rules() {
            println!("{}  {}", rule.code(), rule.describe());
        }
        return ExitCode::SUCCESS;
    }
    let result = if opts.files.is_empty() {
        driver::analyze_tree(&opts.root)
    } else {
        driver::analyze_paths(&opts.root, &opts.files)
    };
    let analysis = match result {
        Ok(analysis) => analysis,
        Err(msg) => {
            eprintln!("sirum-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if opts.pragmas {
        if opts.format_json {
            print!("{}", render_pragmas_json(&analysis.pragmas));
        } else {
            print!("{}", render_pragmas_human(&analysis.pragmas));
        }
        return ExitCode::SUCCESS;
    }
    if let Some(dir) = &opts.emit_graphs {
        let write_all = || -> Result<(), String> {
            fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let cg = dir.join("callgraph.json");
            fs::write(&cg, &analysis.callgraph_json)
                .map_err(|e| format!("{}: {e}", cg.display()))?;
            let lg = dir.join("lock-order.json");
            fs::write(&lg, &analysis.lock_graph_json).map_err(|e| format!("{}: {e}", lg.display()))
        };
        if let Err(msg) = write_all() {
            eprintln!("sirum-lint: {msg}");
            return ExitCode::from(2);
        }
    }
    let report = &analysis.report;
    if opts.format_json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render_human());
    }
    if opts.stats {
        eprint!("{}", report.render_stats());
    }
    let elapsed_ms = report.nanos / 1_000_000;
    if let Some(budget) = opts.budget_ms {
        if elapsed_ms > budget {
            eprintln!("sirum-lint: run took {elapsed_ms} ms, over the {budget} ms budget");
            return ExitCode::from(1);
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
