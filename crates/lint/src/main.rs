//! `facet-lint` CLI.
//!
//! ```text
//! facet-lint [--root DIR] [--json PATH] [--obs]
//! facet-lint [--root DIR] --loc
//! facet-lint --verify-report PATH
//! facet-lint --explain RULE
//! ```
//!
//! The default mode lints the workspace under `--root` (default: the
//! current directory), prints the text report, optionally writes the
//! JSON report, and exits non-zero when any `deny` finding exists.
//! `--loc` prints, per crate, the lines that hold code outside test
//! items (`facet_lint::code_lines`) and their total, and lints nothing.
//! `--verify-report` re-parses a previously written JSON report and
//! checks its structural invariants (used by `check.sh --lint`).
//! `--explain` prints one rule's catalogue entry plus an example
//! finding produced from the embedded fixtures.

use facet_jsonio::JsonValue;
use facet_lint::config::Severity;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: Option<PathBuf>,
    obs: bool,
    loc: bool,
    verify_report: Option<PathBuf>,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: None,
        obs: false,
        loc: false,
        verify_report: None,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--json" => args.json = Some(PathBuf::from(it.next().ok_or("--json needs a value")?)),
            "--obs" => args.obs = true,
            "--loc" => args.loc = true,
            "--verify-report" => {
                args.verify_report = Some(PathBuf::from(
                    it.next().ok_or("--verify-report needs a value")?,
                ))
            }
            "--explain" => args.explain = Some(it.next().ok_or("--explain needs a rule")?),
            "--help" | "-h" => {
                return Err(
                    "usage: facet-lint [--root DIR] [--json PATH] [--obs] [--loc] \
                            [--verify-report PATH] [--explain RULE]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if let Some(rule) = &args.explain {
        return match facet_lint::explain(rule) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "facet-lint: unknown rule `{rule}` (name or code, e.g. taint-unordered or D5)"
                );
                ExitCode::from(2)
            }
        };
    }

    if let Some(path) = &args.verify_report {
        return match verify_report(path) {
            Ok(n) => {
                println!(
                    "facet-lint: report {} verified ({n} findings, span-sorted)",
                    path.display()
                );
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("facet-lint: report verification failed: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    if args.loc {
        return match facet_lint::loc_by_crate(&args.root) {
            Ok(counts) => {
                println!("facet-lint: code lines outside test items, per crate");
                for (krate, lines) in &counts {
                    println!("  {krate:<12} {lines:>6}");
                }
                println!("  {:<12} {:>6}", "total", counts.values().sum::<usize>());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("facet-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    let recorder = facet_obs::Recorder::enabled();
    let report = match facet_lint::lint_workspace(&args.root, &recorder) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("facet-lint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render_text());
    if let Some(path) = &args.json {
        let json = match report.render_json() {
            Ok(j) => j,
            Err(e) => {
                eprintln!("facet-lint: JSON rendering failed: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("facet-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("facet-lint: JSON report written to {}", path.display());
    }
    if args.obs {
        for (name, value) in recorder.snapshot_counts_only() {
            println!("obs {name} = {value}");
        }
    }
    if report.findings.iter().any(|f| f.severity == Severity::Deny) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parse a JSON report and check its invariants: required keys, and
/// findings sorted by (file, line, col, code). Returns the finding
/// count.
fn verify_report(path: &std::path::Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = facet_jsonio::parse_json(&text).map_err(|e| e.to_string())?;
    let obj = value.as_object().ok_or("report root is not an object")?;
    let schema = obj
        .iter()
        .find(|(k, _)| k == "schema")
        .and_then(|(_, v)| v.as_str())
        .ok_or("missing `schema`")?;
    if schema != "facet-lint/v1" && schema != "facet-lint/v2" {
        return Err(format!("unexpected schema `{schema}`"));
    }
    let findings = obj
        .iter()
        .find(|(k, _)| k == "findings")
        .and_then(|(_, v)| v.as_array())
        .ok_or("missing `findings` array")?;
    let mut keys: Vec<(String, i64, i64, String)> = Vec::with_capacity(findings.len());
    for (i, f) in findings.iter().enumerate() {
        let fo = f
            .as_object()
            .ok_or_else(|| format!("finding {i} is not an object"))?;
        let get = |name: &str| fo.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let file = get("file")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("finding {i}: missing `file`"))?;
        let line = get("line")
            .and_then(JsonValue::as_i64)
            .ok_or_else(|| format!("finding {i}: missing `line`"))?;
        let col = get("col")
            .and_then(JsonValue::as_i64)
            .ok_or_else(|| format!("finding {i}: missing `col`"))?;
        let code = get("code")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("finding {i}: missing `code`"))?;
        keys.push((file.to_string(), line, col, code.to_string()));
    }
    for pair in keys.windows(2) {
        if pair[0] > pair[1] {
            return Err(format!(
                "findings not span-sorted: {:?} precedes {:?}",
                pair[0], pair[1]
            ));
        }
    }
    Ok(findings.len())
}
