//! `domd-lint` — the workspace invariant gate.
//!
//! ```text
//! domd-lint [--root DIR] [--format human|json]   scan the workspace
//! domd-lint --self-check [--fixtures DIR]        verify rules vs. corpus
//! domd-lint --explain RULE                       print what a rule enforces
//! ```
//!
//! Exit codes: `0` clean, `1` violations (or self-check failure),
//! `2` usage / I/O error. CI runs both modes (`scripts/lint.sh`) before
//! clippy, so a rule regression and a workspace regression both fail the
//! gate.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    format: Format,
    self_check: bool,
    fixtures: Option<PathBuf>,
    explain: Option<String>,
}

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        format: Format::Human,
        self_check: false,
        fixtures: None,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => args.root = Some(PathBuf::from(v)),
                None => return Err("--root takes a directory".into()),
            },
            "--fixtures" => match it.next() {
                Some(v) => args.fixtures = Some(PathBuf::from(v)),
                None => return Err("--fixtures takes a directory".into()),
            },
            "--explain" => match it.next() {
                Some(v) => args.explain = Some(v),
                None => return Err("--explain takes a rule id (e.g. lock-order)".into()),
            },
            "--format" => match it.next().as_deref() {
                Some("human") => args.format = Format::Human,
                Some("json") => args.format = Format::Json,
                other => {
                    return Err(format!(
                        "--format takes human|json, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--self-check" => args.self_check = true,
            "--help" | "-h" => {
                return Err(
                    "usage: domd-lint [--root DIR] [--format human|json] \
                     [--self-check [--fixtures DIR]] [--explain RULE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("domd-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if let Some(id) = &args.explain {
        return match domd_analyzer::Rule::from_id(id) {
            Some(rule) => {
                print!("{}", rule.explain());
                ExitCode::SUCCESS
            }
            None => {
                let known: Vec<&str> = domd_analyzer::Rule::ALL
                    .iter()
                    .map(|r| r.id())
                    .chain(["waiver-policy"])
                    .collect();
                eprintln!("domd-lint: unknown rule `{id}` — one of: {}", known.join(", "));
                ExitCode::from(2)
            }
        };
    }

    if args.self_check {
        let fixtures = args
            .fixtures
            .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures")));
        let report = domd_analyzer::self_check(&fixtures);
        print!("{}", report.render());
        return if report.passed() { ExitCode::SUCCESS } else { ExitCode::from(1) };
    }

    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            domd_analyzer::find_root(&cwd).unwrap_or(cwd)
        }
    };
    match domd_analyzer::scan_workspace(&root) {
        Ok(report) => {
            match args.format {
                Format::Human => print!("{}", report.render_human()),
                Format::Json => print!("{}", report.render_json()),
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("domd-lint: {e}");
            ExitCode::from(2)
        }
    }
}
