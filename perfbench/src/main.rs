//! `domd-perfbench` — the benchmark of `domd serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_read_1x|fleet_ingest_4x|restart_4x \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload in-process against the real serving stack, checks
//! every answer it samples against a from-scratch recomputation, prints
//! per-run diagnostics and every metric with its unit and sample count,
//! and ends with one JSON line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace
//! 1`). A failed output check prints `"correct": false` and exits 1.
//! See README.md for the workloads and metrics.

#![deny(unsafe_code)]

mod client;
mod fleet;
mod replay;
mod runs;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Opts, Outcome, WORKLOADS};

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.len().is_multiple_of(2) {
        return Err("expected --flag value pairs".into());
    }
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::new(),
    };
    for pair in args.chunks(2) {
        let value = &pair[1];
        let bad = |e: &dyn std::fmt::Display| format!("bad {} {value:?}: {e}", pair[0]);
        match pair[0].as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"use 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    // Stores and span dumps live under the directory the benchmark is run
    // from (the repository checkout), one directory per process.
    opts.work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", opts.workload, std::process::id()));
    Ok(opts)
}

fn json_number(v: f64) -> String {
    // Rust prints the shortest string that reads back as the same f64.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_outcome(opts: &Opts, o: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    for d in &o.diagnostics {
        println!("{d}");
    }
    for m in &o.metrics {
        println!(
            "{:<34} {:>16} {:<5} n={}",
            m.name,
            json_number(m.value),
            m.unit,
            m.n
        );
    }
    for m in &o.shown {
        println!(
            "{:<34} {:>16} {:<5} n={} (printed, not gated)",
            m.name,
            json_number(m.value),
            m.unit,
            m.n
        );
    }
    for f in &o.failures {
        println!("CHECK FAILED: {f}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failures.is_empty(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        return ExitCode::from(2);
    }
    let result = workloads::run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::from(2);
        }
    };
    if opts.trace {
        // One file per workload, overwritten by the next traced run, so
        // repeated runs do not pile up dumps of tens of MB.
        let path = PathBuf::from(".bench_work").join(format!("spans-{}.tsv", opts.workload));
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            domd_perfbench::trace::write_tsv(&outcome.spans, &mut w)?;
            std::io::Write::flush(&mut w)
        });
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    print_outcome(&opts, &outcome);
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
