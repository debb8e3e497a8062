//! Fault-injection property suite: the ingest→train→serve path must
//! *never panic* on corrupted input. Every scenario corrupts a clean
//! input deterministically (`domd::data::fault`), pushes it through the
//! relevant path stage, and asserts the outcome is one of the contracts:
//! a typed error, a quarantine report, or (for artifacts that happen to
//! survive corruption intact) a working pipeline — caught panics fail the
//! suite with the reproducing seed.
//!
//! Scenario count: 2 tables × 80 seeds (strict + lenient each) + 120
//! text artifact seeds + 160 byte-level storage-fault seeds on framed
//! artifacts = 600 corrupted inputs, comfortably past the 200 the
//! robustness bar asks for.

use domd::core::{load_pipeline, save_pipeline, PipelineConfig, PipelineInputs, TrainedPipeline};
use domd::data::csv as nmd_csv;
use domd::data::{corrupt_bytes, corrupt_text, generate, read_dataset_lenient, GeneratorConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn clean_extracts() -> (String, String) {
    let ds = generate(&GeneratorConfig { n_avails: 25, target_rccs: 1500, scale: 1, seed: 77 });
    (nmd_csv::write_avails(&ds), nmd_csv::write_rccs(&ds))
}

/// Runs `f`, converting a panic into a test failure naming the scenario.
fn assert_no_panic<T>(scenario: &str, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            panic!("{scenario} panicked: {msg}");
        }
    }
}

#[test]
fn corrupted_avail_extract_never_panics_strict_ingest() {
    let (avails, _) = clean_extracts();
    for seed in 0..80 {
        let (bad, kind) = corrupt_text(&avails, seed);
        let scenario = format!("strict avails seed {seed} ({kind})");
        // Strict ingest: Ok (corruption may produce a still-valid file,
        // e.g. a truncation at a row boundary) or a typed CsvError.
        let result = assert_no_panic(&scenario, || nmd_csv::read_avails(&bad));
        if let Err(e) = result {
            assert!(!e.message.is_empty(), "{scenario}: empty error message");
        }
    }
}

#[test]
fn corrupted_rcc_extract_never_panics_strict_ingest() {
    let (_, rccs) = clean_extracts();
    for seed in 0..80 {
        let (bad, kind) = corrupt_text(&rccs, seed);
        let scenario = format!("strict rccs seed {seed} ({kind})");
        let result = assert_no_panic(&scenario, || nmd_csv::read_rccs(&bad));
        if let Err(e) = result {
            assert!(!e.message.is_empty(), "{scenario}: empty error message");
        }
    }
}

#[test]
fn corrupted_extracts_never_panic_lenient_ingest() {
    let (avails, rccs) = clean_extracts();
    for seed in 0..80 {
        // Corrupt each table with its own stream so both corruption
        // positions vary independently of table length.
        let (bad_avails, kind_a) = corrupt_text(&avails, seed);
        let (bad_rccs, kind_r) = corrupt_text(&rccs, seed.wrapping_add(0x5EED));
        let scenario = format!("lenient seed {seed} (avails {kind_a}, rccs {kind_r})");
        let result = assert_no_panic(&scenario, || read_dataset_lenient(&bad_avails, &bad_rccs));
        match result {
            // Lenient mode still fails fast on structural damage (missing
            // or shuffled header) — as a typed error, not a panic.
            Err(e) => assert!(!e.message.is_empty(), "{scenario}: empty error message"),
            Ok((ds, report)) => {
                // Whatever survived must be semantically clean: the
                // validator and the quarantine pass enforce the same
                // rules, so a quarantined load validates with no errors.
                let validation = assert_no_panic(&scenario, || ds.validate());
                let (errors, _) = validation.counts();
                assert_eq!(
                    errors,
                    0,
                    "{scenario}: {} rows quarantined yet validation still finds {errors} errors",
                    report.len()
                );
            }
        }
    }
}

#[test]
fn corrupted_artifact_never_panics_load_pipeline() {
    // One tiny trained pipeline reused across all corruption seeds.
    let ds = generate(&GeneratorConfig { n_avails: 20, target_rccs: 1200, scale: 1, seed: 5 });
    let inputs = PipelineInputs::build(&ds, 50.0);
    let split = ds.split(3);
    let mut cfg = PipelineConfig::paper_final();
    cfg.gbt.n_estimators = 10;
    cfg.k = 5;
    cfg.grid_step = 50.0;
    let pipeline = TrainedPipeline::fit(&inputs, &split.train, &cfg);
    let artifact = save_pipeline(&pipeline);
    assert!(load_pipeline(&artifact).is_ok(), "clean artifact must load");

    let mut rejected = 0usize;
    for seed in 0..120 {
        let (bad, kind) = corrupt_text(&artifact, seed);
        let scenario = format!("artifact seed {seed} ({kind})");
        match assert_no_panic(&scenario, || load_pipeline(&bad)) {
            // Corruption that keeps every parsed field intact loads (a
            // renamed feature does not: the names must be the serving
            // catalog's), and must then still be servable.
            Ok(p) => {
                assert_no_panic(&scenario, || {
                    let engine = domd::features::FeatureEngine::default();
                    p.predict_online_checked(&ds, &engine, split.test[0], 100.0)
                });
            }
            Err(e) => {
                rejected += 1;
                // Artifact damage is always reported as the artifact
                // failure class, with remediation the operator can act on.
                assert_eq!(e.kind(), "artifact", "{scenario}: {e}");
                assert!(e.to_string().contains("re-train"), "{scenario}: {e}");
            }
        }
    }
    // The suite is only meaningful if a healthy share of corruptions are
    // actually caught (truncations and structural damage always are).
    assert!(rejected >= 40, "only {rejected}/120 corrupted artifacts were rejected");
}

#[test]
fn artifact_indexing_past_its_widths_is_refused_at_load() {
    // Hand edits that keep the artifact parseable but point a model past
    // the row it will be given: a split on feature 999, a step that
    // selects column 9999, and a feature table widened past the serving
    // catalog. Each must be refused at load as an artifact error, not
    // panic later inside a query.
    let ds = generate(&GeneratorConfig { n_avails: 20, target_rccs: 1200, scale: 1, seed: 5 });
    let inputs = PipelineInputs::build(&ds, 50.0);
    let split = ds.split(3);
    let mut cfg = PipelineConfig::paper_final();
    cfg.gbt.n_estimators = 10;
    cfg.k = 5;
    cfg.grid_step = 50.0;
    let artifact = save_pipeline(&TrainedPipeline::fit(&inputs, &split.train, &cfg));
    assert!(load_pipeline(&artifact).is_ok(), "clean artifact must load");

    // Replaces the first token after the tag of the first line tagged `tag`.
    let edit = |tag: &str, value: &str| -> String {
        let mut done = false;
        let lines: Vec<String> = artifact
            .lines()
            .map(|l| {
                let mut toks: Vec<&str> = l.split_whitespace().collect();
                if done || toks.len() < 2 || toks[0] != tag {
                    return l.to_string();
                }
                done = true;
                toks[1] = value;
                toks.join(" ")
            })
            .collect();
        assert!(done, "artifact has no `{tag}` line");
        lines.join("\n") + "\n"
    };
    // The feature table stated one name longer (the name table is the
    // artifact's last section), with a step selecting the extra column:
    // in bounds of the artifact's own table, past the serving catalog's
    // 1,490 columns.
    assert!(artifact.contains("\nfeature-names 1490\n"), "the catalog's 1,490 names");
    let widened = edit("selected", "1490")
        .replacen("\nfeature-names 1490\n", "\nfeature-names 1491\n", 1)
        + "extra-feature\n";
    for (scenario, bad) in [
        ("split on feature 999", edit("S", "999")),
        ("selected column 9999", edit("selected", "9999")),
        ("a feature table past the serving catalog", widened.clone()),
    ] {
        match assert_no_panic(scenario, || load_pipeline(&bad)) {
            Ok(_) => panic!("{scenario}: artifact loaded"),
            Err(e) => {
                assert_eq!(e.kind(), "artifact", "{scenario}: {e}");
                assert!(e.to_string().contains("re-train"), "{scenario}: {e}");
            }
        }
    }

    // Both commands that serve an artifact refuse the widened one with
    // the artifact exit code, not a panic (exit 101).
    let dir = std::env::temp_dir().join(format!("domd-widened-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("avails.csv"), nmd_csv::write_avails(&ds)).expect("avails");
    std::fs::write(dir.join("rccs.csv"), nmd_csv::write_rccs(&ds)).expect("rccs");
    std::fs::write(dir.join("model.domd"), &widened).expect("model");
    let (data, model) = (dir.to_str().expect("utf-8 path"), dir.join("model.domd"));
    let avail = split.test[0].0.to_string();
    for args in [
        vec!["query", "--avail", avail.as_str(), "--t-star", "60"],
        vec!["evaluate"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_domd"))
            .args(&args)
            .args(["--data-dir", data, "--model"])
            .arg(&model)
            .output()
            .expect("run domd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(6), "domd {}: {stderr}", args[0]);
        assert!(stderr.contains("error [artifact]"), "domd {}: {stderr}", args[0]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ten_percent_mangled_extract_is_quarantined_and_usable() {
    // The acceptance scenario: mangle ~10% of data rows across both
    // tables; lenient ingest must name every bad line and still hand back
    // a dataset that trains.
    let (avails, rccs) = clean_extracts();
    let mangle = |text: &str, stride: usize, salt: u64| -> String {
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let n = lines.len();
        for i in (1..n).step_by(stride) {
            // Re-corrupt just this line by treating it as a one-row table.
            let one = format!("{}\n{}\n", lines[0], lines[i]);
            let (bad, _) = corrupt_text(&one, i as u64 ^ salt);
            if let Some(line) = bad.lines().nth(1) {
                lines[i] = line.to_string();
            }
        }
        lines.join("\n") + "\n"
    };
    // Header shuffles would structurally reject the whole file (correct,
    // but not this scenario) — keep headers intact.
    let bad_avails = {
        let m = mangle(&avails, 10, 0xA);
        let mut lines: Vec<&str> = m.lines().collect();
        let header = avails.lines().next().unwrap();
        lines[0] = header;
        lines.join("\n") + "\n"
    };
    let bad_rccs = {
        let m = mangle(&rccs, 10, 0xB);
        let mut lines: Vec<&str> = m.lines().collect();
        lines[0] = rccs.lines().next().unwrap();
        lines.join("\n") + "\n"
    };

    let (ds, report) = read_dataset_lenient(&bad_avails, &bad_rccs).expect("headers intact");
    // Every quarantined row names its line and reason.
    for row in &report.rows {
        assert!(row.line >= 2, "quarantined row with impossible line {}", row.line);
        assert!(!row.reason.is_empty());
    }
    assert!(!ds.avails().is_empty(), "usable avails must remain");
    let summary = report.summary();
    assert!(summary.contains("quarantined"), "{summary}");
    // The survivors train end to end.
    let split = ds.split(3);
    if split.train.len() >= 4 {
        let inputs = PipelineInputs::build(&ds, 50.0);
        let mut cfg = PipelineConfig::paper_final();
        cfg.gbt.n_estimators = 5;
        cfg.k = 4;
        cfg.grid_step = 50.0;
        let p = TrainedPipeline::fit(&inputs, &split.train, &cfg);
        assert_eq!(p.steps.len(), 3);
    }
}

#[test]
fn storage_faulted_framed_artifact_never_panics_and_is_usually_caught() {
    // The framed (FORMAT_VERSION 2) artifact path: byte-level storage
    // faults — torn writes, truncation, bit-flips — must surface as typed
    // errors from the checksum layer, never as panics or silent garbage.
    let ds = generate(&GeneratorConfig { n_avails: 20, target_rccs: 1200, scale: 1, seed: 5 });
    let inputs = PipelineInputs::build(&ds, 50.0);
    let split = ds.split(3);
    let mut cfg = PipelineConfig::paper_final();
    cfg.gbt.n_estimators = 10;
    cfg.k = 5;
    cfg.grid_step = 50.0;
    let pipeline = TrainedPipeline::fit(&inputs, &split.train, &cfg);
    let framed = domd::core::save_pipeline_framed(&pipeline);
    assert!(
        domd::core::load_pipeline_bytes(&framed, "clean").is_ok(),
        "clean framed artifact must load"
    );

    let mut rejected = 0usize;
    for seed in 0..160 {
        // Framed artifacts are not record streams; no duplicate-tail arm.
        let (bad, kind) = corrupt_bytes(&framed, seed, None);
        let scenario = format!("framed artifact seed {seed} ({kind})");
        match assert_no_panic(&scenario, || domd::core::load_pipeline_bytes(&bad, &scenario)) {
            // `corrupt_bytes` can draw a zero-byte truncation, which is an
            // empty (not corrupt) artifact; anything else that loads would
            // mean damage slipped past the CRC.
            Ok(_) => panic!("{scenario}: corrupted framed artifact loaded"),
            Err(e) => {
                rejected += 1;
                let kind = e.kind();
                assert!(
                    kind == "corrupt" || kind == "artifact" || kind == "parse",
                    "{scenario}: unexpected class {kind}: {e}"
                );
            }
        }
    }
    assert_eq!(rejected, 160, "every byte-level corruption must be rejected");
}
