//! Persistence of the full trained pipeline — the deployable artifact.
//!
//! `save` writes the configuration, the optional static base model, every
//! per-step model with its selected feature columns, and the feature-name
//! table; `load` reconstructs a [`TrainedPipeline`] that predicts
//! bit-identically. The artifact is the thing shipped into the Navy
//! environment; retraining there regenerates it without human
//! intervention (Abstract).

use crate::config::{Fusion, ModelFamily, PipelineConfig};
use crate::error::DomdError;
use crate::timeline::{StepModel, TrainedPipeline};
use domd_features::{FeatureCatalog, N_STATIC};
use domd_ml::persist::{fmt_f64, framed_text, put_line, PersistError, Reader};
use domd_ml::{ElasticNetParams, GbtParams, Loss, SelectionMethod, TrainedModel};
use std::path::Path;

/// Artifact format version (bumped on layout changes). Version 2 wraps
/// the text body in the checksummed length + CRC frame
/// (`domd_storage::frame`) and is written atomically, so a `kill -9` at
/// any byte of a save leaves either the previous intact artifact or the
/// new one — never a torn file that parses as garbage.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest artifact version this binary still reads. The version-2 bump
/// added the frame around the text body without changing the text layout
/// itself, so bare version-1 artifacts from the previous release load
/// unchanged.
pub const MIN_FORMAT_VERSION: u32 = 1;

fn selection_token(s: SelectionMethod) -> &'static str {
    s.name()
}

fn selection_from(r: &Reader<'_>, tok: &str) -> Result<SelectionMethod, PersistError> {
    SelectionMethod::ALL
        .into_iter()
        .find(|m| m.name() == tok)
        .ok_or_else(|| r.err(format!("unknown selection method {tok:?}")))
}

fn fusion_tokens(f: Fusion) -> Vec<String> {
    match f {
        Fusion::None => vec!["none".into()],
        Fusion::Min => vec!["min".into()],
        Fusion::Average => vec!["average".into()],
        Fusion::Median => vec!["median".into()],
        Fusion::RecencyWeighted(g) => vec!["recency".into(), fmt_f64(g)],
    }
}

fn fusion_from(r: &Reader<'_>, toks: &[&str]) -> Result<Fusion, PersistError> {
    match toks.first() {
        Some(&"none") => Ok(Fusion::None),
        Some(&"min") => Ok(Fusion::Min),
        Some(&"average") => Ok(Fusion::Average),
        Some(&"median") => Ok(Fusion::Median),
        Some(&"recency") => {
            let g: f64 = toks
                .get(1)
                .ok_or_else(|| r.err("missing recency decay".to_string()))?
                .parse()
                .map_err(|e| r.err(format!("bad recency decay: {e}")))?;
            if !(g > 0.0 && g <= 1.0) {
                return Err(r.err(format!("recency decay {g} outside (0, 1]")));
            }
            Ok(Fusion::RecencyWeighted(g))
        }
        other => Err(r.err(format!("unknown fusion {other:?}"))),
    }
}

/// Serializes a pipeline configuration.
pub fn write_config(c: &PipelineConfig, out: &mut String) {
    put_line(
        out,
        "config",
        &[
            selection_token(c.selection).to_string(),
            c.k.to_string(),
            match c.family {
                ModelFamily::Gbt => "gbt".to_string(),
                ModelFamily::ElasticNet => "enet".to_string(),
            },
            c.stacked.to_string(),
            fmt_f64(c.grid_step),
            c.seed.to_string(),
        ],
    );
    put_line(out, "loss", &c.loss.to_tokens());
    put_line(out, "fusion", &fusion_tokens(c.fusion));
    put_line(
        out,
        "gbt-params",
        &[
            c.gbt.n_estimators.to_string(),
            fmt_f64(c.gbt.learning_rate),
            c.gbt.max_depth.to_string(),
            fmt_f64(c.gbt.min_child_weight),
            fmt_f64(c.gbt.lambda),
            fmt_f64(c.gbt.gamma),
            fmt_f64(c.gbt.subsample),
            fmt_f64(c.gbt.colsample_bytree),
            c.gbt.seed.to_string(),
        ],
    );
    put_line(
        out,
        "enet-params",
        &[
            fmt_f64(c.enet.alpha),
            fmt_f64(c.enet.l1_ratio),
            c.enet.max_iter.to_string(),
            fmt_f64(c.enet.tol),
        ],
    );
}

/// Parses a configuration written by [`write_config`].
pub fn read_config(r: &mut Reader<'_>) -> Result<PipelineConfig, PersistError> {
    let toks = r.tagged("config")?;
    let toks2 = r.exactly(&toks, 6)?;
    let selection = selection_from(r, toks2[0])?;
    let k: usize = r.parse(toks2[1], "k")?;
    let family = match toks2[2] {
        "gbt" => ModelFamily::Gbt,
        "enet" => ModelFamily::ElasticNet,
        other => return Err(r.err(format!("unknown family {other:?}"))),
    };
    let stacked: bool = r.parse(toks2[3], "stacked")?;
    let grid_step: f64 = r.parse(toks2[4], "grid step")?;
    let seed: u64 = r.parse(toks2[5], "seed")?;

    let loss_toks = r.tagged("loss")?;
    let loss = Loss::from_tokens(&loss_toks).map_err(|e| r.err(e.message))?;
    let fusion_toks = r.tagged("fusion")?;
    let fusion = fusion_from(r, &fusion_toks)?;

    let g = r.tagged("gbt-params")?;
    let g = r.exactly(&g, 9)?;
    let gbt = GbtParams {
        n_estimators: r.parse(g[0], "n_estimators")?,
        learning_rate: r.parse(g[1], "learning_rate")?,
        max_depth: r.parse(g[2], "max_depth")?,
        min_child_weight: r.parse(g[3], "min_child_weight")?,
        lambda: r.parse(g[4], "lambda")?,
        gamma: r.parse(g[5], "gamma")?,
        subsample: r.parse(g[6], "subsample")?,
        colsample_bytree: r.parse(g[7], "colsample")?,
        loss,
        seed: r.parse(g[8], "gbt seed")?,
    };
    let e = r.tagged("enet-params")?;
    let e = r.exactly(&e, 4)?;
    let enet = ElasticNetParams {
        alpha: r.parse(e[0], "alpha")?,
        l1_ratio: r.parse(e[1], "l1_ratio")?,
        max_iter: r.parse(e[2], "max_iter")?,
        tol: r.parse(e[3], "tol")?,
    };

    Ok(PipelineConfig { selection, k, family, stacked, loss, fusion, grid_step, gbt, enet, seed })
}

/// Serializes a trained pipeline to its artifact text.
pub fn save_pipeline(p: &TrainedPipeline) -> String {
    let mut out = String::new();
    put_line(&mut out, "domd-pipeline", &[FORMAT_VERSION.to_string()]);
    write_config(&p.config, &mut out);
    put_line(
        &mut out,
        "static-model",
        &[if p.static_model.is_some() { "present" } else { "absent" }.to_string()],
    );
    if let Some(m) = &p.static_model {
        m.write_text(&mut out);
    }
    put_line(&mut out, "steps", &[p.steps.len().to_string()]);
    for s in &p.steps {
        put_line(&mut out, "step", &[fmt_f64(s.t_star)]);
        put_line(&mut out, "selected", &s.selected.iter().map(usize::to_string).collect::<Vec<_>>());
        s.model.write_text(&mut out);
    }
    put_line(&mut out, "feature-names", &[p.feature_names.len().to_string()]);
    for n in &p.feature_names {
        out.push_str(n);
        out.push('\n');
    }
    out
}

/// Remediation appended to every artifact error — the operator's way out
/// is always the same: regenerate the artifact with the current binary.
const REMEDIATION: &str = "re-train with `domd train --out <path>` to regenerate the artifact";

/// Wraps a low-level read failure as a typed artifact error.
fn artifact_error(e: PersistError) -> DomdError {
    DomdError::Artifact {
        found_version: None,
        expected: FORMAT_VERSION,
        message: format!("artifact line {}: {}; {REMEDIATION}", e.line, e.message),
    }
}

/// Reconstructs a pipeline from artifact text.
///
/// A version mismatch yields [`DomdError::Artifact`] carrying the found
/// and expected versions; truncation or garbling anywhere in the file
/// yields [`DomdError::Artifact`] naming the offending line. Never panics.
pub fn load_pipeline(text: &str) -> Result<TrainedPipeline, DomdError> {
    let mut r = Reader::new(text);
    let version = read_version(&mut r).map_err(artifact_error)?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(DomdError::Artifact {
            found_version: Some(version),
            expected: FORMAT_VERSION,
            message: format!(
                "unsupported artifact format (this binary reads versions \
                 {MIN_FORMAT_VERSION}..={FORMAT_VERSION}); {REMEDIATION}"
            ),
        });
    }
    let pipeline = read_body(&mut r).map_err(artifact_error)?;
    // A parseable artifact can still carry out-of-range parameters or
    // feature ids (a hand-edited file, or garbling that happens to parse);
    // catch those here rather than deep inside prediction.
    let invalid = |message: String| DomdError::Artifact {
        found_version: Some(version),
        expected: FORMAT_VERSION,
        message: format!("{message}; {REMEDIATION}"),
    };
    pipeline
        .config
        .validate()
        .map_err(|e| invalid(format!("artifact carries an invalid configuration: {e}")))?;
    check_widths(&pipeline)
        .map_err(|e| invalid(format!("artifact's models do not fit its features: {e}")))?;
    Ok(pipeline)
}

/// The input widths prediction indexes by: the feature names are the
/// serving catalog's, in order (prediction builds its rows from that
/// catalog, not from the artifact's names); the static model reads the
/// `N_STATIC` statics; each step model reads the statics (or, stacked,
/// the one base prediction) followed by its selected columns; and every
/// selected column names one of the feature names.
fn check_widths(p: &TrainedPipeline) -> Result<(), String> {
    let catalog = FeatureCatalog::standard().names();
    if p.feature_names != catalog {
        let at = p.feature_names.iter().zip(&catalog).take_while(|(a, b)| a == b).count();
        return Err(format!(
            "its {} feature names are not the serving catalog's {} (they differ from column {at})",
            p.feature_names.len(),
            catalog.len()
        ));
    }
    if let Some(m) = &p.static_model {
        let width = m.feature_importance().len();
        if width != N_STATIC {
            return Err(format!("the static model reads {width} features, not {N_STATIC}"));
        }
    }
    let lead = if p.config.stacked { 1 } else { N_STATIC };
    let n_names = p.feature_names.len();
    for s in &p.steps {
        if let Some(j) = s.selected.iter().find(|&&j| j >= n_names) {
            return Err(format!("step t*={} selects column {j} of {n_names}", s.t_star));
        }
        let (width, want) = (s.model.feature_importance().len(), lead + s.selected.len());
        if width != want {
            return Err(format!("step t*={} model reads {width} features, not {want}", s.t_star));
        }
    }
    Ok(())
}

/// Serializes a trained pipeline to its framed binary artifact: the text
/// body of [`save_pipeline`] wrapped in the checksummed frame, so
/// truncation and bit-flips are caught by CRC verification before any
/// parsing.
pub fn save_pipeline_framed(p: &TrainedPipeline) -> Vec<u8> {
    domd_storage::frame::encode(save_pipeline(p).as_bytes())
}

/// Reconstructs a pipeline from raw artifact bytes — the framed v2 form,
/// or bare text (whose recorded version is then checked as usual).
///
/// Framed artifacts are CRC-verified first; any integrity failure is a
/// typed [`DomdError::Corrupt`] carrying the byte offset and the
/// expected-vs-found diagnosis. `context` names the artifact in errors.
pub fn load_pipeline_bytes(bytes: &[u8], context: &str) -> Result<TrainedPipeline, DomdError> {
    // A non-empty prefix of the magic is a framed artifact truncated
    // inside its header — report that as corruption, not a text parse.
    let framed = bytes.starts_with(&domd_storage::MAGIC)
        || (!bytes.is_empty() && domd_storage::MAGIC.starts_with(bytes));
    if framed {
        return load_pipeline(framed_text(bytes, context)?);
    }
    match std::str::from_utf8(bytes) {
        Ok(text) => load_pipeline(text),
        Err(e) => Err(DomdError::Corrupt {
            context: context.to_string(),
            offset: Some(e.valid_up_to() as u64),
            message: "artifact is neither a framed container nor UTF-8 text".into(),
        }),
    }
}

/// Writes the framed artifact to `path` atomically (tempfile + fsync +
/// rename): a crash mid-save never clobbers the previous good artifact.
pub fn write_pipeline_file(path: &Path, p: &TrainedPipeline) -> Result<(), DomdError> {
    domd_storage::write_atomic(path, &save_pipeline_framed(p)).map_err(DomdError::from)
}

/// Reads and verifies the artifact at `path` (framed v2 or legacy text).
pub fn read_pipeline_file(path: &Path) -> Result<TrainedPipeline, DomdError> {
    let bytes = std::fs::read(path)
        .map_err(|e| DomdError::io(format!("reading {}", path.display()), e))?;
    load_pipeline_bytes(&bytes, &path.display().to_string())
}

fn read_version(r: &mut Reader<'_>) -> Result<u32, PersistError> {
    let v = r.tagged("domd-pipeline")?;
    let v = r.exactly(&v, 1)?;
    r.parse(v[0], "format version")
}

fn read_body(r: &mut Reader<'_>) -> Result<TrainedPipeline, PersistError> {
    let config = read_config(r)?;
    let sm = r.tagged("static-model")?;
    let static_model = match sm.first() {
        Some(&"present") => Some(TrainedModel::read_text(r)?),
        Some(&"absent") => None,
        other => return Err(r.err(format!("bad static-model flag {other:?}"))),
    };
    let st = r.tagged("steps")?;
    let st = r.exactly(&st, 1)?;
    let n_steps: usize = r.parse(st[0], "step count")?;
    let mut steps = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        let t = r.tagged("step")?;
        let t = r.exactly(&t, 1)?;
        let t_star: f64 = r.parse(t[0], "t*")?;
        let sel = r.tagged("selected")?;
        let selected: Vec<usize> = r.parse_all(&sel, "selected column")?;
        let model = TrainedModel::read_text(r)?;
        steps.push(StepModel { t_star, selected, model });
    }
    let fn_head = r.tagged("feature-names")?;
    let fn_head = r.exactly(&fn_head, 1)?;
    let n_names: usize = r.parse(fn_head[0], "name count")?;
    let mut feature_names = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        feature_names.push(r.line()?.to_string());
    }
    Ok(TrainedPipeline { config, static_model, steps, feature_names })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::PipelineInputs;
    use domd_data::{generate, GeneratorConfig};

    fn trained(stacked: bool) -> (PipelineInputs, domd_data::Split, TrainedPipeline) {
        let ds = generate(&GeneratorConfig { n_avails: 30, target_rccs: 2500, scale: 1, seed: 23 });
        let inputs = PipelineInputs::build(&ds, 50.0);
        let split = ds.split(1);
        let mut cfg = PipelineConfig::paper_final();
        cfg.gbt.n_estimators = 30;
        cfg.k = 8;
        cfg.grid_step = 50.0;
        cfg.stacked = stacked;
        let p = TrainedPipeline::fit(&inputs, &split.train, &cfg);
        (inputs, split, p)
    }

    #[test]
    fn config_roundtrip() {
        let mut c = PipelineConfig::paper_final();
        c.fusion = Fusion::RecencyWeighted(0.7);
        c.loss = Loss::Quantile(0.9);
        // The artifact stores one loss (config.loss always overrides the
        // one recorded inside gbt params at training time).
        c.gbt.loss = c.loss;
        c.stacked = true;
        let mut text = String::new();
        write_config(&c, &mut text);
        let back = read_config(&mut Reader::new(&text)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn pipeline_roundtrip_bit_exact_predictions() {
        for stacked in [false, true] {
            let (inputs, split, p) = trained(stacked);
            let text = save_pipeline(&p);
            let back = load_pipeline(&text).unwrap();
            let a = p.predict_steps(&inputs, &split.test);
            let b = back.predict_steps(&inputs, &split.test);
            assert_eq!(a.as_slice(), b.as_slice(), "stacked={stacked}");
            assert_eq!(p.feature_names, back.feature_names);
            assert_eq!(p.steps.len(), back.steps.len());
        }
    }

    #[test]
    fn version_mismatch_is_a_typed_artifact_error() {
        let (_, _, p) = trained(false);
        let text = save_pipeline(&p)
            .replacen(&format!("domd-pipeline {FORMAT_VERSION}"), "domd-pipeline 9", 1);
        match load_pipeline(&text).unwrap_err() {
            DomdError::Artifact { found_version, expected, message } => {
                assert_eq!(found_version, Some(9));
                assert_eq!(expected, FORMAT_VERSION);
                assert!(message.contains("re-train"), "no remediation in {message:?}");
            }
            other => panic!("expected Artifact, got {other:?}"),
        }
    }

    #[test]
    fn models_that_misfit_their_inputs_are_refused() {
        let refused = |text: &str, what: &str| match load_pipeline(text).unwrap_err() {
            DomdError::Artifact { message, .. } => {
                assert!(message.contains(what), "{what}: {message:?}");
                assert!(message.contains("re-train"), "no remediation in {message:?}");
            }
            other => panic!("expected Artifact, got {other:?}"),
        };
        for stacked in [false, true] {
            // A step that lost its last selected column still holds a
            // model that reads one column more.
            let (_, _, p) = trained(stacked);
            let text = save_pipeline(&p);
            let line = text.lines().find(|l| l.starts_with("selected ")).unwrap();
            refused(&text.replacen(line, line.rsplit_once(' ').unwrap().0, 1), "model reads");
        }
        // A static model of the wrong width.
        let (_, _, mut p) = trained(true);
        let one_col = domd_ml::DenseMatrix::from_rows(vec![0.0, 1.0, 2.0], 3, 1);
        p.static_model =
            Some(domd_ml::ModelSpec::Gbt(GbtParams::default()).fit(&one_col, &[0.0, 1.0, 2.0]));
        refused(&save_pipeline(&p), "static model reads 1 features");
        // Feature names that are not the serving catalog's: one renamed,
        // and the table cut short (with its count).
        let (_, _, mut p) = trained(false);
        p.feature_names[7] = "renamed".into();
        refused(&save_pipeline(&p), "not the serving catalog's 1490 (they differ from column 7)");
        p.feature_names.truncate(7);
        refused(&save_pipeline(&p), "its 7 feature names");
    }

    #[test]
    fn legacy_v1_text_artifact_loads_bit_exact() {
        let (inputs, split, p) = trained(false);
        // A v1 artifact is byte-identical to v2 text except for its header
        // line: the frame bump did not touch the text layout.
        let v1 = save_pipeline(&p)
            .replacen(&format!("domd-pipeline {FORMAT_VERSION}"), "domd-pipeline 1", 1);
        let back = load_pipeline(&v1).unwrap();
        assert_eq!(
            p.predict_steps(&inputs, &split.test).as_slice(),
            back.predict_steps(&inputs, &split.test).as_slice()
        );
        // And through the byte entry point, as read_pipeline_file sees it.
        assert!(load_pipeline_bytes(v1.as_bytes(), "mem").is_ok());
    }

    #[test]
    fn truncated_artifact_is_a_typed_artifact_error() {
        let (_, _, p) = trained(false);
        let text = save_pipeline(&p);
        match load_pipeline(&text[..text.len() / 2]).unwrap_err() {
            DomdError::Artifact { found_version: None, message, .. } => {
                assert!(message.contains("artifact line"), "{message:?}");
                assert!(message.contains("re-train"), "{message:?}");
            }
            other => panic!("expected Artifact, got {other:?}"),
        }
    }

    #[test]
    fn truncation_at_every_line_boundary_never_panics() {
        let (_, _, p) = trained(false);
        let text = save_pipeline(&p);
        // Cut after each line in turn; every prefix short of the full
        // artifact must come back as a typed artifact error — not Ok, and
        // above all not a panic.
        let mut cut = 0;
        for line in text.lines() {
            cut += line.len() + 1;
            if cut >= text.len() {
                break;
            }
            match load_pipeline(&text[..cut]) {
                Err(DomdError::Artifact { .. }) => {}
                Ok(_) => panic!("prefix of {cut} bytes parsed as a full artifact"),
                Err(other) => panic!("expected Artifact at cut {cut}, got {other:?}"),
            }
        }
        assert!(load_pipeline(&text).is_ok());
    }

    #[test]
    fn framed_artifact_roundtrips_bit_exact() {
        let (inputs, split, p) = trained(false);
        let framed = save_pipeline_framed(&p);
        let back = load_pipeline_bytes(&framed, "mem").unwrap();
        let a = p.predict_steps(&inputs, &split.test);
        let b = back.predict_steps(&inputs, &split.test);
        assert_eq!(a.as_slice(), b.as_slice());
        // Bare text still loads (the byte entry point dispatches on magic).
        let text = save_pipeline(&p);
        assert!(load_pipeline_bytes(text.as_bytes(), "mem").is_ok());
    }

    #[test]
    fn framed_truncation_and_bit_flips_are_corrupt_errors() {
        let (_, _, p) = trained(false);
        let framed = save_pipeline_framed(&p);
        // Cut 0 is indistinguishable from an empty text artifact (no bytes
        // left to classify); every non-empty truncation must verify as
        // corruption.
        for cut in (1..framed.len()).step_by(97) {
            match load_pipeline_bytes(&framed[..cut], "artifact.domd") {
                Err(DomdError::Corrupt { context, message, .. }) => {
                    assert_eq!(context, "artifact.domd");
                    assert!(!message.is_empty());
                }
                other => panic!("cut {cut}: expected Corrupt, got {other:?}"),
            }
        }
        // With the magic intact, the CRC catches any flip downstream.
        for byte in (8..framed.len()).step_by(131) {
            let mut bad = framed.clone();
            bad[byte] ^= 0x08;
            assert!(
                matches!(
                    load_pipeline_bytes(&bad, "artifact.domd"),
                    Err(DomdError::Corrupt { .. })
                ),
                "flip at byte {byte} not caught"
            );
        }
        // A flip inside the magic loses the framed classification; the
        // bytes must still come back as a typed error, never a pipeline.
        for byte in 0..8 {
            let mut bad = framed.clone();
            bad[byte] ^= 0x08;
            assert!(load_pipeline_bytes(&bad, "artifact.domd").is_err(), "flip at {byte}");
        }
    }

    #[test]
    fn atomic_write_survives_and_replaces() {
        let dir = std::env::temp_dir()
            .join(format!("domd-core-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pipeline.domd");
        let (inputs, split, p) = trained(false);
        write_pipeline_file(&path, &p).unwrap();
        let back = read_pipeline_file(&path).unwrap();
        assert_eq!(
            p.predict_steps(&inputs, &split.test).as_slice(),
            back.predict_steps(&inputs, &split.test).as_slice()
        );
        // Simulated torn in-place overwrite: the frame rejects the bytes.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        assert!(matches!(read_pipeline_file(&path), Err(DomdError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
