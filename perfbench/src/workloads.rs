//! The three workloads and their output checks. README.md gives each
//! workload's rationale: the mechanisms it exercises and bypasses.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use domd_core::{PipelineConfig, PipelineInputs, TrainedPipeline};
use domd_data::rcc::{Rcc, RccId};
use domd_data::{logical_time, Dataset};
use domd_features::FeatureEngine;
use domd_index::{
    project_dataset, DurableIndex, FlatAvlIndex, LogicalRcc, RccDelta, StatusQuery,
    StatusQueryEngine, DEFAULT_CHECKPOINT_EVERY,
};
use domd_perfbench::procfs;
use domd_perfbench::trace::{Span, Tracer};
use domd_serve::{
    parse_line, rebuild_tenant, Op, Reply, Response, ServeConfig, ServeCore, SharedModel,
    TenantSnapshot, WallClock,
};
use domd_storage::{replay, Store};

use crate::client::serve_line;
use crate::fleet::{Fleet, OpKind, RequestGen};
use crate::replay::{same_aggregate, same_estimates, Counters, MirrorDurable, Replayer};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Samples every reported op needs in a measured phase (p90 needs 100).
pub const MIN_SAMPLES: usize = 150;
/// Rows a previous session acked into the 4x stores' WAL, so that the
/// ingest workload's measured phase crosses an auto-checkpoint (after
/// about 300 logged rows) and the restart workload replays about 2k WAL
/// rows.
pub const INGEST_HISTORY: usize = DEFAULT_CHECKPOINT_EVERY as usize - 384;
pub const RESTART_HISTORY: usize = 2048;
/// `restart_4x` restarts at least this often, and for `--seconds`.
pub const MIN_RESTARTS: usize = 3;

/// Span names whose self time is private work no timed call accounts
/// for; they count as unattributed, not as a layer.
pub const CONTAINERS: &[&str] = &[
    "serve.execute",
    "index.recover",
    "serve.rebuild",
    "serve.first_answer",
];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for counts and ratios).
    pub n: usize,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed beside them but not gated.
    pub shown: Vec<Metric>,
    pub diagnostics: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
}

/// The workloads, in report order.
pub const WORKLOADS: &[&str] = &["fleet_read_1x", "fleet_ingest_4x", "restart_4x"];

/// Runs `opts.workload`.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "fleet_read_1x" => crate::runs::fleet_read(opts),
        "fleet_ingest_4x" => crate::runs::fleet_ingest(opts),
        "restart_4x" => crate::runs::restart(opts),
        other => Err(format!(
            "unknown workload {other:?}; use one of {WORKLOADS:?}"
        )),
    }
}

pub fn serve_config(durable: bool) -> ServeConfig {
    ServeConfig {
        // Closed-loop clients never queue; a generous budget keeps a
        // host stall from turning into a deadline refusal.
        default_budget: 60_000,
        // `domd serve --store` implies fsync-before-ack.
        sync_each_ingest: durable,
        ..ServeConfig::default()
    }
}

/// Trains the paper's final pipeline (§5.2.2) on the fleet's closed
/// training avails, as `domd train` does.
pub fn train(fleet: &Fleet) -> Result<SharedModel, String> {
    let config = PipelineConfig::paper_final();
    let inputs = PipelineInputs::build_for(&fleet.dataset, &fleet.train, config.grid_step);
    let pipeline = TrainedPipeline::fit(&inputs, &fleet.train, &config);
    if pipeline.config.stacked {
        return Err("the replay mirrors unstacked pipelines only".into());
    }
    Ok(SharedModel {
        pipeline: Arc::new(pipeline),
        features: FeatureEngine::default(),
    })
}

/// A durable store initialized from the extracts (as `domd serve
/// --store` does on first start) plus `history` rows a previous session
/// acked, fsynced. Returns the store and the dataset it holds.
pub fn create_store(
    dir: &Path,
    fleet: &Fleet,
    seed: u64,
    history: usize,
) -> Result<(DurableIndex<FlatAvlIndex>, Dataset), String> {
    let base = &fleet.dataset;
    let projected = project_dataset(base);
    let mut index = DurableIndex::<FlatAvlIndex>::create_full(
        dir,
        projected.iter().copied().zip(base.rccs().iter().cloned()),
    )
    .map_err(|e| format!("create store: {e}"))?;
    let mut rows: Vec<Rcc> = base.rccs().to_vec();
    let next_rcc = rows.iter().map(|r| r.id.0 + 1).max().unwrap_or(0);
    let mut gen = RequestGen::new(fleet, seed, 90, [0, 0, 0, 1]);
    let mut added = 0usize;
    while added < history {
        let line = gen.line(OpKind::Ingest);
        let Ok(Some(req)) = parse_line(&line, 0, 0, 1) else {
            return Err(format!("bad line {line}"));
        };
        let Op::Ingest { rows: batch } = req.op else {
            return Err("history line is no ingest".into());
        };
        for r in batch.iter().take(history - added) {
            let a = base.avail(r.avail).ok_or("history avail missing")?;
            let planned = a.planned_duration().max(1);
            let rcc = Rcc {
                id: RccId(next_rcc + added as u32),
                avail: r.avail,
                rcc_type: r.rcc_type,
                swlin: r.swlin,
                created: r.created,
                settled: r.settled,
                amount: r.amount,
            };
            let logical = LogicalRcc {
                id: (projected.len() + added) as u32,
                avail: r.avail,
                start: logical_time(r.created, a.actual_start, planned),
                end: logical_time(r.settled, a.actual_start, planned),
            };
            index
                .insert_full(&logical, &rcc)
                .map_err(|e| format!("history append: {e}"))?;
            rows.push(rcc);
            added += 1;
        }
    }
    index.sync().map_err(|e| format!("history sync: {e}"))?;
    Ok((index, Dataset::new(base.avails().to_vec(), rows)))
}

/// The replay's mirror of a tenant's durable store: `index`, a second
/// store holding the same rows, and where its WAL lives.
pub fn mirror_of(index: DurableIndex<FlatAvlIndex>) -> Result<MirrorDurable, String> {
    let next_id = index.max_id().map_or(0, |m| m + 1);
    let wal_path = Store::open(index.store_dir())
        .map_err(|e| e.to_string())?
        .wal_path();
    Ok(MirrorDurable {
        index,
        next_id,
        wal_path,
    })
}

pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path)
}

/// What each set-up of a run took.
#[derive(Debug, Default)]
pub struct Setups {
    /// Process CPU seconds (all threads): leaves out host steal and the
    /// waits on the disk, which moved the wall time of a 4x store's set-up
    /// far more than its work. `setup_s` is their median.
    pub cpu_s: Vec<f64>,
    /// Wall seconds, printed as a diagnostic.
    pub wall_s: Vec<f64>,
}

/// Runs `count` set-ups and keeps the last one.
pub fn timed_setups<T>(
    count: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Setups), String> {
    let cpu = || procfs::process_cpu_seconds().ok_or("process CPU time unreadable");
    let mut times = Setups::default();
    let mut kept = None;
    for i in 0..count {
        drop(kept.take());
        let (cpu0, t0) = (cpu()?, Instant::now());
        let built = setup(i)?;
        times.cpu_s.push(cpu()? - cpu0);
        times.wall_s.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    Ok((kept.ok_or("no set-up ran")?, times))
}

pub fn reset_rss(out: &mut Outcome) {
    if let Err(e) = procfs::reset_peak_rss() {
        out.diagnostics.push(format!(
            "peak RSS reset failed ({e}); peak_rss_mb includes set-up"
        ));
    }
}

/// The restart's first answers: one status and one predict line.
pub struct FirstAnswers {
    status: String,
    predict: String,
    want_status: domd_index::StatusAggregate,
    want_predict: Vec<(f64, f64)>,
}

impl FirstAnswers {
    /// The same two lines on every run (every restart then does the same
    /// work), and the answers a from-scratch snapshot over `rows` gives
    /// them (status via `from_arena_rows`, predict via uncached
    /// `predict_online_checked`).
    pub fn new(fleet: &Fleet, rows: Dataset, model: &SharedModel) -> Result<Self, String> {
        let status = "status tenant=0 t=60 status=active".to_string();
        let predict = RequestGen::new(fleet, 0, 0, [0, 1, 0, 0]).predict_for(0);
        let reference = TenantSnapshot::from_dataset(rows);
        let want_status = status_reference(&reference).aggregate(&status_query(&status)?);
        let (avail, t_star) = predict_target(&predict)?;
        let want_predict = model
            .pipeline
            .predict_online_checked(&reference.dataset, &model.features, avail, t_star)
            .estimates;
        Ok(FirstAnswers {
            status,
            predict,
            want_status,
            want_predict,
        })
    }

    pub fn check(&self, status: &Response, predict: &Response) -> Result<(), String> {
        match &status.outcome {
            Ok(Reply::Status(a)) if same_aggregate(a, &self.want_status) => {}
            other => {
                return Err(format!(
                    "first status answer differs from scratch: {other:?}"
                ))
            }
        }
        match &predict.outcome {
            Ok(Reply::Predict {
                estimates,
                degraded: false,
                ..
            }) if same_estimates(&estimates_of(estimates), &self.want_predict) => Ok(()),
            other => Err(format!(
                "first predict answer differs from scratch: {other:?}"
            )),
        }
    }
}

pub fn estimates_of(e: &[domd_core::DomdEstimate]) -> Vec<(f64, f64)> {
    e.iter().map(|x| (x.t_star, x.estimated_delay)).collect()
}

pub fn status_query(line: &str) -> Result<StatusQuery, String> {
    match parse_line(line, 0, 0, 1)
        .map_err(|e| e.to_string())?
        .map(|r| r.op)
    {
        Some(Op::Status(q)) => Ok(q),
        _ => Err(format!("not a status line: {line}")),
    }
}

/// The output checks' status queries, parsed from
/// [`Fleet::status_probes`] as the server parses them.
pub fn probe_queries(fleet: &Fleet) -> Result<Vec<StatusQuery>, String> {
    fleet
        .status_probes()
        .iter()
        .map(|l| status_query(l))
        .collect()
}

pub fn predict_target(line: &str) -> Result<(domd_data::AvailId, f64), String> {
    match parse_line(line, 0, 0, 1)
        .map_err(|e| e.to_string())?
        .map(|r| r.op)
    {
        Some(Op::Predict { avail, t_star }) => Ok((avail, t_star)),
        _ => Err(format!("not a predict line: {line}")),
    }
}

/// A from-scratch Status-Query engine over a snapshot's live rows.
pub fn status_reference(snap: &TenantSnapshot) -> StatusQueryEngine<FlatAvlIndex> {
    StatusQueryEngine::from_arena_rows(Arc::clone(snap.engine.arena()), &snap.engine.live_rows())
}

/// A server restarted up to its first answers.
pub struct Restarted {
    pub core: ServeCore,
    /// Wall time from the start of recovery to the first answers, ms.
    pub ms: f64,
    /// The restarting thread's on-CPU time over the same span, ms (a
    /// restart runs on one thread).
    pub cpu_ms: Option<f64>,
    pub status: Response,
    pub predict: Response,
}

/// One restart of the store in `dir` up to its first answers:
/// `DurableIndex::recover` → `rebuild_tenant` → `ServeCore::new(..)
/// .with_durable` → first status and predict. Timed on the wall clock and
/// on `cpu` (the calling thread's counters). With tracing on, the recover
/// and rebuild internals are replayed afterwards under their spans.
pub fn restart_once(
    fleet: &Fleet,
    dir: &Path,
    model: &SharedModel,
    first: &FirstAnswers,
    cpu: Option<&procfs::ThreadCpu>,
    tr: &mut Tracer,
    counters: &mut Counters,
) -> Result<Restarted, String> {
    let admit = Mutex::new(());
    let cpu0 = cpu.and_then(procfs::ThreadCpu::ns);
    let t0 = Instant::now();
    let root = tr.open("restart", None);
    let rec = tr.open("index.recover", root);
    let recovered = DurableIndex::<FlatAvlIndex>::recover(dir);
    tr.close(rec);
    let (index, _) = recovered.map_err(|e| format!("recover: {e}"))?;
    let reb = tr.open("serve.rebuild", root);
    let rebuilt = rebuild_tenant(&fleet.dataset, &index);
    tr.close(reb);
    let snap = rebuilt.map_err(|e| format!("rebuild: {e}"))?.0;
    let fa = tr.open("serve.first_answer", root);
    let core = ServeCore::new(
        serve_config(true),
        WallClock::new(),
        model.clone(),
        vec![snap],
    )
    .with_durable(0, index)
    .map_err(|e| e.to_string())?;
    let (status, exec_s) = serve_line(&core, &admit, &first.status, 0, tr, fa);
    let (predict, exec_p) = serve_line(&core, &admit, &first.predict, 1, tr, fa);
    tr.close(fa);
    tr.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = match (cpu0, cpu.and_then(procfs::ThreadCpu::ns)) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a) as f64 / 1e6),
        _ => None,
    };
    if tr.enabled() {
        let replayer = Replayer::new(model.clone(), core.config().cache_capacity, None, None);
        replayer.replay(&core, tr, exec_s, &first.status, &status, counters)?;
        replayer.replay(&core, tr, exec_p, &first.predict, &predict, counters)?;
        replay_restart(tr, rec, reb, fleet, dir, &core, counters)?;
    }
    Ok(Restarted {
        core,
        ms,
        cpu_ms,
        status,
        predict,
    })
}

/// Replays what `DurableIndex::recover` and `rebuild_tenant` did, through
/// public calls on a second instance of the same store: checkpoint load
/// and WAL replay under `rec`; delta extraction, delta apply and dataset
/// merge under `reb`. The replayed snapshot must equal the served one.
fn replay_restart(
    tr: &mut Tracer,
    rec: Option<usize>,
    reb: Option<usize>,
    fleet: &Fleet,
    dir: &Path,
    core: &ServeCore,
    counters: &mut Counters,
) -> Result<(), String> {
    let store = Store::open(dir).map_err(|e| e.to_string())?;
    let checkpoint = tr
        .time("storage.checkpoint_load", rec, || {
            store.newest_intact_checkpoint()
        })
        .map_err(|e| format!("checkpoint load: {e}"))?;
    let records = tr
        .time("storage.wal_replay", rec, || {
            store
                .read_wal()
                .map(|bytes| replay(&bytes, checkpoint.checkpoint.epoch).records.len())
        })
        .map_err(|e| format!("wal replay: {e}"))?;
    let (mirror, report) =
        DurableIndex::<FlatAvlIndex>::recover(dir).map_err(|e| format!("recover: {e}"))?;
    if records != report.replayed {
        return Err(format!(
            "WAL replay found {records} records, recovery {}",
            report.replayed
        ));
    }
    let deltas = tr
        .time("index.rebuild_deltas", reb, || {
            mirror.rebuild_deltas(|_| None, |a| fleet.dataset.avail(a).cloned())
        })
        .map_err(|e| format!("rebuild deltas: {e}"))?;
    drop(mirror);
    let mut snap =
        TenantSnapshot::from_dataset(Dataset::new(fleet.dataset.avails().to_vec(), Vec::new()));
    let fresh: Vec<Rcc> = deltas
        .iter()
        .filter_map(|d| match d {
            RccDelta::Insert { rcc, .. } => Some(rcc.clone()),
            _ => None,
        })
        .collect();
    tr.time("index.rebuild_apply", reb, || {
        snap.engine.apply_deltas(&deltas)
    });
    counters.rebuild_deltas += deltas.len() as u64;
    let dataset = tr.time("data.rebuild_merge", reb, || {
        snap.dataset.with_rccs_merged(fresh)
    });
    let served = core.tenant_store(0).ok_or("tenant 0 missing")?.pin();
    let same = served.dataset.rccs().len() == dataset.rccs().len()
        && served.engine.arena().len() == snap.engine.arena().len()
        && probe_queries(fleet)?
            .iter()
            .all(|q| same_aggregate(&served.engine.aggregate(q), &snap.engine.aggregate(q)));
    if !same {
        return Err("replayed rebuild differs from the served snapshot".into());
    }
    Ok(())
}
