//! The three workload flows, their output checks and their metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use domd_data::rcc::Rcc;
use domd_data::{AvailId, Dataset};
use domd_index::{
    DurableIndex, FlatAvlIndex, RccArena, RowId, StatusQueryEngine, DEFAULT_CHECKPOINT_EVERY,
};
use domd_perfbench::procfs;
use domd_perfbench::stats::{median, percentile};
use domd_perfbench::trace::{layer_totals, merge, unattributed, Span, Tracer};
use domd_serve::{Reply, ServeCore, SharedModel, TenantSnapshot, WallClock};

use crate::client::{run_phase, Kept, PhaseOut, PhaseSpec};
use crate::fleet::{Fleet, OpKind};
use crate::replay::{same_aggregate, same_estimates, Counters, Replayer};
use crate::workloads::*;

/// The 4x workloads' request mix: status 30 : predict 25 : alert 5 :
/// ingest 40.
const INGEST_MIX: [u32; 4] = [30, 25, 5, 40];

/// The measured phase of a mixed workload.
fn mixed(clients: usize, mix: [u32; 4], opts: &Opts) -> PhaseSpec {
    PhaseSpec {
        clients,
        mix,
        stream: 0,
        warm_predicts: true,
        warm_mixed: 100,
        min_seconds: opts.seconds,
        // The traced run reports means per layer, no percentiles.
        min_samples: if opts.trace { 20 } else { MIN_SAMPLES },
        min_rows: 0,
        max_seconds: 4.0 * opts.seconds + 20.0,
        keep_every: 0,
        keep_cap: [0; 4],
    }
}

fn set_ups(opts: &Opts) -> usize {
    // The traced run reports no set-up time.
    if opts.trace {
        1
    } else {
        SETUPS
    }
}

/// `fleet_read_1x`: the paper-scale live fleet, storeless, two clients
/// reading (status 60 : predict 35 : alert 5).
pub fn fleet_read(opts: &Opts) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let fleet = Fleet::build(1)?;
    let origin = Instant::now();
    let ((model, core), setups) = timed_setups(set_ups(opts), |_| {
        let model = train(&fleet)?;
        let snap = TenantSnapshot::from_dataset(fleet.dataset.clone());
        let core = ServeCore::new(
            serve_config(false),
            WallClock::new(),
            model.clone(),
            vec![snap],
        );
        Ok((model, core))
    })?;
    reset_rss(&mut o);
    let replayer = opts.trace.then(|| {
        Replayer::new(
            model.clone(),
            core.config().cache_capacity,
            None,
            current(&core),
        )
    });
    let spec = PhaseSpec {
        keep_every: 8,
        keep_cap: [400, 200, 20, 0],
        ..mixed(2, [60, 35, 5, 0], opts)
    };
    let read = run_phase(&core, &fleet, opts.seed, &spec, replayer.as_ref(), origin)?;
    let rss = procfs::peak_rss_mb();
    check(
        &mut o,
        "read replies",
        check_reads(&core, &model, &read.kept),
    );
    report(
        &mut o,
        opts,
        Report {
            phase: &read,
            restarts: RestartRun::default(),
            setups: &setups,
            rss,
            queue_peak: core.queue().peak_depth(),
            primary_root: "request",
        },
    )?;
    Ok(o)
}

/// `fleet_ingest_4x`: the fleet at 4x RCCs behind a durable store with
/// fsync before ack, one client (status 30 : predict 25 : alert 5 :
/// ingest 40) until an auto-checkpoint has landed.
pub fn fleet_ingest(opts: &Opts) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let fleet = Fleet::build(4)?;
    let origin = Instant::now();
    let ((model, core, dir, rows_before), setups) = timed_setups(set_ups(opts), |i| {
        let dir = fresh_dir(opts.work_dir.join(format!("store-{i}")))?;
        let model = train(&fleet)?;
        let (index, rows) = create_store(&dir, &fleet, opts.seed, INGEST_HISTORY)?;
        let rows_before = rows.rccs().len();
        let snap = TenantSnapshot::from_dataset(rows);
        let core = ServeCore::new(
            serve_config(true),
            WallClock::new(),
            model.clone(),
            vec![snap],
        )
        .with_durable(0, index)
        .map_err(|e| e.to_string())?;
        Ok((model, core, dir, rows_before))
    })?;
    let replayer = match opts.trace {
        true => {
            let mirror_dir = fresh_dir(opts.work_dir.join("mirror"))?;
            let (index, _) = create_store(&mirror_dir, &fleet, opts.seed, INGEST_HISTORY)?;
            Some(Replayer::new(
                model.clone(),
                core.config().cache_capacity,
                Some(mirror_of(index)?),
                current(&core),
            ))
        }
        false => None,
    };
    reset_rss(&mut o);
    let spec = PhaseSpec {
        // The WAL already holds `INGEST_HISTORY` rows: these land the
        // auto-checkpoint inside the phase.
        min_rows: (DEFAULT_CHECKPOINT_EVERY as usize - INGEST_HISTORY) as u64,
        ..mixed(1, INGEST_MIX, opts)
    };
    let phase = run_phase(&core, &fleet, opts.seed, &spec, replayer.as_ref(), origin)?;
    let rss = procfs::peak_rss_mb();
    drop(replayer);
    let queue_peak = core.queue().peak_depth();
    check_after_ingest(&mut o, core, &dir, &fleet, rows_before, &phase)?;
    report(
        &mut o,
        opts,
        Report {
            phase: &phase,
            restarts: RestartRun::default(),
            setups: &setups,
            rss,
            queue_peak,
            primary_root: "request",
        },
    )?;
    Ok(o)
}

/// `restart_4x`: a 4x store as a killed `domd serve --store` leaves it
/// (checkpoint plus ~2k acked WAL rows), restarted repeatedly up to its
/// first answers; the last restarted server then serves one client at the
/// 4x mix, cold.
pub fn restart(opts: &Opts) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let fleet = Fleet::build(4)?;
    let origin = Instant::now();
    let ((model, dir, rows), setups) = timed_setups(set_ups(opts), |i| {
        let dir = fresh_dir(opts.work_dir.join(format!("store-{i}")))?;
        let model = train(&fleet)?;
        let (index, rows) = create_store(&dir, &fleet, opts.seed, RESTART_HISTORY)?;
        drop(index);
        Ok((model, dir, rows))
    })?;
    let rows_before = rows.rccs().len();
    let first = FirstAnswers::new(&fleet, rows, &model)?;
    reset_rss(&mut o);
    let (restarted, core) = restarts(&fleet, &dir, &model, &first, opts, origin, &mut o)?;

    let replayer = match opts.trace {
        true => {
            let copy = fresh_dir(opts.work_dir.join("mirror"))?;
            copy_files(&dir, &copy)?;
            let (index, _) =
                DurableIndex::<FlatAvlIndex>::recover(&copy).map_err(|e| e.to_string())?;
            Some(Replayer::new(
                model.clone(),
                core.config().cache_capacity,
                Some(mirror_of(index)?),
                current(&core),
            ))
        }
        false => None,
    };
    // The restarted server then serves one client at the 4x mix, with no
    // warm-up: its feature cache is cold and its engine was rebuilt delta
    // by delta.
    let after = PhaseSpec {
        stream: 20,
        warm_predicts: false,
        warm_mixed: 0,
        ..mixed(1, INGEST_MIX, opts)
    };
    let phase = run_phase(&core, &fleet, opts.seed, &after, replayer.as_ref(), origin)?;
    let rss = procfs::peak_rss_mb();
    drop(replayer);
    let queue_peak = core.queue().peak_depth();
    check_after_ingest(&mut o, core, &dir, &fleet, rows_before, &phase)?;
    report(
        &mut o,
        opts,
        Report {
            phase: &phase,
            restarts: restarted,
            setups: &setups,
            rss,
            queue_peak,
            primary_root: "restart",
        },
    )?;
    Ok(o)
}

/// What a series of restarts measured: untraced wall and CPU times (ms),
/// the traced restarts' spans, and their counters.
#[derive(Default)]
pub struct RestartRun {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    spans: Vec<Span>,
    counters: Counters,
}

/// Restarts the store in `dir` at least [`MIN_RESTARTS`] times and for
/// `--seconds`; returns what the restarts measured and the last server.
/// The server before each restart is dropped first (a killed process). In
/// the traced run every other restart is traced; only untraced ones are
/// timed.
fn restarts(
    fleet: &Fleet,
    dir: &Path,
    model: &SharedModel,
    first: &FirstAnswers,
    opts: &Opts,
    origin: Instant,
    o: &mut Outcome,
) -> Result<(RestartRun, ServeCore), String> {
    let mut tr = Tracer::new(origin);
    let thread_cpu = procfs::ThreadCpu::open();
    let mut run = RestartRun::default();
    let mut traced = Vec::new();
    let began = Instant::now();
    let mut last = None;
    let mut i = 0;
    while i < MIN_RESTARTS || began.elapsed().as_secs_f64() < opts.seconds {
        drop(last.take());
        let on = opts.trace && i % 2 == 1;
        tr.set_enabled(on);
        tr.set_request(1_000_000_000 + i as u64);
        let r = restart_once(
            fleet,
            dir,
            model,
            first,
            thread_cpu.as_ref(),
            &mut tr,
            &mut run.counters,
        )?;
        o.attempted += 2;
        o.failed += [&r.status, &r.predict]
            .iter()
            .filter(|x| x.outcome.is_err())
            .count() as u64;
        check(
            o,
            "restart first answers",
            first.check(&r.status, &r.predict),
        );
        if on {
            traced.push(r.ms);
        } else {
            run.wall.push(r.ms);
            run.cpu.extend(r.cpu_ms);
        }
        last = Some(r.core);
        i += 1;
    }
    tr.set_enabled(false);
    if opts.trace {
        o.diagnostics.push(format!(
            "restarts: traced median {:.1} ms (n={}), untraced median {:.1} ms (n={})",
            median(&traced).unwrap_or(0.0),
            traced.len(),
            median(&run.wall).unwrap_or(0.0),
            run.wall.len()
        ));
    }
    run.spans = tr.into_spans();
    Ok((run, last.ok_or("no restart ran")?))
}

/// The checks after a phase of ingests into the durable store in `dir`:
/// `durable_rows` equals the starting rows plus the acked rows, and the
/// final epoch equals a from-scratch engine over the store's rows. Drops
/// `core` (closing the store) before reading the store back.
fn check_after_ingest(
    o: &mut Outcome,
    core: ServeCore,
    dir: &Path,
    fleet: &Fleet,
    rows_before: usize,
    phase: &PhaseOut,
) -> Result<(), String> {
    let acked_rows = rows_before + phase.rows_acked as usize;
    let durable = core.durable_rows(0);
    if durable != Some(acked_rows) {
        o.failures.push(format!(
            "durable rows {durable:?} != {rows_before} + {} acked",
            phase.rows_acked
        ));
    }
    let final_epoch = core.tenant_store(0).ok_or("tenant 0 missing")?.pin();
    drop(core);
    let stored = store_rows(dir, fleet)?;
    let probes = probe_queries(fleet)?;
    check(
        o,
        "final epoch",
        check_final_against(&final_epoch, acked_rows, &stored, &probes),
    );
    Ok(())
}

fn copy_files(from: &Path, to: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(from).map_err(|e| e.to_string())?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            let name = path.file_name().ok_or("unnamed store file")?;
            std::fs::copy(&path, to.join(name)).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// The rows a store holds, read back through recovery.
fn store_rows(dir: &Path, fleet: &Fleet) -> Result<Dataset, String> {
    let (index, _) =
        DurableIndex::<FlatAvlIndex>::recover(dir).map_err(|e| format!("recover: {e}"))?;
    let rows: Vec<Rcc> = index
        .entries_full()
        .into_iter()
        .map(|s| s.rcc.ok_or("store row without payload"))
        .collect::<Result<_, _>>()?;
    Ok(Dataset::new(fleet.dataset.avails().to_vec(), rows))
}

fn check(o: &mut Outcome, what: &str, result: Result<(), String>) {
    if let Err(e) = result {
        o.failures.push(format!("{what}: {e}"));
    }
}

/// Every kept read reply equals a from-scratch recomputation on the same
/// epoch: status via `StatusQueryEngine::from_arena_rows`, predict and
/// alert via uncached `predict_online_checked`.
fn check_reads(core: &ServeCore, model: &SharedModel, kept: &[Kept]) -> Result<(), String> {
    let pinned = core.tenant_store(0).ok_or("tenant 0 missing")?.pin();
    let reference = status_reference(&pinned);
    for k in kept {
        if k.resp.epoch != Some(pinned.epoch()) {
            return Err(format!(
                "reply from epoch {:?}, expected {}",
                k.resp.epoch,
                pinned.epoch()
            ));
        }
        let ok = match &k.resp.outcome {
            Ok(Reply::Status(a)) => {
                same_aggregate(a, &reference.aggregate(&status_query(&k.line)?))
            }
            Ok(Reply::Predict {
                estimates,
                degraded,
                ..
            }) => {
                let (avail, t_star) = predict_target(&k.line)?;
                let want = model.pipeline.predict_online_checked(
                    &pinned.dataset,
                    &model.features,
                    avail,
                    t_star,
                );
                !degraded
                    && want.warnings.is_empty()
                    && same_estimates(&estimates_of(estimates), &want.estimates)
            }
            Ok(Reply::Alerts(alerts)) => {
                let got: Vec<(AvailId, u64)> = alerts
                    .iter()
                    .map(|a| (a.avail, a.estimated_delay.to_bits()))
                    .collect();
                got == alert_reference(model, &pinned.dataset, &k.line)?
            }
            other => return Err(format!("{} reply {other:?}", k.kind.name())),
        };
        if !ok {
            return Err(format!("reply differs from scratch: {}", k.line));
        }
    }
    Ok(())
}

/// The alert answer recomputed with uncached `predict_online_checked`.
fn alert_reference(
    model: &SharedModel,
    ds: &Dataset,
    line: &str,
) -> Result<Vec<(AvailId, u64)>, String> {
    let req = domd_serve::parse_line(line, 0, 0, 1).map_err(|e| e.to_string())?;
    let Some(domd_serve::Op::Alerts {
        t_star,
        k,
        min_delay,
    }) = req.map(|r| r.op)
    else {
        return Err(format!("not an alert line: {line}"));
    };
    let mut alerts: Vec<(AvailId, f64)> = ds
        .avails()
        .iter()
        .filter(|a| a.actual_end.is_none())
        .filter_map(|a| {
            let online = model
                .pipeline
                .predict_online_checked(ds, &model.features, a.id, t_star);
            let e = online.estimates.last()?.1;
            (e.is_finite() && e >= min_delay).then_some((a.id, e))
        })
        .collect();
    alerts.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
    alerts.truncate(k);
    Ok(alerts.into_iter().map(|(a, e)| (a, e.to_bits())).collect())
}

/// The final epoch holds exactly the `rows` rows of `stored`, and its
/// aggregates over `probes` equal, to the bit, a from-scratch engine over
/// all of `stored`'s payloads (ingests never remove rows). Ingest appends
/// rows to the arena, and sums visit rows in arena order, so the
/// from-scratch arena is filled in the served arena's row order
/// (`from_dataset` would re-sort and round differently).
fn check_final_against(
    final_epoch: &TenantSnapshot,
    rows: usize,
    stored: &Dataset,
    probes: &[domd_index::StatusQuery],
) -> Result<(), String> {
    let served = final_epoch.engine.arena();
    if final_epoch.dataset.rccs().len() != rows
        || stored.rccs().len() != rows
        || served.len() != rows
    {
        return Err(format!(
            "final epoch has {} rows, its arena {}, the store {}, acked total {rows}",
            final_epoch.dataset.rccs().len(),
            served.len(),
            stored.rccs().len()
        ));
    }
    let by_id: BTreeMap<u32, &Rcc> = stored.rccs().iter().map(|r| (r.id.0, r)).collect();
    let mut arena = RccArena::from_dataset(&Dataset::new(stored.avails().to_vec(), Vec::new()));
    for row in 0..served.len() as RowId {
        let id = served.rcc_id(row);
        let rcc = by_id
            .get(&id)
            .ok_or_else(|| format!("served RCC {id} is not in the store"))?;
        let avail = stored
            .avail(rcc.avail)
            .ok_or("stored row of an unknown avail")?;
        arena.push(rcc, avail);
    }
    let all_rows: Vec<RowId> = (0..rows as RowId).collect();
    let scratch =
        StatusQueryEngine::<FlatAvlIndex>::from_arena_rows(std::sync::Arc::new(arena), &all_rows);
    match probes
        .iter()
        .find(|q| !same_aggregate(&final_epoch.engine.aggregate(q), &scratch.aggregate(q)))
    {
        None => Ok(()),
        Some(q) => Err(format!(
            "final epoch aggregate of {q:?} differs from a from-scratch engine over the store's rows"
        )),
    }
}

/// What `report` draws the metrics from.
struct Report<'a> {
    /// The measured phase.
    phase: &'a PhaseOut,
    restarts: RestartRun,
    setups: &'a Setups,
    rss: Option<f64>,
    queue_peak: usize,
    primary_root: &'static str,
}

fn report(o: &mut Outcome, opts: &Opts, r: Report) -> Result<(), String> {
    let p = r.phase;
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    o.diagnostics.push(format!(
        "set-ups: process CPU s {} | wall s {}",
        list(&r.setups.cpu_s),
        list(&r.setups.wall_s)
    ));
    o.attempted += p.attempted.iter().sum::<u64>();
    o.failed += p.failed.iter().sum::<u64>();
    o.failures.extend(p.errors.iter().cloned());
    o.diagnostics.push(format!(
        "measured phase: wall {:.3} s, process CPU {:.3} s, host steal {:.2}%, {} completed",
        p.wall_s,
        p.cpu_s,
        100.0 * p.steal,
        p.completed()
    ));
    for kind in OpKind::ALL {
        let s = &p.samples[kind.index()];
        if p.attempted[kind.index()] == 0 {
            continue;
        }
        let fmt =
            |v: Option<f64>| v.map_or_else(|| "unsupported".to_string(), |v| format!("{v:.4} ms"));
        o.diagnostics.push(format!(
            "  {:<7} attempted {} failed {} | n={} p50 {} p90 {} p99 {}",
            kind.name(),
            p.attempted[kind.index()],
            p.failed[kind.index()],
            s.len(),
            fmt(median(s)),
            fmt(percentile(s, 0.9)),
            fmt(percentile(s, 0.99)),
        ));
    }
    if opts.trace {
        return per_layer(o, &r);
    }
    let completed = p.completed();
    if completed == 0 {
        return Err("no request completed".into());
    }
    // Gated metrics: those that stay put when the host steals CPU. A
    // request of several ms loses time to steal in proportion to the steal
    // level, so status and alert are gated on the serving thread's mean
    // on-CPU time; a predict is far shorter than the tick its CPU time is
    // read at, and its wall median barely moves with steal. Ingest and
    // restart costs are dominated by fresh allocations whose page faults
    // follow the host's memory load (their ten-run spreads reached 0.27 to
    // 0.40), so they are printed beside the gated metrics, with the wall
    // latencies, tails and throughput; ingest CPU still weighs about two
    // thirds of `cpu_ms_per_op` on the 4x workloads.
    let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    let predicts = &p.samples[OpKind::Predict.index()];
    let p50 = median(predicts).ok_or("no predict samples")?;
    gated(o, "predict_p50_ms", p50, "ms", predicts.len())?;
    for (kind, name) in [
        (OpKind::Status, "status_cpu_ms"),
        (OpKind::Alert, "alert_cpu_ms"),
    ] {
        let cpu = &p.cpu[kind.index()];
        gated(o, name, mean(cpu).unwrap_or(0.0), "ms", cpu.len())?;
    }
    let per_op = 1e3 * p.cpu_s / completed as f64;
    gated(o, "cpu_ms_per_op", per_op, "ms", completed)?;
    gated(o, "peak_rss_mb", r.rss.ok_or("VmHWM unreadable")?, "MB", 1)?;
    let setup = median(&r.setups.cpu_s).ok_or("no set-up measured")?;
    gated(o, "setup_s", setup, "s", r.setups.cpu_s.len())?;

    // Printed with their `n`; a metric of an op the workload does not send
    // (ingests on `fleet_read_1x`, restarts outside `restart_4x`) is left out.
    let mut shown = |name: &'static str, value: Option<f64>, unit: &'static str, n: usize| {
        if let Some(value) = value {
            o.shown.push(Metric {
                name,
                value,
                unit,
                n,
            });
        }
    };
    let ingest_cpu = &p.cpu[OpKind::Ingest.index()];
    shown("ingest_cpu_ms", mean(ingest_cpu), "ms", ingest_cpu.len());
    let restart_cpu = &r.restarts.cpu;
    shown("restart_cpu_ms", mean(restart_cpu), "ms", restart_cpu.len());
    for kind in OpKind::ALL {
        let s = &p.samples[kind.index()];
        let (p50, p90) = match kind {
            OpKind::Status => (Some("status_p50_ms"), "status_p90_ms"),
            OpKind::Predict => (None, "predict_p90_ms"),
            OpKind::Alert => (Some("alert_p50_ms"), "alert_p90_ms"),
            OpKind::Ingest => (Some("ingest_p50_ms"), "ingest_p90_ms"),
        };
        if let Some(p50) = p50 {
            shown(p50, median(s), "ms", s.len());
        }
        shown(p90, percentile(s, 0.9), "ms", s.len());
    }
    shown(
        "restart_p50_ms",
        median(&r.restarts.wall),
        "ms",
        r.restarts.wall.len(),
    );
    shown(
        "throughput_rps",
        Some(completed as f64 / p.wall_s),
        "1/s",
        completed,
    );
    let fail_share = o.failed as f64 / o.attempted.max(1) as f64;
    shown(
        "fail_share",
        Some(fail_share),
        "ratio",
        o.attempted as usize,
    );
    Ok(())
}

/// Records a gated end-to-end metric; a value that is not a finite
/// positive number means the run could not measure it.
fn gated(
    o: &mut Outcome,
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
) -> Result<(), String> {
    if !(value.is_finite() && value > 0.0) {
        return Err(format!("{name} measured {value} over n={n}"));
    }
    o.metrics.push(Metric {
        name,
        value,
        unit,
        n,
    });
    Ok(())
}

/// The traced run's per-layer metrics (see README.md for the table).
fn per_layer(o: &mut Outcome, r: &Report) -> Result<(), String> {
    let mut parts: Vec<Vec<Span>> = Vec::new();
    let mut counters = r.restarts.counters.clone();
    parts.extend(r.phase.spans.iter().cloned());
    counters.add(&r.phase.counters);
    parts.push(r.restarts.spans.clone());
    let spans = merge(parts);
    let totals = layer_totals(&spans);
    let mean_us = |names: &[&str]| {
        let (calls, total) = names
            .iter()
            .filter_map(|n| totals.get(n))
            .fold((0u64, 0u64), |(c, t), x| (c + x.calls, t + x.total));
        if calls == 0 {
            0.0
        } else {
            total as f64 / calls as f64 / 1e3
        }
    };
    let total_us = |name: &str| totals.get(name).map_or(0.0, |x| x.total as f64 / 1e3);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (roots, unexplained) = unattributed(&spans, r.primary_root, CONTAINERS);
    let online_self = totals.get("core.predict_online").map_or(0.0, |x| {
        if x.calls == 0 {
            0.0
        } else {
            x.self_time as f64 / x.calls as f64 / 1e3
        }
    });
    let main = r.phase;
    // Traced over untraced median per kind, weighted by the kind's share
    // of traced requests: the kinds' latencies differ by 50x, so a median
    // over the mixture would move with the mix, not with the tracing.
    let traced_n: usize = main.traced.iter().map(Vec::len).sum();
    let overhead = OpKind::ALL
        .iter()
        .filter_map(|k| {
            let (t, u) = (&main.traced[k.index()], &main.untraced[k.index()]);
            let ratio = median(t)? / median(u)?;
            Some(ratio * t.len() as f64 / traced_n as f64)
        })
        .sum::<f64>()
        - if traced_n == 0 { 0.0 } else { 1.0 };
    let c = &counters;
    let calls = |name: &str| totals.get(name).map_or(0, |x| x.calls);
    let rooted = calls(r.primary_root);
    // (metric, value, unit, samples behind it)
    let metrics: Vec<(&'static str, f64, &'static str, u64)> = vec![
        (
            "serve.parse_us",
            mean_us(&["serve.parse"]),
            "us",
            calls("serve.parse"),
        ),
        (
            "serve.admit_us",
            mean_us(&["serve.admit"]),
            "us",
            calls("serve.admit"),
        ),
        (
            "serve.execute_us",
            mean_us(&["serve.execute"]),
            "us",
            calls("serve.execute"),
        ),
        (
            "serve.render_us",
            mean_us(&["serve.render"]),
            "us",
            calls("serve.render"),
        ),
        (
            "serve.validate_us",
            mean_us(&["serve.validate"]),
            "us",
            calls("serve.validate"),
        ),
        (
            "serve.rebuild_ms",
            mean_us(&["serve.rebuild"]) / 1e3,
            "ms",
            calls("serve.rebuild"),
        ),
        (
            "serve.first_answer_ms",
            mean_us(&["serve.first_answer"]) / 1e3,
            "ms",
            calls("serve.first_answer"),
        ),
        (
            "runtime.queue_wait_us",
            mean_us(&["runtime.queue_wait"]),
            "us",
            calls("runtime.queue_wait"),
        ),
        ("runtime.queue_peak", r.queue_peak as f64, "count", 1),
        (
            "index.pin_us",
            mean_us(&["index.pin"]),
            "us",
            calls("index.pin"),
        ),
        (
            "index.aggregate_us",
            mean_us(&["index.aggregate"]),
            "us",
            calls("index.aggregate"),
        ),
        (
            "index.rows_per_status",
            ratio(c.status_rows, c.status_queries),
            "count",
            c.status_queries,
        ),
        (
            "index.engine_clone_ms",
            mean_us(&["index.engine_clone"]) / 1e3,
            "ms",
            calls("index.engine_clone"),
        ),
        (
            "index.apply_us_per_delta",
            ratio_f(total_us("index.apply"), c.deltas),
            "us",
            c.deltas,
        ),
        (
            "index.wal_append_us",
            mean_us(&["index.wal_append"]),
            "us",
            calls("index.wal_append"),
        ),
        (
            "index.recover_ms",
            mean_us(&["index.recover"]) / 1e3,
            "ms",
            calls("index.recover"),
        ),
        (
            "index.rebuild_deltas_ms",
            mean_us(&["index.rebuild_deltas"]) / 1e3,
            "ms",
            calls("index.rebuild_deltas"),
        ),
        (
            "index.rebuild_apply_us_per_delta",
            ratio_f(total_us("index.rebuild_apply"), c.rebuild_deltas),
            "us",
            c.rebuild_deltas,
        ),
        (
            "storage.fsync_ms",
            mean_us(&["storage.fsync"]) / 1e3,
            "ms",
            calls("storage.fsync"),
        ),
        (
            "storage.fsyncs_per_ack",
            ratio(c.syncs, c.acks),
            "count",
            c.acks,
        ),
        (
            "storage.wal_bytes_per_row",
            ratio(c.wal_bytes, c.wal_rows),
            "B",
            c.wal_rows,
        ),
        (
            "storage.auto_checkpoints",
            c.checkpoints as f64,
            "count",
            c.acks,
        ),
        (
            "storage.checkpoint_load_ms",
            mean_us(&["storage.checkpoint_load"]) / 1e3,
            "ms",
            calls("storage.checkpoint_load"),
        ),
        (
            "storage.wal_replay_ms",
            mean_us(&["storage.wal_replay"]) / 1e3,
            "ms",
            calls("storage.wal_replay"),
        ),
        (
            "data.merge_ms",
            mean_us(&["data.merge"]) / 1e3,
            "ms",
            calls("data.merge"),
        ),
        (
            "data.rebuild_merge_ms",
            mean_us(&["data.rebuild_merge"]) / 1e3,
            "ms",
            calls("data.rebuild_merge"),
        ),
        (
            "features.row_us",
            mean_us(&["features.row"]),
            "us",
            calls("features.row"),
        ),
        (
            "features.cache_hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "ratio",
            c.cache_hits + c.cache_misses,
        ),
        (
            "features.anchors_per_predict",
            ratio(c.anchors, c.online),
            "count",
            c.online,
        ),
        (
            "ml.predict_row_us",
            mean_us(&["ml.predict_row"]),
            "us",
            calls("ml.predict_row"),
        ),
        (
            "core.predict_online_us",
            mean_us(&["core.predict_online"]),
            "us",
            calls("core.predict_online"),
        ),
        (
            "core.predict_online_self_us",
            online_self,
            "us",
            calls("core.predict_online"),
        ),
        (
            "core.alert_avails",
            ratio(c.alert_avails, c.alerts),
            "count",
            c.alerts,
        ),
        (
            "trace.unattributed_share",
            if roots == 0 {
                0.0
            } else {
                unexplained as f64 / roots as f64
            },
            "ratio",
            rooted,
        ),
        ("trace.overhead_share", overhead, "ratio", traced_n as u64),
    ];
    for (name, value, unit, n) in metrics {
        o.metrics.push(Metric {
            name,
            value,
            unit,
            n: n as usize,
        });
    }
    o.diagnostics.push(format!(
        "trace: {} spans, {traced_n} traced / {} untraced requests in the measured phase",
        spans.len(),
        main.untraced.iter().map(Vec::len).sum::<usize>()
    ));
    o.spans = spans;
    Ok(())
}

/// A copy of tenant 0's current epoch, the start of the replay's chain.
fn current(core: &ServeCore) -> Option<TenantSnapshot> {
    core.tenant_store(0).map(|s| s.pin().snapshot().clone())
}

fn ratio_f(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}
