//! The traced run's decomposition of a served request.
//!
//! `ServeCore::execute` keeps its handler stages private, so after each
//! reply the traced run repeats the handler's work through the crates'
//! public calls, timing each one, and requires the result to equal the
//! served reply to the bit — a decomposition that drifted from the real
//! handler fails the run instead of skewing the layer numbers. The
//! tenant's feature cache, durable store and epoch chain are private
//! instances, so the replay keeps mirrors of them and feeds them every
//! request the server sees, in the same order.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use domd_data::rcc::{Rcc, RccId, RccStatus};
use domd_data::{AvailId, Dataset};
use domd_features::FeatureCache;
use domd_index::{
    DurableIndex, FlatAvlIndex, Pinned, RccDelta, RowId, StatusAggregate, StatusQuery,
};
use domd_perfbench::trace::Tracer;
use domd_serve::{parse_line, Op, Reply, Response, ServeCore, SharedModel, TenantSnapshot};

/// Per-client counts taken at the same boundaries as the spans.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub status_queries: u64,
    pub status_rows: u64,
    pub online: u64,
    pub anchors: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub alerts: u64,
    pub alert_avails: u64,
    pub acks: u64,
    pub deltas: u64,
    pub syncs: u64,
    pub wal_bytes: u64,
    pub wal_rows: u64,
    pub checkpoints: u64,
    pub rebuild_deltas: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.status_queries += o.status_queries;
        self.status_rows += o.status_rows;
        self.online += o.online;
        self.anchors += o.anchors;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.alerts += o.alerts;
        self.alert_avails += o.alert_avails;
        self.acks += o.acks;
        self.deltas += o.deltas;
        self.syncs += o.syncs;
        self.wal_bytes += o.wal_bytes;
        self.wal_rows += o.wal_rows;
        self.checkpoints += o.checkpoints;
        self.rebuild_deltas += o.rebuild_deltas;
    }
}

struct MirrorCache {
    cache: FeatureCache,
    /// The published epoch the entries belong to (the server's
    /// `cache_epoch`).
    bound: u64,
}

/// The mirror of a tenant's durable store: a second store created from
/// the same rows, receiving the same appends.
pub struct MirrorDurable {
    pub index: DurableIndex<FlatAvlIndex>,
    pub next_id: RowId,
    pub wal_path: PathBuf,
}

/// Replays requests against a tenant's published epochs.
pub struct Replayer {
    model: SharedModel,
    cache: Mutex<MirrorCache>,
    durable: Option<Mutex<MirrorDurable>>,
    /// The mirror of the tenant's epoch chain that ingests are replayed
    /// on, with its next RCC id. Replaying on a chain of its own (rather
    /// than on a clone of the served epoch) gives the replayed clone and
    /// apply the same allocation pattern as the server's: each ingest
    /// clones the current epoch, and the previous one is freed.
    chain: Mutex<Option<(TenantSnapshot, u32)>>,
}

/// The two probes each replayed ingest compares (every row, and the rows
/// active mid-timeline): cheap enough to run on every epoch at 4x.
fn epoch_queries() -> [StatusQuery; 2] {
    let all = |status, t_star| StatusQuery {
        rcc_type: None,
        swlin_prefix: None,
        status,
        t_star,
    };
    [all(RccStatus::Created, 100.0), all(RccStatus::Active, 60.0)]
}

/// Bit-level equality of two aggregates.
pub fn same_aggregate(a: &StatusAggregate, b: &StatusAggregate) -> bool {
    a.count == b.count
        && a.sum_amount.to_bits() == b.sum_amount.to_bits()
        && a.sum_duration.to_bits() == b.sum_duration.to_bits()
}

/// Bit-level equality of two estimate timelines.
pub fn same_estimates(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

impl Replayer {
    /// A replayer with an empty mirror cache of `cache_capacity` entries,
    /// for a durable tenant the mirror store, and for ingests a copy of
    /// the tenant's current epoch.
    pub fn new(
        model: SharedModel,
        cache_capacity: usize,
        durable: Option<MirrorDurable>,
        current: Option<TenantSnapshot>,
    ) -> Self {
        Replayer {
            chain: Mutex::new(current.map(|s| {
                let next = s.next_rcc();
                (s, next)
            })),
            model,
            cache: Mutex::new(MirrorCache {
                cache: FeatureCache::new(cache_capacity.max(1)),
                bound: 0,
            }),
            durable: durable.map(Mutex::new),
        }
    }

    /// Replays the request `line` that `core` answered with `resp`.
    /// Spans hang under `exec` (the served `serve.execute` span).
    pub fn replay(
        &self,
        core: &ServeCore,
        tr: &mut Tracer,
        exec: Option<usize>,
        line: &str,
        resp: &Response,
        c: &mut Counters,
    ) -> Result<(), String> {
        let Ok(reply) = &resp.outcome else {
            return Ok(());
        };
        let req = parse_line(line, 0, 0, u64::MAX)
            .map_err(|e| format!("replay parse: {e}"))?
            .ok_or("replay of a blank line")?;
        let store = core.tenant_store(0).ok_or("tenant 0 missing")?;
        match (&req.op, reply) {
            (Op::Status(q), Reply::Status(served)) => {
                let pinned = tr.time("index.pin", exec, || store.pin());
                check_epoch(&pinned, resp)?;
                let agg = tr.time("index.aggregate", exec, || pinned.engine.aggregate(q));
                c.status_queries += 1;
                c.status_rows += agg.count as u64;
                if !same_aggregate(&agg, served) {
                    return Err(format!("status replay differs: {line}"));
                }
            }
            (
                Op::Predict { avail, t_star },
                Reply::Predict {
                    estimates,
                    degraded,
                    ..
                },
            ) => {
                let pinned = tr.time("index.pin", exec, || store.pin());
                check_epoch(&pinned, resp)?;
                let mut mc = self.cache.lock().map_err(|_| "mirror cache poisoned")?;
                if mc.bound != pinned.epoch() {
                    mc.cache.invalidate();
                    mc.bound = pinned.epoch();
                }
                let est = self.predict(
                    tr,
                    exec,
                    &pinned.dataset,
                    *avail,
                    *t_star,
                    Some(&mut mc.cache),
                    c,
                )?;
                let served: Vec<(f64, f64)> = estimates
                    .iter()
                    .map(|e| (e.t_star, e.estimated_delay))
                    .collect();
                if *degraded || !same_estimates(&est, &served) {
                    return Err(format!("predict replay differs: {line}"));
                }
            }
            (
                Op::Alerts {
                    t_star,
                    k,
                    min_delay,
                },
                Reply::Alerts(served),
            ) => {
                let pinned = tr.time("index.pin", exec, || store.pin());
                check_epoch(&pinned, resp)?;
                let alerts = self.alert(tr, exec, &pinned.dataset, *t_star, *k, *min_delay, c)?;
                let same = alerts.len() == served.len()
                    && alerts.iter().zip(served).all(|((a, e), s)| {
                        *a == s.avail && e.to_bits() == s.estimated_delay.to_bits() && !s.degraded
                    });
                if !same {
                    return Err(format!("alert replay differs: {line}"));
                }
            }
            (
                Op::Ingest { rows },
                Reply::Ingested {
                    row,
                    rows: n,
                    epoch,
                },
            ) => {
                let mut chain = self.chain.lock().map_err(|_| "mirror epoch poisoned")?;
                let (cur, next_rcc) = chain
                    .as_mut()
                    .ok_or("ingest replay without a mirror epoch")?;
                tr.time("serve.validate", exec, || {
                    rows.iter().try_for_each(|r| {
                        cur.validate_ingest(r.avail, r.created, r.settled, r.amount)
                    })
                })
                .map_err(|e| format!("ingest replay validate: {e}"))?;
                let mut next = tr.time("index.engine_clone", exec, || cur.clone());
                let mut fresh = Vec::with_capacity(rows.len());
                let mut deltas = Vec::with_capacity(rows.len());
                for (k, r) in rows.iter().enumerate() {
                    let avail = cur
                        .dataset
                        .avail(r.avail)
                        .cloned()
                        .ok_or("ingest avail missing")?;
                    let rcc = Rcc {
                        id: RccId(*next_rcc + k as u32),
                        avail: r.avail,
                        rcc_type: r.rcc_type,
                        swlin: r.swlin,
                        created: r.created,
                        settled: r.settled,
                        amount: r.amount,
                    };
                    fresh.push(rcc.clone());
                    deltas.push(RccDelta::Insert { rcc, avail });
                }
                if let Some(durable) = &self.durable {
                    let mut d = durable.lock().map_err(|_| "mirror store poisoned")?;
                    let bytes_before = file_len(&d.wal_path);
                    let checkpoint_before = d.index.checkpoint_epoch();
                    for (r, rcc) in rows.iter().zip(&fresh) {
                        let logical = cur
                            .project_next(d.next_id, r.avail, r.created, r.settled)
                            .ok_or("ingest avail missing")?;
                        let logged = tr
                            .time("index.wal_append", exec, || {
                                d.index.insert_full(&logical, rcc)
                            })
                            .map_err(|e| format!("mirror append: {e}"))?;
                        if !logged {
                            return Err("mirror store refused a fresh row id".into());
                        }
                        d.next_id += 1;
                    }
                    tr.time("storage.fsync", exec, || d.index.sync())
                        .map_err(|e| format!("mirror sync: {e}"))?;
                    c.syncs += 1;
                    if d.index.checkpoint_epoch() != checkpoint_before {
                        c.checkpoints += 1;
                    } else {
                        c.wal_bytes += file_len(&d.wal_path).saturating_sub(bytes_before);
                        c.wal_rows += rows.len() as u64;
                    }
                }
                let applied = tr.time("index.apply", exec, || next.engine.apply_deltas(&deltas));
                c.deltas += deltas.len() as u64;
                let merged = tr.time("data.merge", exec, || next.dataset.with_rccs_merged(fresh));
                next.dataset = Arc::new(merged);
                let avails: Vec<AvailId> = rows.iter().map(|r| r.avail).collect();
                {
                    let mut mc = self.cache.lock().map_err(|_| "mirror cache poisoned")?;
                    tr.time("features.invalidate", exec, || {
                        let prev = std::mem::replace(&mut mc.bound, *epoch);
                        if prev == *epoch {
                        } else if prev + 1 == *epoch {
                            mc.cache.invalidate_avails(&avails);
                        } else {
                            mc.cache.invalidate();
                        }
                    });
                }
                c.acks += 1;
                *next_rcc += rows.len() as u32;
                let post = store.pin();
                let same = post.epoch() == *epoch
                    && applied.first() == Some(row)
                    && applied.len() == *n as usize
                    && post.next_rcc() == *next_rcc
                    && post.dataset.rccs().len() == next.dataset.rccs().len()
                    && post.engine.arena().len() == next.engine.arena().len()
                    && epoch_queries().iter().all(|q| {
                        same_aggregate(&post.engine.aggregate(q), &next.engine.aggregate(q))
                    });
                // The mirror's old epoch is dropped here, as the server
                // frees its previous epoch once published.
                *cur = next;
                if !same {
                    return Err(format!("ingest replay differs from epoch {epoch}: {line}"));
                }
            }
            _ => return Err(format!("reply kind does not match the request: {line}")),
        }
        Ok(())
    }

    /// `predict_online_cached` / `_checked` rebuilt from public parts:
    /// per reached grid step a feature row (`features.row`, or
    /// `features.cache_hit` when the mirror cache answered) and a model
    /// descent (`ml.predict_row`); the span's self time is row assembly
    /// plus fusion. Only the healthy path is mirrored: a repaired answer
    /// is reported as a mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn predict(
        &self,
        tr: &mut Tracer,
        parent: Option<usize>,
        ds: &Dataset,
        avail: AvailId,
        t_star: f64,
        mut cache: Option<&mut FeatureCache>,
        c: &mut Counters,
    ) -> Result<Vec<(f64, f64)>, String> {
        let span = tr.open("core.predict_online", parent);
        c.online += 1;
        let pipeline = &self.model.pipeline;
        let a = ds
            .avail(avail)
            .ok_or_else(|| format!("unknown avail {avail}"))?;
        let statics = domd_features::static_row(a);
        let mut raw = Vec::new();
        let mut reached = Vec::new();
        for step in &pipeline.steps {
            if step.t_star > t_star && !raw.is_empty() {
                break;
            }
            let f = tr.open("features.row", span);
            let feats: Arc<[f64]> = match cache.as_deref_mut() {
                Some(cache) => {
                    let hits = cache.stats().hits;
                    let v = cache.features_at(&self.model.features, ds, avail, step.t_star);
                    if cache.stats().hits > hits {
                        tr.rename(f, "features.cache_hit");
                        c.cache_hits += 1;
                    } else {
                        c.cache_misses += 1;
                    }
                    v
                }
                None => self
                    .model
                    .features
                    .features_for_avail_at(ds, avail, step.t_star)
                    .into(),
            };
            tr.close(f);
            c.anchors += 1;
            let mut row = Vec::with_capacity(statics.len() + step.selected.len());
            row.extend_from_slice(&statics);
            row.extend(step.selected.iter().map(|&j| feats[j]));
            raw.push(tr.time("ml.predict_row", span, || step.model.predict_row(&row)));
            reached.push(step.t_star);
        }
        if raw.iter().any(|v: &f64| !v.is_finite()) {
            return Err(format!("non-finite step prediction for avail {avail}"));
        }
        let est = (0..raw.len())
            .map(|s| (reached[s], pipeline.config.fusion.fuse(&raw[..=s])))
            .collect();
        tr.close(span);
        Ok(est)
    }

    /// The alert sweep rebuilt from public parts: an uncached predict per
    /// ongoing avail, then the risk ranking (`core.alert` self time).
    #[allow(clippy::too_many_arguments)]
    pub fn alert(
        &self,
        tr: &mut Tracer,
        parent: Option<usize>,
        ds: &Dataset,
        t_star: f64,
        k: usize,
        min_delay: f64,
        c: &mut Counters,
    ) -> Result<Vec<(AvailId, f64)>, String> {
        let span = tr.open("core.alert", parent);
        let ongoing: Vec<AvailId> = ds
            .avails()
            .iter()
            .filter(|a| a.actual_end.is_none())
            .map(|a| a.id)
            .collect();
        let mut alerts = Vec::new();
        for &avail in &ongoing {
            let est = self.predict(tr, span, ds, avail, t_star, None, c)?;
            if let Some(&(_, e)) = est.last() {
                if e.is_finite() && e >= min_delay {
                    alerts.push((avail, e));
                }
            }
        }
        alerts.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
        alerts.truncate(k);
        tr.close(span);
        c.alerts += 1;
        c.alert_avails += ongoing.len() as u64;
        Ok(alerts)
    }
}

fn check_epoch(pinned: &Pinned<TenantSnapshot>, resp: &Response) -> Result<(), String> {
    if resp.epoch == Some(pinned.epoch()) {
        Ok(())
    } else {
        Err(format!(
            "replay pinned epoch {} but the reply came from {:?}",
            pinned.epoch(),
            resp.epoch
        ))
    }
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}
