//! The serve loop: admission control, deadline enforcement, snapshot
//! pinning, per-tenant circuit breaking, and typed load shedding.
//!
//! Request lifecycle:
//!
//! ```text
//!  submit ──deadline@admission──▶ BoundedQueue ──pop──▶ execute
//!    │            │                    │                  │
//!    │      DeadlineExceeded      QueueRejected      deadline@dequeue
//!    │         (typed)          → Overloaded (typed)      │
//!    └──────────────────────────────────────────────── pin epoch
//!                                                         │
//!                                   per-op stages (deadline between each,
//!                                   cancellable inside the alert sweep)
//! ```
//!
//! Invariants the chaos suite holds this module to:
//!
//! * **Never panic** — every failure surfaces as a typed
//!   [`DomdError`] inside a [`Response`].
//! * **Never a torn read** — a handler touches exactly one
//!   [`Pinned`](domd_index::Pinned) snapshot for its whole lifetime.
//! * **Never silent queuing** — an admission either enqueues within the
//!   capacity bound or answers `Overloaded` immediately; queue depth is
//!   provably bounded by [`BoundedQueue::peak_depth`].
//! * **Never block reads on ingest** — reads pin with one pointer clone;
//!   epoch construction happens outside that lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use domd_core::{DomdError, DomdQueryEngine, TrainedPipeline};
use domd_data::rcc::{Rcc, RccId};
use domd_features::{FeatureCache, FeatureEngine};
use domd_index::{DurableIndex, EpochStore, FlatAvlIndex, Pinned, RecoveryReport, RowId};
use domd_runtime::{BoundedQueue, Cancelled};

use crate::breaker::{BreakerConfig, CircuitBreaker, Route};
use crate::clock::{Clock, Ticks};
use crate::request::{Alert, IngestRow, Op, Reply, Request, Response};
use crate::state::TenantSnapshot;

/// The immutable model artifacts every tenant serves with.
#[derive(Clone)]
pub struct SharedModel {
    /// The trained pipeline (one artifact, shared by reference).
    pub pipeline: Arc<TrainedPipeline>,
    /// The feature engine configuration.
    pub features: FeatureEngine,
}

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent handler workers in [`ServeCore::run_batch`] /
    /// [`ServeCore::run_scheduled`].
    pub workers: usize,
    /// Hard bound of the admission queue.
    pub queue_capacity: usize,
    /// Deadline budget stamped by [`ServeCore::stamp`] (ticks).
    pub default_budget: Ticks,
    /// Per-tenant circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Avails examined between deadline polls inside the alert sweep.
    pub alert_chunk: usize,
    /// Per-tenant feature-cache capacity (0 disables).
    pub cache_capacity: usize,
    /// Fsync the durable WAL inside every ingest, before the row is
    /// published or acked. This is the durability stance for deployments
    /// that can be killed at any instant (`kill -9`, power loss): an ack
    /// then *guarantees* the row survives restart. Off, acks are durable
    /// only at sync points (clean shutdown, checkpoints, explicit
    /// [`ServeCore::sync_durable`]) — the group-commit batching the WAL
    /// bench measures. The CLI turns this on whenever `--store` is given.
    pub sync_each_ingest: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            default_budget: 200,
            breaker: BreakerConfig::default(),
            alert_chunk: 8,
            cache_capacity: 256,
            sync_each_ingest: false,
        }
    }
}

/// Handler stage boundaries; the chaos harness hooks these to inject
/// slow handlers (advance the manual clock) and mid-request epoch swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The request passed admission and entered the queue.
    Admitted,
    /// The handler pinned its epoch snapshot.
    Pinned,
    /// About to start the expensive sweep of an alert query.
    PreSweep,
    /// The handler finished (response built, metrics updated).
    Done,
}

/// Chaos/observability hook called at each [`Stage`] boundary.
pub type StageHook = dyn Fn(Stage, &Request) + Send + Sync;

/// Cumulative serving counters (all monotone; readable while serving).
#[derive(Debug, Default)]
pub struct ServeMetrics {
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_deadline: AtomicU64,
    completed_ok: AtomicU64,
    failed: AtomicU64,
    degraded_served: AtomicU64,
    epochs_published: AtomicU64,
    rows_ingested: AtomicU64,
    cache_surgical: AtomicU64,
    cache_full: AtomicU64,
}

/// A point-in-time copy of [`ServeMetrics`] plus breaker totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsReport {
    /// Requests offered to [`ServeCore::submit`].
    pub submitted: u64,
    /// Requests that entered the queue.
    pub admitted: u64,
    /// Requests shed with `Overloaded` at admission.
    pub shed_queue_full: u64,
    /// Requests refused or abandoned with `DeadlineExceeded`
    /// (admission, dequeue, or mid-sweep).
    pub shed_deadline: u64,
    /// Requests answered with a reply.
    pub completed_ok: u64,
    /// Requests answered with a non-shedding error.
    pub failed: u64,
    /// Replies served through a degraded path.
    pub degraded_served: u64,
    /// Epochs published by ingest.
    pub epochs_published: u64,
    /// RCC rows applied by ingest batches (≥ `epochs_published`; the
    /// ratio is the measured batching factor).
    pub rows_ingested: u64,
    /// Feature-cache invalidations classified surgically (only the
    /// batch's avails dropped; everything else stayed warm).
    pub cache_invalidations_surgical: u64,
    /// Feature-cache invalidations that fell back to wholesale dropping
    /// (unclassifiable delta or contended cache — never silently stale).
    pub cache_invalidations_full: u64,
    /// Circuit-breaker trips across tenants.
    pub breaker_trips: u64,
    /// Probe-driven recoveries across tenants.
    pub breaker_recoveries: u64,
}

/// One tenant's durable system of record plus its id allocator. The two
/// live under one lock: an id is allocated and logged atomically, so two
/// concurrent ingests can never project the same durable row id.
struct TenantDurable {
    index: DurableIndex<FlatAvlIndex>,
    /// Next fresh durable row id — seeded past the store's own max id at
    /// attach time, so ids stay unique across restarts (where the serving
    /// arena resets to the extracts while prior ingests remain live in
    /// the store) and are never shared between tenants (each tenant owns
    /// its own store).
    next_id: RowId,
}

struct Tenant {
    store: Arc<EpochStore<TenantSnapshot>>,
    breaker: Mutex<CircuitBreaker>,
    /// Shared feature cache; readers `try_lock` and fall back to the
    /// uncached path on contention, so the cache can never block serving.
    cache: Mutex<FeatureCache>,
    /// Which published epoch the cache's entries were computed against.
    cache_epoch: AtomicU64,
    /// System of record for this tenant's index maintenance; ingests
    /// append here (WAL-before-apply) before publishing the epoch that
    /// contains them.
    durable: Option<Mutex<TenantDurable>>,
}

/// The multi-tenant serving core. One instance owns the admission queue,
/// every tenant's epoch store, and the shared model artifacts.
pub struct ServeCore {
    config: ServeConfig,
    clock: Arc<dyn Clock>,
    model: SharedModel,
    tenants: Vec<Tenant>,
    queue: BoundedQueue<Request>,
    metrics: ServeMetrics,
    hook: Option<Arc<StageHook>>,
}

impl ServeCore {
    /// Builds a core serving `snapshots` (one per tenant) with `model`.
    pub fn new(
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        model: SharedModel,
        snapshots: Vec<TenantSnapshot>,
    ) -> Self {
        let cache_capacity = config.cache_capacity.max(1);
        let tenants = snapshots
            .into_iter()
            .map(|s| Tenant {
                store: Arc::new(EpochStore::new(s)),
                breaker: Mutex::new(CircuitBreaker::new(config.breaker)),
                cache: Mutex::new(FeatureCache::new(cache_capacity)),
                cache_epoch: AtomicU64::new(0),
                durable: None,
            })
            .collect();
        let queue = BoundedQueue::with_capacity(config.queue_capacity);
        ServeCore {
            config,
            clock,
            model,
            tenants,
            queue,
            metrics: ServeMetrics::default(),
            hook: None,
        }
    }

    /// Attaches tenant `t`'s durable index store — the system of record
    /// its ingests must reach before they are published (see
    /// [`DurableIndex`] for the WAL discipline). Each tenant owns its own
    /// store: durable row ids are allocated per store, monotonically past
    /// the store's current max, so they never collide across tenants or
    /// across restarts. Errors when `t` is not a serving tenant.
    pub fn with_durable(
        mut self,
        t: usize,
        durable: DurableIndex<FlatAvlIndex>,
    ) -> Result<Self, DomdError> {
        let tenants = self.tenants.len();
        let Some(tenant) = self.tenants.get_mut(t) else {
            return Err(DomdError::config(format!(
                "cannot attach durable store to unknown tenant {t} (serving {tenants})"
            )));
        };
        let next_id = match durable.max_id() {
            None => 0,
            Some(max) => max.checked_add(1).ok_or_else(|| {
                DomdError::config(format!(
                    "durable store for tenant {t} has exhausted the row id space (max id {max})"
                ))
            })?,
        };
        tenant.durable = Some(Mutex::new(TenantDurable { index: durable, next_id }));
        Ok(self)
    }

    /// Live rows in tenant `t`'s durable store (`None` when the tenant
    /// does not exist or serves without one). Lets callers audit that
    /// every acked ingest actually reached the system of record.
    pub fn durable_rows(&self, t: usize) -> Option<usize> {
        let durable = self.tenants.get(t)?.durable.as_ref()?;
        // domd-lint: allow(no-panic) — durable sections are short; a poisoned lock means a worker already panicked
        Some(durable.lock().expect("durable store lock").index.len())
    }

    /// Forces every tenant's durable WAL to stable storage (fsync). The
    /// session drivers call this at clean shutdown so acknowledged
    /// ingests survive not just a process exit (the writer's drop flush)
    /// but a machine crash immediately after.
    pub fn sync_durable(&self) -> Result<(), DomdError> {
        for tenant in &self.tenants {
            if let Some(durable) = &tenant.durable {
                // domd-lint: allow(no-panic) — durable sections are short; a poisoned lock means a worker already panicked
                durable.lock().expect("durable store lock").index.sync()?;
            }
        }
        Ok(())
    }

    /// Installs a [`StageHook`] (chaos injection / tracing).
    pub fn with_hook(mut self, hook: Arc<StageHook>) -> Self {
        self.hook = Some(hook);
        self
    }

    /// The clock this core measures deadlines with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The epoch store of tenant `t` (chaos tests publish through this
    /// to race swaps against in-flight requests).
    pub fn tenant_store(&self, t: usize) -> Option<Arc<EpochStore<TenantSnapshot>>> {
        self.tenants.get(t).map(|tn| Arc::clone(&tn.store))
    }

    /// The admission queue (exposes depth/peak accounting to tests).
    pub fn queue(&self) -> &BoundedQueue<Request> {
        &self.queue
    }

    /// Counters so far, including per-tenant breaker totals.
    pub fn metrics(&self) -> MetricsReport {
        let m = &self.metrics;
        let (mut trips, mut recoveries) = (0, 0);
        for t in &self.tenants {
            let b = self.lock_breaker(t);
            trips += b.trips();
            recoveries += b.recoveries();
        }
        MetricsReport {
            submitted: m.submitted.load(Ordering::Relaxed),
            admitted: m.admitted.load(Ordering::Relaxed),
            shed_queue_full: m.shed_queue_full.load(Ordering::Relaxed),
            shed_deadline: m.shed_deadline.load(Ordering::Relaxed),
            completed_ok: m.completed_ok.load(Ordering::Relaxed),
            failed: m.failed.load(Ordering::Relaxed),
            degraded_served: m.degraded_served.load(Ordering::Relaxed),
            epochs_published: m.epochs_published.load(Ordering::Relaxed),
            rows_ingested: m.rows_ingested.load(Ordering::Relaxed),
            cache_invalidations_surgical: m.cache_surgical.load(Ordering::Relaxed),
            cache_invalidations_full: m.cache_full.load(Ordering::Relaxed),
            breaker_trips: trips,
            breaker_recoveries: recoveries,
        }
    }

    /// Stamps a request with the current tick and the default budget.
    pub fn stamp(&self, seq: u64, tenant: usize, op: Op) -> Request {
        Request {
            seq,
            tenant,
            submitted: self.clock.now(),
            budget: self.config.default_budget,
            op,
        }
    }

    fn fire(&self, stage: Stage, req: &Request) {
        if let Some(hook) = &self.hook {
            hook(stage, req);
        }
    }

    /// Fires the installed [`StageHook`] for `req` at `stage`. Session
    /// drivers outside this module (the line protocol) route admissions
    /// through this so chaos hooks observe them too.
    pub fn fire_stage(&self, stage: Stage, req: &Request) {
        self.fire(stage, req);
    }

    fn lock_breaker<'a>(&self, tenant: &'a Tenant) -> std::sync::MutexGuard<'a, CircuitBreaker> {
        // domd-lint: allow(no-panic) — breaker sections are short and panic-free; a poisoned lock means a worker already panicked
        tenant.breaker.lock().expect("breaker lock")
    }

    fn refuse(&self, req: &Request, err: DomdError) -> Response {
        if matches!(err, DomdError::DeadlineExceeded { .. }) {
            self.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
        } else if matches!(err, DomdError::Overloaded { .. }) {
            self.metrics.shed_queue_full.fetch_add(1, Ordering::Relaxed);
        } else {
            self.metrics.failed.fetch_add(1, Ordering::Relaxed);
        }
        Response {
            seq: req.seq,
            tenant: req.tenant,
            outcome: Err(err),
            epoch: None,
            queued: 0,
            service: 0,
        }
    }

    fn deadline_check(&self, req: &Request, context: &str) -> Result<(), DomdError> {
        let elapsed = self.clock.now().saturating_sub(req.submitted);
        if elapsed >= req.budget {
            Err(DomdError::DeadlineExceeded {
                context: context.to_string(),
                elapsed,
                budget: req.budget,
            })
        } else {
            Ok(())
        }
    }

    /// Admission: deadline gate, then a bounded enqueue. Returns
    /// `Some(response)` when the request was refused on the spot
    /// (typed `DeadlineExceeded` / `Overloaded` / `Config`), `None` when
    /// it was admitted and a worker will answer it.
    pub fn submit(&self, req: Request) -> Option<Response> {
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        if req.tenant >= self.tenants.len() {
            let err = DomdError::config(format!(
                "unknown tenant {} (serving {})",
                req.tenant,
                self.tenants.len()
            ));
            return Some(self.refuse(&req, err));
        }
        if let Err(e) = self.deadline_check(&req, "admission") {
            return Some(self.refuse(&req, e));
        }
        match self.queue.try_push(req) {
            Ok(_) => {
                self.metrics.admitted.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(rej) => {
                let err = DomdError::Overloaded {
                    context: "admission queue".into(),
                    depth: rej.depth,
                    capacity: rej.capacity,
                };
                let req = rej.item;
                Some(self.refuse(&req, err))
            }
        }
    }

    /// Runs one request end-to-end on the calling thread, skipping the
    /// queue (the CLI's interactive path; also the deterministic entry
    /// point for single-request chaos scenarios). Admission deadline
    /// semantics still apply.
    pub fn serve_one(&self, req: Request) -> Response {
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        if req.tenant >= self.tenants.len() {
            let err = DomdError::config(format!(
                "unknown tenant {} (serving {})",
                req.tenant,
                self.tenants.len()
            ));
            return self.refuse(&req, err);
        }
        if let Err(e) = self.deadline_check(&req, "admission") {
            return self.refuse(&req, e);
        }
        self.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        self.fire(Stage::Admitted, &req);
        self.execute(req)
    }

    /// Handles one admitted request: dequeue deadline gate, epoch pin,
    /// per-op stages. Called by pool workers; never panics on bad input.
    pub fn execute(&self, req: Request) -> Response {
        let dequeued = self.clock.now();
        let queued = dequeued.saturating_sub(req.submitted);
        // A request that aged out while queued is abandoned before any
        // work — shedding late work is cheaper than finishing it.
        if let Err(e) = self.deadline_check(&req, "dequeue") {
            let mut resp = self.refuse(&req, e);
            resp.queued = queued;
            return resp;
        }
        let Some(tenant) = self.tenants.get(req.tenant) else {
            return self.refuse(
                &req,
                DomdError::config(format!("unknown tenant {}", req.tenant)),
            );
        };

        let pinned = tenant.store.pin();
        self.fire(Stage::Pinned, &req);
        let epoch = pinned.epoch();

        let outcome = match &req.op {
            Op::Status(query) => self.handle_status(&req, &pinned, query),
            Op::Predict { avail, t_star } => {
                self.handle_predict(&req, tenant, &pinned, *avail, *t_star)
            }
            Op::Alerts { t_star, k, min_delay } => {
                self.handle_alerts(&req, tenant, &pinned, *t_star, *k, *min_delay)
            }
            Op::Ingest { .. } => self.handle_ingest(&req, tenant, &pinned),
        };

        let service = self.clock.now().saturating_sub(dequeued);
        match &outcome {
            Ok(reply) => {
                self.metrics.completed_ok.fetch_add(1, Ordering::Relaxed);
                let degraded = match reply {
                    Reply::Predict { degraded, .. } => *degraded,
                    Reply::Alerts(alerts) => alerts.iter().any(|a| a.degraded),
                    _ => false,
                };
                if degraded {
                    self.metrics.degraded_served.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.is_retryable() => {
                self.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.fire(Stage::Done, &req);
        Response { seq: req.seq, tenant: req.tenant, outcome, epoch: Some(epoch), queued, service }
    }

    fn handle_status(
        &self,
        req: &Request,
        pinned: &Pinned<TenantSnapshot>,
        query: &domd_index::StatusQuery,
    ) -> Result<Reply, DomdError> {
        self.deadline_check(req, "status aggregate")?;
        // ±inf name the ends of the timeline and are answered; a NaN `t*`
        // names no position, so it is refused like predict's and alert's.
        if query.t_star.is_nan() {
            return Err(DomdError::NonFinite {
                feature: "t_star".into(),
                step: "serve status".into(),
            });
        }
        Ok(Reply::Status(pinned.engine.aggregate(query)))
    }

    fn handle_predict(
        &self,
        req: &Request,
        tenant: &Tenant,
        pinned: &Pinned<TenantSnapshot>,
        avail: domd_data::AvailId,
        t_star: f64,
    ) -> Result<Reply, DomdError> {
        self.deadline_check(req, "predict")?;
        if !t_star.is_finite() {
            return Err(DomdError::NonFinite {
                feature: "t_star".into(),
                step: "serve predict".into(),
            });
        }
        // Client input errors are settled before the breaker is consulted:
        // an unknown avail says nothing about the health of this tenant's
        // pipeline, so it must neither count as a failure (a misconfigured
        // client would trip everyone into degraded serving) nor consume a
        // half-open probe.
        if pinned.dataset.avail(avail).is_none() {
            return Err(DomdError::config(format!(
                "unknown avail {avail} for tenant {}",
                req.tenant
            )));
        }
        let route = self.lock_breaker(tenant).admit();
        let answer = match route {
            Route::Degraded { .. } => {
                let engine = DomdQueryEngine::with_engine(
                    &pinned.dataset,
                    &self.model.pipeline,
                    self.model.features.clone(),
                );
                engine.query_logical_degraded(
                    avail,
                    t_star,
                    "circuit open: serving via checked degraded path",
                )
            }
            Route::Normal | Route::Probe => self.predict_normal(tenant, pinned, avail, t_star),
        };
        let (failed, reply) = match answer {
            // Unreachable after the pre-admit avail check (both paths read
            // the same pinned snapshot), but kept defensive: a client-shaped
            // config refusal, never a breaker failure.
            None => (
                false,
                Err(DomdError::config(format!("unknown avail {avail} for tenant {}", req.tenant))),
            ),
            Some(ans) => {
                // A repair-free answer is a healthy outcome; repairs (or an
                // empty timeline) count against the tenant's breaker.
                let unhealthy = match route {
                    Route::Degraded { .. } => false,
                    _ => ans.degraded || ans.estimates.is_empty(),
                };
                (
                    unhealthy,
                    Ok(Reply::Predict {
                        avail,
                        estimates: ans.estimates,
                        degraded: ans.degraded,
                        warnings: ans.warnings,
                    }),
                )
            }
        };
        self.lock_breaker(tenant).record(route, failed);
        reply
    }

    /// The healthy predict path: feature-cache accelerated when the
    /// tenant cache is free, bit-identical uncached serving when it is
    /// contended — a reader never waits on another reader's cache lock.
    fn predict_normal(
        &self,
        tenant: &Tenant,
        pinned: &Pinned<TenantSnapshot>,
        avail: domd_data::AvailId,
        t_star: f64,
    ) -> Option<domd_core::DomdAnswer> {
        pinned.dataset.avail(avail)?;
        let online = match tenant.cache.try_lock() {
            Ok(mut cache) => {
                // Entries must come from this pinned epoch; on any epoch
                // mismatch, invalidate before reuse.
                if tenant.cache_epoch.swap(pinned.epoch(), Ordering::AcqRel) != pinned.epoch() {
                    cache.invalidate();
                }
                self.model.pipeline.predict_online_cached(
                    &pinned.dataset,
                    &self.model.features,
                    &mut cache,
                    avail,
                    t_star,
                )
            }
            Err(_) => self.model.pipeline.predict_online_checked(
                &pinned.dataset,
                &self.model.features,
                avail,
                t_star,
            ),
        };
        let estimates = online
            .estimates
            .into_iter()
            .map(|(t, e)| domd_core::DomdEstimate { t_star: t, estimated_delay: e })
            .collect::<Vec<_>>();
        Some(domd_core::DomdAnswer {
            avail,
            t_star_now: t_star,
            estimates,
            degraded: !online.warnings.is_empty(),
            warnings: online.warnings,
        })
    }

    fn handle_alerts(
        &self,
        req: &Request,
        tenant: &Tenant,
        pinned: &Pinned<TenantSnapshot>,
        t_star: f64,
        k: usize,
        min_delay: f64,
    ) -> Result<Reply, DomdError> {
        self.deadline_check(req, "alert sweep")?;
        if !t_star.is_finite() {
            return Err(DomdError::NonFinite {
                feature: "t_star".into(),
                step: "serve alerts".into(),
            });
        }
        // A NaN cut admits every avail (`x < NaN` is false), so it names no
        // threshold; ±inf keep their meaning (everything, nothing).
        if min_delay.is_nan() {
            return Err(DomdError::NonFinite {
                feature: "min_delay".into(),
                step: "serve alerts".into(),
            });
        }
        let route = self.lock_breaker(tenant).admit();
        self.fire(Stage::PreSweep, req);
        let ongoing: Vec<domd_data::AvailId> = pinned
            .dataset
            .avails()
            .iter()
            .filter(|a| a.actual_end.is_none())
            .map(|a| a.id)
            .collect();
        // The expensive feature stage: deadline re-checked cooperatively
        // every chunk, so an exhausted budget abandons the sweep instead
        // of finishing it late. Chunk counting keeps clock reads off the
        // per-avail fast path. Saturating: the budget is client-supplied,
        // and `submitted + u64::MAX` must mean "no deadline", not a panic
        // in debug or an instant wrap-around deadline in release.
        let deadline = req.submitted.saturating_add(req.budget);
        let counter = AtomicU64::new(0);
        let chunk = self.config.alert_chunk.max(1) as u64;
        let cancel = || {
            counter.fetch_add(1, Ordering::Relaxed).is_multiple_of(chunk)
                && self.clock.now() >= deadline
        };
        let swept = self.model.pipeline.predict_online_batch(
            &pinned.dataset,
            &self.model.features,
            &ongoing,
            t_star,
            domd_runtime::threads(),
            cancel,
        );
        let per_avail = match swept {
            Ok(v) => v,
            Err(Cancelled { .. }) => {
                let elapsed = self.clock.now().saturating_sub(req.submitted);
                let err = DomdError::DeadlineExceeded {
                    context: "alert sweep".into(),
                    elapsed,
                    budget: req.budget,
                };
                // An abandoned sweep is a timeout against this tenant's
                // model path — the breaker should see it.
                self.lock_breaker(tenant).record(route, true);
                return Err(err);
            }
        };
        let degraded_route = matches!(route, Route::Degraded { .. });
        let mut repairs = false;
        let mut alerts: Vec<Alert> = ongoing
            .into_iter()
            .zip(per_avail)
            .filter_map(|(avail, online)| {
                let repaired = !online.warnings.is_empty();
                repairs |= repaired;
                let estimated_delay = online.estimates.last()?.1;
                if !estimated_delay.is_finite() || estimated_delay < min_delay {
                    return None;
                }
                Some(Alert { avail, estimated_delay, degraded: repaired || degraded_route })
            })
            .collect();
        // Risk ranking with a total, deterministic order: estimated delay
        // descending, avail id ascending on ties.
        alerts.sort_by(|a, b| {
            b.estimated_delay
                .total_cmp(&a.estimated_delay)
                .then_with(|| a.avail.0.cmp(&b.avail.0))
        });
        alerts.truncate(k);
        self.lock_breaker(tenant)
            .record(route, if degraded_route { false } else { repairs });
        Ok(Reply::Alerts(alerts))
    }

    fn handle_ingest(
        &self,
        req: &Request,
        tenant: &Tenant,
        pinned: &Pinned<TenantSnapshot>,
    ) -> Result<Reply, DomdError> {
        let Op::Ingest { rows } = &req.op else {
            return Err(DomdError::config("handle_ingest on a non-ingest op"));
        };
        if rows.is_empty() {
            return Err(DomdError::config("ingest batch is empty"));
        }
        self.deadline_check(req, "ingest validate")?;
        // Validate the whole batch on the pinned epoch first: a bad
        // request must not cost a copy-on-write epoch build (nor bump the
        // epoch counter), and a batch is all-or-nothing.
        for r in rows {
            pinned.validate_ingest(r.avail, r.created, r.settled, r.amount)?;
        }
        self.deadline_check(req, "ingest apply")?;
        let (epoch, applied) = tenant.store.update(|snap| -> Result<Vec<RowId>, DomdError> {
            // The batch's RCC ids must fit in u32: refused before the WAL
            // sees any row of it.
            let first_rcc = snap.rcc_ids_for(rows.len())?;
            // WAL-before-apply: every row's logical projection reaches the
            // durable store before any published snapshot contains it.
            if let Some(durable) = &tenant.durable {
                // domd-lint: allow(no-panic) — a poisoned durable lock means a worker already panicked; propagating is the only sound exit
                let mut d = durable.lock().expect("durable store lock");
                for (k, r) in rows.iter().enumerate() {
                    let projected = snap
                        .project_next(d.next_id, r.avail, r.created, r.settled)
                        .ok_or_else(|| {
                            DomdError::config(format!(
                                "ingest references unknown avail {}",
                                r.avail
                            ))
                        })?;
                    // Bound-check the allocator before touching the WAL, so
                    // a row is never logged and then failed.
                    let bumped = d.next_id.checked_add(1).ok_or_else(|| {
                        DomdError::config("durable row id space exhausted".to_string())
                    })?;
                    // The full physical row the snapshot's ingest_batch will
                    // materialize for this position: `first_rcc + k` is
                    // exactly the RccId the k-th batch row receives, so the
                    // v2 WAL record carries the same bytes the published
                    // dataset will hold — recovery can rebuild the snapshot
                    // from the store alone, bit-identically.
                    let rcc = Rcc {
                        id: RccId(first_rcc + k as u32),
                        avail: r.avail,
                        rcc_type: r.rcc_type,
                        swlin: r.swlin,
                        created: r.created,
                        settled: r.settled,
                        amount: r.amount,
                    };
                    // A no-op insert means the store already holds this id:
                    // the allocator and the store disagree, and acking the
                    // request would break WAL-before-apply (the row would
                    // be served but never logged). Refuse loudly instead —
                    // rows already logged for this batch stay in the WAL
                    // unserved (WAL ⊇ served is preserved; nothing is
                    // acked).
                    if !d.index.insert_full(&projected, &rcc)? {
                        return Err(DomdError::Corrupt {
                            context: d.index.store_dir().display().to_string(),
                            offset: None,
                            message: format!(
                                "durable row id {} is already live; refusing to ack an ingest \
                                 whose WAL append would be a no-op",
                                projected.id
                            ),
                        });
                    }
                    d.next_id = bumped;
                }
                // Fsync-on-ack: with the knob on, the WAL bytes for this
                // batch are on disk before the epoch publishes and the ack
                // is written — a `kill -9` one instruction after the ack
                // cannot lose the rows.
                if self.config.sync_each_ingest {
                    d.index.sync()?;
                }
            }
            snap.ingest_batch(rows)
        });
        // On failure the epoch advanced over an unchanged clone (the
        // closure bailed before mutating); readers see identical state.
        let applied = applied?;
        self.metrics.epochs_published.fetch_add(1, Ordering::Relaxed);
        self.metrics.rows_ingested.fetch_add(applied.len() as u64, Ordering::Relaxed);
        self.maintain_feature_cache(tenant, epoch, rows);
        // domd-lint: allow(no-panic) — the batch was refused above when empty
        let row = *applied.first().expect("non-empty batch applies rows");
        Ok(Reply::Ingested { row, rows: applied.len() as u32, epoch })
    }

    /// Delta-aware feature-cache maintenance after publishing `epoch`:
    /// an RCC delta changes only its own avail's feature rows, so when
    /// the cache's entries were computed against the immediately
    /// preceding epoch, only the batch's avails are dropped and every
    /// other entry stays warm into the new epoch. Anything else — the
    /// cache bound to an older epoch, or its lock contended — falls back
    /// to wholesale invalidation (counted, never silently stale; a
    /// contended lock defers it to the next predict's epoch check).
    fn maintain_feature_cache(&self, tenant: &Tenant, epoch: u64, rows: &[IngestRow]) {
        match tenant.cache.try_lock() {
            Ok(mut cache) => {
                let prev = tenant.cache_epoch.swap(epoch, Ordering::AcqRel);
                if prev == epoch {
                    // Already rebound to this epoch (a predict raced the
                    // publish); its entries already reflect the batch.
                } else if prev.saturating_add(1) == epoch {
                    let avails: Vec<domd_data::AvailId> =
                        rows.iter().map(|r| r.avail).collect();
                    cache.invalidate_avails(&avails);
                    self.metrics.cache_surgical.fetch_add(1, Ordering::Relaxed);
                } else {
                    // Unclassifiable: entries are more than one delta
                    // behind this publish.
                    cache.invalidate();
                    self.metrics.cache_full.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                // Contended: the next predict's epoch check invalidates
                // wholesale before any entry is reused.
                self.metrics.cache_full.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Pushes `requests` through the full admission/queue/worker loop and
    /// returns every response, ordered by `seq`. Role 0 feeds the queue
    /// as fast as admission allows (sheds are answered inline); the
    /// remaining `workers` roles drain and execute. The queue is closed
    /// when the feed ends, so this consumes the core's queue — build one
    /// core per run.
    pub fn run_batch(&self, requests: &[Request]) -> Vec<Response> {
        let out: Mutex<Vec<Response>> = Mutex::new(Vec::with_capacity(requests.len()));
        let push = |resp: Response| {
            // domd-lint: allow(no-panic) — response sink sections are short and panic-free
            out.lock().expect("response sink").push(resp);
        };
        domd_runtime::run_workers(self.config.workers + 1, |role| {
            if role == 0 {
                for req in requests {
                    if let Some(resp) = self.submit(req.clone()) {
                        push(resp);
                    } else {
                        self.fire(Stage::Admitted, req);
                    }
                }
                self.queue.close();
            } else {
                while let Some(req) = self.queue.pop() {
                    push(self.execute(req));
                }
            }
        });
        // domd-lint: allow(no-panic) — all workers joined; the sink mutex is free and unpoisoned
        let mut responses = out.into_inner().expect("response sink");
        responses.sort_by_key(|r| r.seq);
        responses
    }

    /// Open-loop serving: submits each request when the clock reaches its
    /// scheduled tick — arrivals never wait for completions, which is what
    /// makes overload observable. Requests are re-stamped at their actual
    /// submit tick. Returns responses ordered by `seq`.
    pub fn run_scheduled(&self, schedule: &[(Ticks, Request)]) -> Vec<Response> {
        let out: Mutex<Vec<Response>> = Mutex::new(Vec::with_capacity(schedule.len()));
        let push = |resp: Response| {
            // domd-lint: allow(no-panic) — response sink sections are short and panic-free
            out.lock().expect("response sink").push(resp);
        };
        domd_runtime::run_workers(self.config.workers + 1, |role| {
            if role == 0 {
                for (at, req) in schedule {
                    while self.clock.now() < *at {
                        std::thread::yield_now();
                    }
                    let mut req = req.clone();
                    req.submitted = self.clock.now();
                    if let Some(resp) = self.submit(req.clone()) {
                        push(resp);
                    } else {
                        self.fire(Stage::Admitted, &req);
                    }
                }
                self.queue.close();
            } else {
                while let Some(req) = self.queue.pop() {
                    push(self.execute(req));
                }
            }
        });
        // domd-lint: allow(no-panic) — all workers joined; the sink mutex is free and unpoisoned
        let mut responses = out.into_inner().expect("response sink");
        responses.sort_by_key(|r| r.seq);
        responses
    }
}

/// Prints a [`RecoveryReport`] to `err` in the operator format the
/// `domd recover` command uses, prefixed for the serve startup context.
/// Surfacing damage *before* the first request is the contract: an
/// operator must see quarantined tails and discarded bytes even when
/// recovery ultimately succeeded.
pub fn announce_recovery(err: &mut dyn std::io::Write, report: &RecoveryReport) {
    let _ = writeln!(
        err,
        "serve: recovered store at checkpoint epoch {} ({} rows, {} WAL records replayed)",
        report.checkpoint_epoch, report.rows, report.replayed
    );
    let _ = writeln!(
        err,
        "serve: record versions: checkpoint v{}, {} v1 + {} v2 WAL records, {} full-payload row(s)",
        report.checkpoint_version, report.replayed_v1, report.replayed_v2, report.full_rows
    );
    if !report.damaged_generations.is_empty() {
        let _ = writeln!(
            err,
            "serve: WARNING {} damaged checkpoint generation(s) skipped: {:?}",
            report.damaged_generations.len(),
            report.damaged_generations
        );
    }
    if report.discarded_bytes > 0 {
        let _ = writeln!(
            err,
            "serve: WARNING {} byte(s) of damaged WAL tail removed by compaction",
            report.discarded_bytes
        );
    }
    if let Some(fault) = &report.tail_fault {
        let _ = writeln!(err, "serve: WARNING WAL tail fault: {fault}");
    }
    if let Some(quarantined) = &report.quarantined_tail {
        let _ = writeln!(
            err,
            "serve: WARNING damaged WAL tail quarantined at {}",
            quarantined.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use domd_core::{PipelineConfig, PipelineInputs};
    use domd_data::rcc::RccStatus;
    use domd_data::{censor_ongoing, generate, AvailId, GeneratorConfig};
    use domd_index::StatusQuery;

    fn core() -> ServeCore {
        let ds = generate(&GeneratorConfig { n_avails: 8, target_rccs: 300, scale: 1, seed: 5 });
        let inputs = PipelineInputs::build(&ds, 50.0);
        let mut cfg = PipelineConfig::default0();
        cfg.k = 6;
        cfg.grid_step = 50.0;
        cfg.gbt.n_estimators = 5;
        let pipeline = Arc::new(TrainedPipeline::fit(&inputs, &ds.split(1).train, &cfg));
        let model = SharedModel { pipeline, features: FeatureEngine::default() };
        let snapshot = TenantSnapshot::from_dataset(ds);
        ServeCore::new(ServeConfig::default(), ManualClock::new(), model, vec![snapshot])
    }

    #[test]
    fn status_refuses_a_nan_t_star_and_answers_the_timeline_ends() {
        let core = core();
        let ask = |seq: u64, t_star: f64, status: RccStatus| {
            let q = StatusQuery { rcc_type: None, swlin_prefix: None, status, t_star };
            core.serve_one(core.stamp(seq, 0, Op::Status(q))).outcome
        };
        for (seq, status) in [RccStatus::Active, RccStatus::NotCreated].into_iter().enumerate() {
            let e = ask(seq as u64, f64::NAN, status).expect_err("NaN t* must be refused");
            assert_eq!(e.kind(), "non-finite", "{e}");
        }
        let rows = core.tenants[0].store.pin().engine.arena().len();
        let count = |outcome: Result<Reply, DomdError>| match outcome {
            Ok(Reply::Status(agg)) => agg.count,
            other => panic!("expected a status answer, got {other:?}"),
        };
        assert_eq!(count(ask(2, f64::INFINITY, RccStatus::Settled)), rows);
        assert_eq!(count(ask(3, f64::NEG_INFINITY, RccStatus::NotCreated)), rows);
        assert_eq!(count(ask(4, f64::NEG_INFINITY, RccStatus::Created)), 0);
    }

    /// A core over a dataset whose every other avail is censored 40 days
    /// after the latest of their starts, with a breaker that cannot trip
    /// within a test (a tripped route would flag every alert degraded).
    fn censored_core(pipeline: TrainedPipeline) -> ServeCore {
        let ds = generate(&GeneratorConfig { n_avails: 16, target_rccs: 1200, scale: 1, seed: 5 });
        let ongoing: Vec<AvailId> = ds.avails().iter().step_by(2).map(|a| a.id).collect();
        let latest = ongoing.iter().filter_map(|&id| ds.avail(id)).map(|a| a.actual_start).max();
        let (live, _) = censor_ongoing(&ds, &ongoing, latest.expect("ongoing avails") + 40);
        let model = SharedModel { pipeline: Arc::new(pipeline), features: FeatureEngine::default() };
        let config = ServeConfig {
            breaker: BreakerConfig { window: 256, trip_failures: 256, cooldown: 8 },
            ..ServeConfig::default()
        };
        ServeCore::new(config, ManualClock::new(), model, vec![TenantSnapshot::from_dataset(live)])
    }

    fn alert_pipeline() -> TrainedPipeline {
        let ds = generate(&GeneratorConfig { n_avails: 16, target_rccs: 1200, scale: 1, seed: 5 });
        let inputs = PipelineInputs::build(&ds, 25.0);
        let mut cfg = PipelineConfig::default0();
        cfg.k = 8;
        cfg.grid_step = 25.0;
        cfg.gbt.n_estimators = 10;
        TrainedPipeline::fit(&inputs, &ds.split(1).train, &cfg)
    }

    fn ask_alert(
        core: &ServeCore,
        seq: u64,
        t_star: f64,
        k: usize,
        min_delay: f64,
    ) -> Result<Reply, DomdError> {
        core.serve_one(core.stamp(seq, 0, Op::Alerts { t_star, k, min_delay })).outcome
    }

    #[test]
    fn alerts_match_the_per_avail_full_row_reference_across_an_ingest() {
        let healthy = alert_pipeline();
        // A NaN step at t* = 50 repairs every answer from there on, so the
        // degraded flags are exercised as well.
        let mut broken = healthy.clone();
        let x = domd_ml::DenseMatrix::from_vec_of_rows(std::slice::from_ref(&vec![1.0]));
        broken.steps[2].model = domd_ml::ModelSpec::ElasticNet(domd_ml::ElasticNetParams::default())
            .fit(&x, &[f64::NAN]);
        for pipeline in [healthy, broken] {
            let core = censored_core(pipeline.clone());
            let store = core.tenant_store(0).expect("tenant 0");
            let mut seq = 0;
            for round in 0..2 {
                let pinned = store.pin();
                let ds = &pinned.dataset;
                let ongoing: Vec<AvailId> =
                    ds.avails().iter().filter(|a| a.actual_end.is_none()).map(|a| a.id).collect();
                for t_star in [10.0, 25.0, 60.0, 100.0] {
                    // Per-avail full-row answers: a fresh cache computes
                    // every anchor's whole catalog row.
                    let scored: Vec<(AvailId, f64, bool)> = ongoing
                        .iter()
                        .filter_map(|&id| {
                            let mut cache = FeatureCache::new(16);
                            let features = &core.model.features;
                            let online =
                                pipeline.predict_online_cached(ds, features, &mut cache, id, t_star);
                            let e = online.estimates.last()?.1;
                            Some((id, e, !online.warnings.is_empty()))
                        })
                        .collect();
                    let mut sorted: Vec<f64> = scored.iter().map(|s| s.1).collect();
                    sorted.sort_by(f64::total_cmp);
                    let median = sorted[sorted.len() / 2];
                    let cuts = [
                        (100, f64::NEG_INFINITY),
                        (100, 0.0),
                        (3, f64::NEG_INFINITY),
                        (0, f64::NEG_INFINITY),
                        (100, median),
                        (2, median),
                        (100, f64::INFINITY),
                    ];
                    for (k, min_delay) in cuts {
                        let mut want: Vec<(AvailId, u64, bool)> = scored
                            .iter()
                            .filter(|s| s.1.is_finite() && s.1 >= min_delay)
                            .map(|s| (s.0, s.1.to_bits(), s.2))
                            .collect();
                        want.sort_by(|a, b| {
                            let (ea, eb) = (f64::from_bits(a.1), f64::from_bits(b.1));
                            eb.total_cmp(&ea).then(a.0 .0.cmp(&b.0 .0))
                        });
                        want.truncate(k);
                        seq += 1;
                        let got = match ask_alert(&core, seq, t_star, k, min_delay) {
                            Ok(Reply::Alerts(alerts)) => alerts
                                .iter()
                                .map(|a| (a.avail, a.estimated_delay.to_bits(), a.degraded))
                                .collect::<Vec<_>>(),
                            other => panic!("expected alerts, got {other:?}"),
                        };
                        assert_eq!(got, want, "round {round}, t*={t_star}, k={k}, min={min_delay}");
                    }
                }
                if round == 0 {
                    // Ingest into an ongoing avail; round 1 answers from the
                    // epoch it publishes.
                    let a = ds.avail(ongoing[0]).expect("ongoing avail");
                    let row = IngestRow {
                        avail: a.id,
                        rcc_type: domd_data::RccType::Growth,
                        swlin: domd_data::Swlin::from_packed(12_345_678).expect("8-digit swlin"),
                        created: a.actual_start + 2,
                        settled: a.actual_start + 30,
                        amount: 900.0,
                    };
                    seq += 1;
                    let ack = core.serve_one(core.stamp(seq, 0, Op::Ingest { rows: vec![row] }));
                    assert!(ack.outcome.is_ok(), "{:?}", ack.outcome);
                    assert_eq!(store.pin().epoch(), pinned.epoch() + 1);
                }
            }
        }
    }

    #[test]
    fn alert_refuses_a_nan_min_and_answers_infinite_cuts() {
        let core = censored_core(alert_pipeline());
        let e = ask_alert(&core, 1, 60.0, 100, f64::NAN).expect_err("NaN min must be refused");
        assert_eq!(e.kind(), "non-finite", "{e}");
        assert!(e.to_string().contains("min_delay"), "{e}");
        let n = |outcome: Result<Reply, DomdError>| match outcome {
            Ok(Reply::Alerts(alerts)) => alerts.len(),
            other => panic!("expected alerts, got {other:?}"),
        };
        let pinned = core.tenant_store(0).expect("tenant 0").pin();
        let ongoing = pinned.dataset.avails().iter().filter(|a| a.actual_end.is_none()).count();
        assert!(ongoing > 0);
        assert_eq!(n(ask_alert(&core, 2, 60.0, 100, f64::NEG_INFINITY)), ongoing);
        assert_eq!(n(ask_alert(&core, 3, 60.0, 100, f64::INFINITY)), 0);
    }
}
