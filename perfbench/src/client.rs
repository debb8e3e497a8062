//! Closed-loop clients executing requests directly.
//!
//! Each client thread carries its own request through the public calls a
//! `domd serve` session makes — `parse_line` → `ServeCore::submit` →
//! `queue().pop()` → `ServeCore::execute` → `render_response` — instead of
//! the session's feeder→worker handoff, whose thread scheduling made run
//! to run latency swing far more than the work itself. Clients run as
//! `domd_runtime` pool roles, like serve workers, so an alert sweep
//! inside them runs sequentially as it does in `domd serve`. A client
//! sends its next request only after the previous reply, so a few clients
//! build no queue: overload and shedding are out of scope.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::Instant;

use domd_core::DomdError;
use domd_perfbench::procfs;
use domd_perfbench::trace::{Span, Tracer};
use domd_serve::{parse_line, render_response, Reply, Response, ServeCore};

use crate::fleet::{Fleet, Mix, OpKind, RequestGen};
use crate::replay::{Counters, Replayer};

/// Runs one protocol line through the serving path, recording the
/// served-path spans under `parent`. Returns the response and the
/// `serve.execute` span (`None` when untraced or refused).
pub fn serve_line(
    core: &ServeCore,
    admit: &Mutex<()>,
    line: &str,
    seq: u64,
    tr: &mut Tracer,
    parent: Option<usize>,
) -> (Response, Option<usize>) {
    let refuse = |e: DomdError| Response {
        seq,
        tenant: 0,
        outcome: Err(e),
        epoch: None,
        queued: 0,
        service: 0,
    };
    let parsed = tr.time("serve.parse", parent, || {
        parse_line(line, seq, core.clock().now(), core.config().default_budget)
    });
    let req = match parsed {
        Ok(Some(req)) => req,
        Ok(None) => return (refuse(DomdError::config("blank request line")), None),
        Err(e) => return (refuse(e), None),
    };
    // Submit and pop as one step per client, so the request a client
    // pops is the one it submitted (the queue is shared by all clients).
    let admitted = {
        let _turn = admit.lock().expect("admission turn lock");
        match tr.time("serve.admit", parent, || core.submit(req)) {
            Some(refused) => Err(refused),
            None => Ok(tr.time("runtime.queue_wait", parent, || core.queue().pop())),
        }
    };
    let (resp, exec) = match admitted {
        Err(refused) => (refused, None),
        Ok(None) => (refuse(DomdError::config("admission queue closed")), None),
        Ok(Some(req)) => {
            let exec = tr.open("serve.execute", parent);
            let resp = core.execute(req);
            tr.close(exec);
            (resp, exec)
        }
    };
    let text = tr.time("serve.render", parent, || render_response(&resp));
    std::hint::black_box(text);
    (resp, exec)
}

/// One measured phase.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    pub clients: usize,
    /// Requests are drawn by this mix until the stop conditions hold.
    pub mix: Mix,
    /// Stream offset, so phases of one run draw distinct requests.
    pub stream: u64,
    /// Warm-up: one predict per ongoing avail, filling the feature cache.
    pub warm_predicts: bool,
    /// Warm-up: requests per client drawn by the mix.
    pub warm_mixed: usize,
    /// Measure at least this long.
    pub min_seconds: f64,
    /// And until every mixed kind has this many samples.
    pub min_samples: usize,
    /// And until the phase has acked this many rows, so a store's
    /// auto-checkpoint lands in it.
    pub min_rows: u64,
    /// Give up (the run then fails) after this long.
    pub max_seconds: f64,
    /// Keep every n-th measured reply per kind for the output checks, up
    /// to the cap per kind.
    pub keep_every: usize,
    pub keep_cap: [usize; 4],
}

/// A reply kept for the output checks.
pub struct Kept {
    pub kind: OpKind,
    pub line: String,
    pub resp: Response,
}

/// Everything a phase measured.
#[derive(Default)]
pub struct PhaseOut {
    /// Measured latencies per kind, ms; failures are `+∞`.
    pub samples: [Vec<f64>; 4],
    /// The client thread's on-CPU time per measured, successful request,
    /// per kind, ms. The kernel charges a thread only for time it ran, so
    /// host steal (and an ingest's fsync wait) stay out of it; readings
    /// are tick-granular, so only means over many requests are used.
    pub cpu: [Vec<f64>; 4],
    /// Trace run: latencies per kind of the traced and of the untraced
    /// requests.
    pub traced: [Vec<f64>; 4],
    pub untraced: [Vec<f64>; 4],
    /// Requests sent and failed per kind, warm-up included.
    pub attempted: [u64; 4],
    pub failed: [u64; 4],
    pub kept: Vec<Kept>,
    /// Measured phase: wall seconds, process CPU seconds, host steal share.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal: f64,
    /// Rows acked, warm-up included.
    pub rows_acked: u64,
    pub spans: Vec<Vec<Span>>,
    pub counters: Counters,
    pub errors: Vec<String>,
}

impl PhaseOut {
    /// Completed (successful) measured requests.
    pub fn completed(&self) -> usize {
        self.samples
            .iter()
            .flatten()
            .filter(|v| v.is_finite())
            .count()
    }
}

struct Start {
    at: Instant,
    cpu: f64,
    host: procfs::HostCpu,
}

/// Runs a phase against `core`. With a `replayer` (the traced run) every
/// request is replayed after its reply to keep the mirrors in step, and
/// every other measured request is traced.
pub fn run_phase(
    core: &ServeCore,
    fleet: &Fleet,
    seed: u64,
    spec: &PhaseSpec,
    replayer: Option<&Replayer>,
    origin: Instant,
) -> Result<PhaseOut, String> {
    let clients = spec.clients.max(1);
    let mix = spec.mix;
    let admit = Mutex::new(());
    let stop = AtomicBool::new(false);
    let counts: [AtomicU64; 4] = Default::default();
    let acked = AtomicU64::new(0);
    let barrier = Barrier::new(clients);
    let start: OnceLock<Start> = OnceLock::new();
    let outs: Mutex<Vec<PhaseOut>> = Mutex::new(Vec::new());

    let client = |role: usize| {
        let mut gen = RequestGen::new(fleet, seed, spec.stream + role as u64, mix);
        let mut tr = Tracer::new(origin);
        let mut out = PhaseOut::default();
        let mut kept_per_kind = [0usize; 4];
        let mut seq = role as u64;
        let mut measured_n = 0usize;
        let thread_cpu = procfs::ThreadCpu::open();
        let mut one = |kind: OpKind, line: String, measured: bool, out: &mut PhaseOut| {
            let traced = replayer.is_some() && measured && measured_n % 2 == 1;
            tr.set_enabled(traced);
            tr.set_request(seq);
            let cpu0 = thread_cpu.as_ref().and_then(procfs::ThreadCpu::ns);
            let t0 = Instant::now();
            let root = tr.open("request", None);
            let (resp, exec) = serve_line(core, &admit, &line, seq, &mut tr, root);
            tr.close(root);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let cpu1 = thread_cpu.as_ref().and_then(procfs::ThreadCpu::ns);
            seq += clients as u64;
            if let Some(r) = replayer {
                // Warm-up requests keep the mirrors in step but are not counted.
                let mut scratch = Counters::default();
                let counters = if measured {
                    &mut out.counters
                } else {
                    &mut scratch
                };
                if let Err(e) = r.replay(core, &mut tr, exec, &line, &resp, counters) {
                    out.errors.push(e);
                }
            }
            tr.set_enabled(false);
            let k = kind.index();
            out.attempted[k] += 1;
            let ok = resp.outcome.is_ok();
            if !ok {
                out.failed[k] += 1;
            }
            if let Ok(Reply::Ingested { rows, .. }) = &resp.outcome {
                out.rows_acked += u64::from(*rows);
                acked.fetch_add(u64::from(*rows), Ordering::Relaxed);
            }
            if !measured {
                return;
            }
            let ms = if ok { ms } else { f64::INFINITY };
            out.samples[k].push(ms);
            if let (Some(a), Some(b), true) = (cpu0, cpu1, ok) {
                out.cpu[k].push(b.saturating_sub(a) as f64 / 1e6);
            }
            if replayer.is_some() {
                if traced {
                    out.traced[k].push(ms)
                } else {
                    out.untraced[k].push(ms)
                }
            }
            if spec.keep_every > 0
                && out.samples[k].len().is_multiple_of(spec.keep_every)
                && kept_per_kind[k] < spec.keep_cap[k]
            {
                kept_per_kind[k] += 1;
                out.kept.push(Kept { kind, line, resp });
            }
            measured_n += 1;
            counts[k].fetch_add(1, Ordering::Relaxed);
        };

        if spec.warm_predicts {
            for i in (role..fleet.ongoing.len()).step_by(clients) {
                let line = gen.predict_for(i);
                one(OpKind::Predict, line, false, &mut out);
            }
        }
        for _ in 0..spec.warm_mixed {
            let (kind, line) = gen.next();
            one(kind, line, false, &mut out);
        }
        if barrier.wait().is_leader() {
            let _ = start.set(Start {
                at: Instant::now(),
                cpu: procfs::process_cpu_seconds().unwrap_or(0.0),
                host: procfs::host_cpu().unwrap_or_default(),
            });
        }
        barrier.wait();
        let began = start.get().map_or_else(Instant::now, |s| s.at);
        while !stop.load(Ordering::Relaxed) {
            let (kind, line) = gen.next();
            one(kind, line, true, &mut out);
            let elapsed = began.elapsed().as_secs_f64();
            let enough = OpKind::ALL.iter().all(|k| {
                mix[k.index()] == 0
                    || counts[k.index()].load(Ordering::Relaxed) as usize >= spec.min_samples
            });
            let logged = acked.load(Ordering::Relaxed) >= spec.min_rows;
            if (elapsed >= spec.min_seconds && enough && logged) || elapsed >= spec.max_seconds {
                stop.store(true, Ordering::Relaxed);
            }
        }
        out.spans.push(tr.into_spans());
        outs.lock().expect("phase output lock").push(out);
    };
    // One pool role per client (a second, idle role for a lone client),
    // so every client runs inside the pool like a serve worker.
    domd_runtime::run_workers(clients.max(2), |role| {
        if role < clients {
            client(role);
        }
    });
    let begun = start.into_inner().ok_or("phase never started")?;
    let mut total = PhaseOut {
        wall_s: begun.at.elapsed().as_secs_f64(),
        cpu_s: procfs::process_cpu_seconds().unwrap_or(0.0) - begun.cpu,
        steal: procfs::host_cpu()
            .unwrap_or_default()
            .steal_share_since(&begun.host),
        ..PhaseOut::default()
    };
    for o in outs
        .into_inner()
        .map_err(|_| "phase output lock poisoned")?
    {
        for k in 0..4 {
            total.samples[k].extend(o.samples[k].iter().copied());
            total.traced[k].extend(o.traced[k].iter().copied());
            total.untraced[k].extend(o.untraced[k].iter().copied());
            total.attempted[k] += o.attempted[k];
            total.failed[k] += o.failed[k];
        }
        total.kept.extend(o.kept);
        for k in 0..4 {
            total.cpu[k].extend(o.cpu[k].iter().copied());
        }
        total.rows_acked += o.rows_acked;
        total.spans.extend(o.spans);
        total.counters.add(&o.counters);
        total.errors.extend(o.errors);
    }
    Ok(total)
}
