//! The newline-delimited text protocol of `domd serve`.
//!
//! One request per line, `<op>` followed by `key=value` pairs in any
//! order; one response line per request, `ok …` or `err …`. The grammar
//! is deliberately tiny and dependency-free (same philosophy as the
//! `--flag value` CLI parser): it exists so the serve loop can be driven
//! end-to-end from a shell pipe in CI, not to be a wire format.
//!
//! ```text
//! status tenant=0 t=55 status=active type=G swlin=000-01-234:5
//! predict tenant=0 avail=12 t=55 budget=300
//! alert tenant=1 t=80 k=5 min=10
//! ingest tenant=0 avail=12 type=NW swlin=123-45-678 created=2015-03-04 settled=2015-04-02 amount=1200
//! ingest tenant=0 row=12:NW:123-45-678:2015-03-04:2015-04-02:1200 row=12:G:00100200:2015-03-05:2015-03-20:90
//! quit
//! ```
//!
//! `ingest` takes either the legacy discrete-key single-row form or any
//! number of `row=avail:type:swlin:created:settled:amount` batch rows;
//! the whole batch applies atomically under one published epoch, so
//! batching pays the copy-on-write build once per request.
//!
//! A malformed line is answered with an `err … kind=config/parse` line —
//! the session survives; only transport-level failures end it. Every
//! request-bearing line — parsed or malformed — consumes one sequence
//! number, so an `err seq=` for a malformed line never collides with the
//! seq of a later parsed request (clients match responses by seq).

use std::io::{BufRead, Write};
use std::sync::Mutex;

use domd_core::DomdError;
use domd_data::rcc::RccStatus;
use domd_data::AvailId;
use domd_index::StatusQuery;

use crate::clock::Ticks;
use crate::request::{IngestRow, Op, Reply, Request, Response};
use crate::server::{ServeCore, Stage};

/// Parses one protocol line. Returns `Ok(None)` for blank lines,
/// comments (`#`), and `quit` (the caller decides what EOF means).
pub fn parse_line(
    line: &str,
    seq: u64,
    now: Ticks,
    default_budget: Ticks,
) -> Result<Option<Request>, DomdError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    // domd-lint: allow(no-panic) — split_whitespace on a non-empty trimmed line yields at least one token
    let op_name = parts.next().expect("non-empty line has a first token");
    if op_name == "quit" {
        return Ok(None);
    }

    let mut kv: Vec<(&str, &str)> = Vec::new();
    for part in parts {
        let Some((k, v)) = part.split_once('=') else {
            return Err(DomdError::config(format!("expected key=value, found {part:?}")));
        };
        kv.push((k, v));
    }
    let get = |key: &str| kv.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    let parse_f64 = |key: &str| -> Result<Option<f64>, DomdError> {
        get(key)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|e| DomdError::config(format!("bad {key}={v}: {e}")))
            })
            .transpose()
    };
    let parse_u64 = |key: &str| -> Result<Option<u64>, DomdError> {
        get(key)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|e| DomdError::config(format!("bad {key}={v}: {e}")))
            })
            .transpose()
    };

    let tenant = parse_u64("tenant")?.unwrap_or(0) as usize;
    let budget = parse_u64("budget")?.unwrap_or(default_budget);
    let require_t = || {
        parse_f64("t")?.ok_or_else(|| DomdError::config(format!("{op_name} requires t=<t_star>")))
    };

    let op = match op_name {
        "status" => {
            let t_star = require_t()?;
            let status = match get("status").unwrap_or("created") {
                "active" => RccStatus::Active,
                "settled" => RccStatus::Settled,
                "created" => RccStatus::Created,
                "not-created" => RccStatus::NotCreated,
                other => {
                    return Err(DomdError::config(format!(
                        "bad status={other}; use active|settled|created|not-created"
                    )))
                }
            };
            let rcc_type = get("type")
                .map(|v| v.parse::<domd_data::RccType>().map_err(DomdError::config))
                .transpose()?;
            let swlin_prefix = get("swlin")
                .map(|v| -> Result<(u32, u32), DomdError> {
                    let (code, len) = match v.split_once(':') {
                        Some((code, len)) => {
                            let len: u32 = len
                                .parse()
                                .map_err(|e| DomdError::config(format!("bad swlin len: {e}")))?;
                            (code, len)
                        }
                        None => (v, 8),
                    };
                    let swlin: domd_data::Swlin = code.parse().map_err(DomdError::config)?;
                    // The code spells the prefix's value: `000-00-434:3` is
                    // the 3-digit node 434, so it must fit in `len` digits.
                    if !(1..=8).contains(&len) || u64::from(swlin.packed()) >= 10u64.pow(len) {
                        return Err(DomdError::config(format!(
                            "bad swlin={v}; use <prefix>:<depth> with depth 1..=8 and the prefix \
                             value in the code's last <depth> digits (000-00-434:3 is node 434)"
                        )));
                    }
                    Ok((swlin.packed(), len))
                })
                .transpose()?;
            Op::Status(StatusQuery { rcc_type, swlin_prefix, status, t_star })
        }
        "predict" => {
            let avail = get("avail")
                .ok_or_else(|| DomdError::config("predict requires avail=<id>"))?;
            let avail = avail
                .parse::<u32>()
                .map_err(|e| DomdError::config(format!("bad avail={avail}: {e}")))?;
            Op::Predict { avail: AvailId(avail), t_star: require_t()? }
        }
        "alert" => Op::Alerts {
            t_star: require_t()?,
            k: parse_u64("k")?.unwrap_or(10) as usize,
            min_delay: parse_f64("min")?.unwrap_or(0.0),
        },
        "ingest" => {
            // Batch form: every `row=` pair is one RCC; the legacy
            // discrete-key form parses as a one-row batch.
            let specs: Vec<&str> =
                kv.iter().filter(|(k, _)| *k == "row").map(|(_, v)| *v).collect();
            let rows = if specs.is_empty() {
                let need = |key: &str| {
                    get(key).ok_or_else(|| {
                        DomdError::config(format!("ingest requires {key}=<value>"))
                    })
                };
                vec![IngestRow {
                    avail: AvailId(
                        need("avail")?
                            .parse::<u32>()
                            .map_err(|e| DomdError::config(format!("bad avail: {e}")))?,
                    ),
                    rcc_type: need("type")?.parse().map_err(DomdError::config)?,
                    swlin: need("swlin")?.parse().map_err(DomdError::config)?,
                    created: need("created")?
                        .parse()
                        .map_err(|e| DomdError::config(format!("bad created: {e}")))?,
                    settled: need("settled")?
                        .parse()
                        .map_err(|e| DomdError::config(format!("bad settled: {e}")))?,
                    amount: need("amount")?
                        .parse::<f64>()
                        .map_err(|e| DomdError::config(format!("bad amount: {e}")))?,
                }]
            } else {
                specs
                    .into_iter()
                    .map(parse_ingest_row)
                    .collect::<Result<Vec<_>, DomdError>>()?
            };
            Op::Ingest { rows }
        }
        other => {
            return Err(DomdError::config(format!(
                "unknown op {other:?}; use status|predict|alert|ingest|quit"
            )))
        }
    };
    Ok(Some(Request { seq, tenant, submitted: now, budget, op }))
}

/// Parses one `row=` batch spec: `avail:type:swlin:created:settled:amount`
/// (colon-separated; dates and SWLINs never contain a colon).
fn parse_ingest_row(spec: &str) -> Result<IngestRow, DomdError> {
    let fields: Vec<&str> = spec.split(':').collect();
    let [avail, rcc_type, swlin, created, settled, amount] = fields[..] else {
        return Err(DomdError::config(format!(
            "bad ingest row {spec:?}; use avail:type:swlin:created:settled:amount"
        )));
    };
    Ok(IngestRow {
        avail: AvailId(
            avail.parse::<u32>().map_err(|e| DomdError::config(format!("bad row avail: {e}")))?,
        ),
        rcc_type: rcc_type.parse().map_err(DomdError::config)?,
        swlin: swlin.parse().map_err(DomdError::config)?,
        created: created
            .parse()
            .map_err(|e| DomdError::config(format!("bad row created: {e}")))?,
        settled: settled
            .parse()
            .map_err(|e| DomdError::config(format!("bad row settled: {e}")))?,
        amount: amount
            .parse::<f64>()
            .map_err(|e| DomdError::config(format!("bad row amount: {e}")))?,
    })
}

/// Renders one response line (`ok …` / `err …`).
pub fn render_response(resp: &Response) -> String {
    let mut out = String::new();
    match &resp.outcome {
        Ok(reply) => {
            out.push_str(&format!("ok seq={} tenant={}", resp.seq, resp.tenant));
            if let Some(e) = resp.epoch {
                out.push_str(&format!(" epoch={e}"));
            }
            out.push_str(&format!(" queued_ms={} service_ms={}", resp.queued, resp.service));
            match reply {
                Reply::Status(agg) => out.push_str(&format!(
                    " op=status count={} sum_amount={:.3} sum_duration={:.3}",
                    agg.count, agg.sum_amount, agg.sum_duration
                )),
                Reply::Predict { avail, estimates, degraded, warnings } => {
                    out.push_str(&format!(" op=predict avail={avail} degraded={degraded}"));
                    match estimates.last() {
                        Some(e) => out.push_str(&format!(
                            " estimate={:.3} at_t={:.1} points={}",
                            e.estimated_delay,
                            e.t_star,
                            estimates.len()
                        )),
                        None => out.push_str(" estimate=none points=0"),
                    }
                    if !warnings.is_empty() {
                        out.push_str(&format!(" warnings={}", warnings.len()));
                    }
                }
                Reply::Alerts(alerts) => {
                    out.push_str(&format!(" op=alert n={}", alerts.len()));
                    for a in alerts {
                        out.push_str(&format!(
                            " {}:{:.1}{}",
                            a.avail,
                            a.estimated_delay,
                            if a.degraded { "!" } else { "" }
                        ));
                    }
                }
                Reply::Ingested { row, rows, epoch } => {
                    out.push_str(&format!(" op=ingest row={row} rows={rows} new_epoch={epoch}"));
                }
            }
        }
        Err(e) => {
            out.push_str(&format!(
                "err seq={} tenant={} kind={} retryable={} msg=\"{e}\"",
                resp.seq,
                resp.tenant,
                e.kind(),
                e.is_retryable()
            ));
        }
    }
    out
}

/// Session totals returned by [`run_session`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Lines parsed into requests.
    pub requests: u64,
    /// Lines refused as malformed.
    pub malformed: u64,
    /// Responses whose outcome was a shed (`Overloaded`/`DeadlineExceeded`).
    pub shed: u64,
}

/// Drives a serve session over line-oriented transport: requests are fed
/// through the admission queue, `workers` pool workers execute them, and
/// responses stream to `writer` as they complete (matched by `seq`, not
/// by line order). Returns when the reader ends or a `quit` line arrives
/// — the queue is closed, the backlog drains, and the workers exit: the
/// clean-shutdown path the CLI smoke test exercises via SIGPIPE/EOF.
pub fn run_session<R: BufRead + Send, W: Write + Send>(
    core: &ServeCore,
    reader: R,
    writer: &mut W,
) -> SessionStats {
    let stats = Mutex::new(SessionStats::default());
    let out = Mutex::new(writer);
    let emit = |resp: &Response| {
        if resp.is_shed() {
            // domd-lint: allow(no-panic) — stats sections are short and panic-free
            stats.lock().expect("session stats").shed += 1;
        }
        // domd-lint: allow(no-panic) — writer sections are short; a broken pipe is ignored, not fatal
        let _ = writeln!(out.lock().expect("session writer"), "{}", render_response(resp));
    };
    let reader = Mutex::new(Some(reader));
    domd_runtime::run_workers(core.config().workers + 1, |role| {
        if role != 0 {
            while let Some(req) = core.queue().pop() {
                emit(&core.execute(req));
            }
            return;
        }
        // domd-lint: allow(no-panic) — role 0 runs once; the reader is present by construction
        let reader = reader.lock().expect("session reader").take().expect("one feeder role");
        let mut seq = 0u64;
        for line in reader.lines() {
            let Ok(line) = line else { break };
            let now = core.clock().now();
            let budget = core.config().default_budget;
            match parse_line(&line, seq, now, budget) {
                Ok(None) => {
                    if line.trim() == "quit" {
                        break;
                    }
                }
                Ok(Some(req)) => {
                    seq += 1;
                    // domd-lint: allow(no-panic) — stats sections are short and panic-free
                    stats.lock().expect("session stats").requests += 1;
                    if let Some(resp) = core.submit(req.clone()) {
                        emit(&resp);
                    } else {
                        // Mirror run_batch: the hook sees every admission.
                        core.fire(Stage::Admitted, &req);
                    }
                }
                Err(e) => {
                    // A malformed line consumes a seq of its own, so its
                    // error response can never share a seq with the next
                    // successfully parsed request.
                    seq += 1;
                    // domd-lint: allow(no-panic) — stats sections are short and panic-free
                    stats.lock().expect("session stats").malformed += 1;
                    let _ = writeln!(
                        // domd-lint: allow(no-panic) — writer sections are short; a broken pipe is ignored, not fatal
                        out.lock().expect("session writer"),
                        "err seq={} kind={} retryable=false msg=\"{e}\"",
                        seq - 1,
                        e.kind()
                    );
                }
            }
        }
        core.queue().close();
    });
    // domd-lint: allow(no-panic) — all workers joined; the stats mutex is free and unpoisoned
    let stats = *stats.lock().expect("session stats");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_op_and_rejects_junk() {
        let r = parse_line("status t=55 status=active", 1, 10, 100).unwrap().unwrap();
        assert_eq!(r.op.name(), "status");
        assert_eq!(r.tenant, 0);
        assert_eq!((r.submitted, r.budget), (10, 100));

        let r = parse_line("predict tenant=2 avail=7 t=40 budget=50", 2, 0, 100)
            .unwrap()
            .unwrap();
        assert_eq!(r.op.name(), "predict");
        assert_eq!((r.tenant, r.budget), (2, 50));

        let r = parse_line("alert t=80 k=3 min=5", 3, 0, 100).unwrap().unwrap();
        assert!(matches!(r.op, Op::Alerts { k: 3, .. }));

        let r = parse_line(
            "ingest avail=1 type=NW swlin=123-45-678 created=2015-01-02 settled=2015-02-01 amount=10",
            4, 0, 100,
        )
        .unwrap()
        .unwrap();
        assert!(r.op.is_mutation());
        let Op::Ingest { rows } = &r.op else { panic!("expected ingest") };
        assert_eq!(rows.len(), 1, "legacy discrete-key form is a one-row batch");

        assert!(parse_line("quit", 5, 0, 100).unwrap().is_none());
        assert!(parse_line("", 5, 0, 100).unwrap().is_none());
        assert!(parse_line("# comment", 5, 0, 100).unwrap().is_none());
        assert!(parse_line("frobnicate t=1", 5, 0, 100).is_err());
        assert!(parse_line("status", 5, 0, 100).is_err());
        assert!(parse_line("status t=55 status=bogus", 5, 0, 100).is_err());
        assert!(parse_line("predict t=55", 5, 0, 100).is_err());
        assert!(parse_line("status t=55 stray-token", 5, 0, 100).is_err());
    }

    #[test]
    fn ingest_batch_form_parses_each_row() {
        let r = parse_line(
            "ingest tenant=1 row=3:NW:123-45-678:2015-01-02:2015-02-01:10 \
             row=4:G:00100200:2015-01-05:2015-01-20:90.5",
            7, 0, 100,
        )
        .unwrap()
        .unwrap();
        assert_eq!(r.tenant, 1);
        let Op::Ingest { rows } = &r.op else { panic!("expected ingest") };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].avail.0, 3);
        assert_eq!(rows[1].avail.0, 4);
        assert_eq!(rows[1].amount, 90.5);

        // Malformed batch rows are refused as config errors.
        assert!(parse_line("ingest row=3:NW:123-45-678:2015-01-02", 8, 0, 100).is_err());
        assert!(parse_line(
            "ingest row=x:NW:123-45-678:2015-01-02:2015-02-01:10",
            8,
            0,
            100
        )
        .is_err());
    }

    #[test]
    fn predict_avail_out_of_u32_range_is_refused() {
        let avail = |line: &str| {
            let r = parse_line(line, 1, 0, 100).unwrap().unwrap();
            let Op::Predict { avail, .. } = r.op else { panic!("expected predict") };
            avail.0
        };
        assert_eq!(avail("predict avail=72 t=50"), 72);
        assert_eq!(avail("predict avail=4294967295 t=50"), u32::MAX);
        // 2^32 + 72 once wrapped to avail 72 and was answered for it.
        for bad in ["4294967296", "4294967368", "-1", "7.0"] {
            let e = parse_line(&format!("predict avail={bad} t=50"), 1, 0, 100).unwrap_err();
            assert_eq!(e.kind(), "config", "avail={bad}");
        }
    }

    #[test]
    fn status_swlin_prefix_parses_code_and_len() {
        let prefix = |line: &str| {
            let r = parse_line(line, 1, 0, 100).unwrap().unwrap();
            let Op::Status(q) = r.op else { panic!("expected status") };
            q.swlin_prefix
        };
        assert_eq!(prefix("status t=10 swlin=000-00-434:3"), Some((434, 3)));
        assert_eq!(prefix("status t=10 swlin=123-45-678"), Some((12_345_678, 8)));
        assert_eq!(prefix("status t=10 swlin=000-00-001:1"), Some((1, 1)));
        // A code wider than its depth names no node, and depths outside
        // 1..=8 name no level: refused as config errors, never a panic.
        let refused =
            ["123-45-678:5", "000-00-001:0", "000-00-001:9", "000-00-010:1", "000-00-434:x"];
        for bad in refused {
            let e = parse_line(&format!("status t=10 swlin={bad}"), 1, 0, 100).unwrap_err();
            assert_eq!(e.kind(), "config", "swlin={bad}");
        }
    }

    #[test]
    fn renders_ok_and_err_lines() {
        use domd_core::DomdError;
        let ok = Response {
            seq: 9,
            tenant: 1,
            outcome: Ok(Reply::Ingested { row: 4, rows: 1, epoch: 2 }),
            epoch: Some(2),
            queued: 1,
            service: 3,
        };
        let line = render_response(&ok);
        assert!(line.starts_with("ok seq=9 tenant=1"), "{line}");
        assert!(line.contains("row=4") && line.contains("new_epoch=2"), "{line}");

        let err = Response {
            seq: 10,
            tenant: 0,
            outcome: Err(DomdError::Overloaded {
                context: "admission queue".into(),
                depth: 8,
                capacity: 8,
            }),
            epoch: None,
            queued: 0,
            service: 0,
        };
        let line = render_response(&err);
        assert!(line.starts_with("err seq=10"), "{line}");
        assert!(line.contains("kind=overloaded") && line.contains("retryable=true"), "{line}");
    }
}
