//! `bench_restart` — recovery-to-first-answer for a restarted `domd
//! serve`, as a function of store size.
//!
//! Two restart paths over the same durable store:
//!
//! * **store-rebuild** (what `domd serve --store` runs): recover the
//!   store, build the tenant snapshot in bulk from its rows
//!   (`rebuild_tenant`), answer the first Status Query. Sees every
//!   acked ingest.
//! * **extract-reload** (the path it replaced): recover the store for
//!   durability, build the snapshot from the extracts
//!   (`TenantSnapshot::from_dataset`), answer the first query. Blind to
//!   every row the extracts lack — the reason it was replaced — so it is
//!   a *baseline*, not an alternative. Both arms run the same build.
//!
//! The store-rebuild arm is bit-identity-gated first: its aggregates
//! must equal, to the bit, a from-scratch snapshot's over the store's own
//! rows for every status, for an unfiltered, a one-type and a SWLIN-node
//! group, at four values of `t*`. Each timing column reports its minimum
//! over `--runs` repetitions.
//!
//! ```text
//! bench_restart [--scales 1,4] [--ingests N] [--runs N] [--out FILE]
//! ```

use domd_bench::util::{scaled_dataset, time_ms};
use domd_data::rcc::{Rcc, RccId, RccStatus, RccType};
use domd_data::{logical_time, Dataset};
use domd_index::{project_dataset, DurableIndex, FlatAvlIndex, LogicalRcc, StatusQuery};
use domd_serve::{rebuild_tenant, TenantSnapshot};
use std::path::{Path, PathBuf};

/// Builds the restart scenario: a full-payload (v2) store initialized
/// from the extracts plus `ingests` acked v2 rows in the WAL — the disk
/// state a killed serving process leaves behind.
fn build_store(dir: &Path, ds: &Dataset, ingests: usize) {
    let _ = std::fs::remove_dir_all(dir);
    let projected = project_dataset(ds);
    let mut di: DurableIndex<FlatAvlIndex> = DurableIndex::create_full(
        dir,
        projected.iter().copied().zip(ds.rccs().iter().cloned()),
    )
    .expect("create full store");
    // Stop auto-checkpointing so every ingest stays a WAL record and the
    // recovery being timed actually replays them.
    di.set_checkpoint_every(None);
    let base = projected.len() as u32;
    let next_rcc = ds.rccs().iter().map(|r| r.id.0 + 1).max().unwrap_or(0);
    for k in 0..ingests {
        let template = &ds.rccs()[k % ds.rccs().len()];
        let a = ds.avail(template.avail).expect("template avail exists");
        let planned = a.planned_duration().max(1);
        let rcc = Rcc { id: RccId(next_rcc + k as u32), ..template.clone() };
        let logical = LogicalRcc {
            id: base + k as u32,
            avail: rcc.avail,
            start: logical_time(rcc.created, a.actual_start, planned),
            end: logical_time(rcc.settled, a.actual_start, planned),
        };
        assert!(di.insert_full(&logical, &rcc).expect("ingest row"), "duplicate ingest id");
    }
    di.sync().expect("sync");
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The "first answer" a restarted server produces: one Status Query.
fn first_answer(snap: &TenantSnapshot) -> usize {
    let q = StatusQuery {
        rcc_type: None,
        swlin_prefix: None,
        status: RccStatus::Active,
        t_star: 60.0,
    };
    snap.engine.aggregate(&q).count
}

/// Identity gate: `got` answers every probe — each status, unfiltered /
/// one type / one SWLIN node, `t*` in {0, 25, 60, 110} — with the same
/// count and sums, to the bit, as `want`.
fn assert_same_answers(got: &TenantSnapshot, want: &TenantSnapshot, scale: u32) {
    let statuses =
        [RccStatus::Active, RccStatus::Settled, RccStatus::Created, RccStatus::NotCreated];
    let groups = [(None, None), (Some(RccType::NewWork), None), (None, Some((4, 1)))];
    for status in statuses {
        for (rcc_type, swlin_prefix) in groups {
            for t_star in [0.0, 25.0, 60.0, 110.0] {
                let q = StatusQuery { rcc_type, swlin_prefix, status, t_star };
                let (a, b) = (got.engine.aggregate(&q), want.engine.aggregate(&q));
                let ctx = format!("store-rebuild diverged from from-scratch at scale {scale}");
                assert_eq!(a.count, b.count, "{ctx}: count of {q:?}");
                assert_eq!(a.sum_amount.to_bits(), b.sum_amount.to_bits(), "{ctx}: {q:?}");
                assert_eq!(a.sum_duration.to_bits(), b.sum_duration.to_bits(), "{ctx}: {q:?}");
            }
        }
    }
}

struct ScaleResult {
    scale: u32,
    rows: usize,
    ingested: usize,
    store_bytes: u64,
    recover_ms: f64,
    rebuild_ms: f64,
    store_to_answer_ms: f64,
    extract_to_answer_ms: f64,
    extract_missing_rows: usize,
}

impl ScaleResult {
    fn json(&self) -> String {
        format!(
            "{{\"scale\":{},\"rows\":{},\"ingested\":{},\"store_bytes\":{},\"recover_ms\":{:.3},\"rebuild_ms\":{:.3},\"store_to_answer_ms\":{:.3},\"extract_to_answer_ms\":{:.3},\"extract_missing_rows\":{}}}",
            self.scale,
            self.rows,
            self.ingested,
            self.store_bytes,
            self.recover_ms,
            self.rebuild_ms,
            self.store_to_answer_ms,
            self.extract_to_answer_ms,
            self.extract_missing_rows
        )
    }
}

fn bench_scale(scale: u32, ingests: usize, runs: usize) -> ScaleResult {
    let ds = scaled_dataset(scale);
    let dir = std::env::temp_dir()
        .join(format!("domd-bench-restart-{}-{scale}", std::process::id()));
    build_store(&dir, &ds, ingests);
    let store_bytes = dir_bytes(&dir);

    // Bit-identity gate: the store-rebuild snapshot must answer exactly
    // like a from-scratch snapshot over the store's own rows.
    let (index, _) = DurableIndex::<FlatAvlIndex>::recover(&dir).expect("recover");
    let (rebuilt, summary) = rebuild_tenant(&ds, &index).expect("rebuild");
    assert_eq!(summary.from_store, index.len(), "store must rebuild from its own payloads");
    let reference_rccs: Vec<Rcc> = index
        .entries_full()
        .into_iter()
        .map(|s| s.rcc.expect("full payload"))
        .collect();
    let reference =
        TenantSnapshot::from_dataset(Dataset::new(ds.avails().to_vec(), reference_rccs));
    assert_same_answers(&rebuilt, &reference, scale);
    let rows = index.len();
    drop((index, rebuilt));

    let mut recover_ms = f64::INFINITY;
    let mut rebuild_ms = f64::INFINITY;
    let mut store_to_answer_ms = f64::INFINITY;
    let mut extract_to_answer_ms = f64::INFINITY;
    let mut extract_missing_rows = 0;
    for _ in 0..runs {
        // Store-rebuild path: recover + rebuild + first answer.
        let t0 = std::time::Instant::now();
        let (index, _) = DurableIndex::<FlatAvlIndex>::recover(&dir).expect("recover");
        let rec = t0.elapsed().as_secs_f64() * 1e3;
        let ((snap, _), reb) = time_ms(|| rebuild_tenant(&ds, &index).expect("rebuild"));
        let (_, ans) = time_ms(|| first_answer(&snap));
        recover_ms = recover_ms.min(rec);
        rebuild_ms = rebuild_ms.min(reb);
        store_to_answer_ms = store_to_answer_ms.min(rec + reb + ans);

        // Extract-reload baseline: recover (still needed for durability)
        // + from-extracts snapshot + first answer.
        let t1 = std::time::Instant::now();
        let (index, _) = DurableIndex::<FlatAvlIndex>::recover(&dir).expect("recover");
        let old_snap = TenantSnapshot::from_dataset(ds.clone());
        let _ = first_answer(&old_snap);
        extract_to_answer_ms =
            extract_to_answer_ms.min(t1.elapsed().as_secs_f64() * 1e3);
        extract_missing_rows = index.len() - old_snap.dataset.rccs().len();
    }
    let _ = std::fs::remove_dir_all(&dir);

    ScaleResult {
        scale,
        rows,
        ingested: ingests,
        store_bytes,
        recover_ms,
        rebuild_ms,
        store_to_answer_ms,
        extract_to_answer_ms,
        extract_missing_rows,
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|v| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
    };
    let scales: Vec<u32> = get("--scales")
        .unwrap_or_else(|| "1,4".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("--scales takes comma-separated integers"))
        .collect();
    let ingests: usize = get("--ingests")
        .map(|v| v.parse().expect("--ingests takes a number"))
        .unwrap_or(512);
    let runs: usize =
        get("--runs").map(|v| v.parse().expect("--runs takes a number")).unwrap_or(3);
    let out_path: Option<PathBuf> = get("--out").map(PathBuf::from);

    eprintln!("bench_restart: scales={scales:?}, ingests={ingests}, runs={runs}");
    let mut blocks = Vec::new();
    for &scale in &scales {
        let r = bench_scale(scale, ingests, runs);
        eprintln!(
            "  scale {:>2}x  {:>7} rows  {:>9} B  recover {:>7.1} ms  rebuild {:>7.1} ms  \
             store→answer {:>7.1} ms  extract→answer {:>7.1} ms (missing {} acked rows)",
            r.scale,
            r.rows,
            r.store_bytes,
            r.recover_ms,
            r.rebuild_ms,
            r.store_to_answer_ms,
            r.extract_to_answer_ms,
            r.extract_missing_rows
        );
        blocks.push(r.json());
    }
    let json = format!(
        "{{\"bench\":\"restart_recovery_to_first_answer\",\"cpu\":{{\"model\":\"{}\"}},\"runs\":{},\"ingests\":{},\"scales\":[{}]}}\n",
        cpu_model().replace('"', "'"),
        runs,
        ingests,
        blocks.join(",")
    );
    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("writing bench output");
            eprintln!("wrote {}", p.display());
        }
        None => print!("{json}"),
    }
}
