//! `bench_layout` — wall-clock and memory benchmark of the column-stored
//! index layouts (sorted event arrays, dual AVL) over the 11-step Status
//! Query sweep at 1x–20x RCC scale.
//!
//! Every timed arm is first checked against a from-scratch sweep over the
//! naive join, so a reported speedup can never come from a diverged code
//! path. Output is machine-readable JSON (see `scripts/bench.sh`, which
//! writes `BENCH_pr3.json`).
//!
//! ```text
//! bench_layout [--scales 1,5,10,20] [--runs N] [--out FILE]
//! ```

use domd_bench::util::{mb, mean_time_ms, scaled_dataset, time_ms};
use domd_data::Dataset;
use domd_index::{
    project_dataset, sweep_from_scratch, sweep_incremental, FlatAvlIndex, HeapSize,
    LogicalTimeIndex, NaiveJoinIndex, RowColumns, SortedArrayIndex, StatStructure,
};

const N_GROUPS: usize = 30;

struct Workload {
    projected: Vec<domd_index::LogicalRcc>,
    amounts: Vec<f64>,
    durations: Vec<f64>,
    groups: Vec<usize>,
    grid: Vec<f64>,
}

impl Workload {
    fn build(ds: &Dataset) -> Self {
        let projected = project_dataset(ds);
        let rccs = ds.rccs();
        Workload {
            projected,
            amounts: rccs.iter().map(|r| r.amount).collect(),
            durations: rccs.iter().map(|r| f64::from(r.duration_days())).collect(),
            groups: rccs
                .iter()
                .map(|r| r.rcc_type.index() * 10 + r.swlin.digit(1) as usize)
                .collect(),
            grid: (0..=10).map(|i| f64::from(i) * 10.0).collect(),
        }
    }

    fn cols(&self) -> RowColumns<'_> {
        RowColumns { amounts: &self.amounts, durations: &self.durations, groups: &self.groups }
    }
}

/// Agreement of two sweep traces (one `StatStructure` per grid point).
/// `bitwise` compares raw f64 bits — only valid between sweeps with the
/// same accumulation order (two from-scratch sweeps both visit ascending
/// row ids). The incremental sweep adds rows in window order, so its sums
/// associate differently; it is held to a 1e-9 relative tolerance instead
/// (counts stay exact either way).
fn traces_agree(a: &[StatStructure], b: &[StatStructure], bitwise: bool) -> bool {
    let close = |p: f64, q: f64| {
        if bitwise {
            p.to_bits() == q.to_bits()
        } else {
            (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
        }
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (0..N_GROUPS).all(|g| {
                let cells = [
                    (&x.active[g], &y.active[g]),
                    (&x.settled[g], &y.settled[g]),
                    (&x.created[g], &y.created[g]),
                ];
                cells.iter().all(|(p, q)| {
                    p.count.to_bits() == q.count.to_bits()
                        && close(p.sum_amount, q.sum_amount)
                        && close(p.sum_duration, q.sum_duration)
                })
            })
        })
}

struct ArmResult {
    name: &'static str,
    build_ms: f64,
    query_ms: f64,
    heap_mb: f64,
    identical: bool,
}

impl ArmResult {
    fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"build_ms\":{:.3},\"query_ms\":{:.3},\"heap_mb\":{:.3},\"identical\":{}}}",
            self.name, self.build_ms, self.query_ms, self.heap_mb, self.identical
        )
    }
}

fn trace_of(sweep: impl Fn(&mut Vec<StatStructure>)) -> Vec<StatStructure> {
    let mut t = Vec::new();
    sweep(&mut t);
    t
}

fn bench_arms(w: &Workload, runs: usize) -> Vec<ArmResult> {
    // Reference trace: the from-scratch sweep over the naive join, the
    // oracle every arm must reproduce.
    let reference = {
        let naive = NaiveJoinIndex::build(&w.projected);
        trace_of(|t| {
            sweep_from_scratch(&naive, w.cols(), N_GROUPS, &w.grid, |_, _, st| t.push(st.clone()));
        })
    };
    let mut out = Vec::new();

    let (sa, sa_build) = time_ms(|| SortedArrayIndex::build(&w.projected));
    let trace = trace_of(|t| {
        sweep_from_scratch(&sa, w.cols(), N_GROUPS, &w.grid, |_, _, st| t.push(st.clone()));
    });
    out.push(ArmResult {
        name: "sorted-array",
        build_ms: sa_build,
        query_ms: mean_time_ms(runs, || {
            sweep_from_scratch(&sa, w.cols(), N_GROUPS, &w.grid, |_, _, _| {})
        }),
        heap_mb: mb(sa.heap_bytes()),
        identical: traces_agree(&reference, &trace, true),
    });

    let (avl, avl_build) = time_ms(|| FlatAvlIndex::build(&w.projected));
    let trace = trace_of(|t| {
        sweep_incremental(&avl, w.cols(), N_GROUPS, &w.grid, |_, _, st| t.push(st.clone()));
    });
    out.push(ArmResult {
        name: "avl+incremental",
        build_ms: avl_build,
        query_ms: mean_time_ms(runs, || {
            sweep_incremental(&avl, w.cols(), N_GROUPS, &w.grid, |_, _, _| {})
        }),
        heap_mb: mb(avl.heap_bytes()),
        identical: traces_agree(&reference, &trace, false),
    });

    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
    };
    let scales: Vec<u32> = get("--scales")
        .unwrap_or_else(|| "1,5,10,20".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("--scales takes comma-separated integers"))
        .collect();
    let runs: usize = get("--runs").map(|v| v.parse().expect("--runs takes a number")).unwrap_or(3);
    let out_path = get("--out");

    eprintln!("bench_layout: scales={scales:?}, runs={runs}");
    let mut scale_blocks = Vec::new();
    for &scale in &scales {
        eprintln!("-- scale {scale}x --");
        let ds = scaled_dataset(scale);
        let w = Workload::build(&ds);
        let arms = bench_arms(&w, runs);
        for a in &arms {
            eprintln!(
                "  {:<16} build {:>9.1} ms  query {:>9.1} ms  heap {:>8.1} MB  identical={}",
                a.name, a.build_ms, a.query_ms, a.heap_mb, a.identical
            );
            assert!(a.identical, "{} diverged from the reference sweep", a.name);
        }
        let arm_json: Vec<String> = arms.iter().map(ArmResult::json).collect();
        scale_blocks.push(format!(
            "{{\"scale\":{},\"n_rccs\":{},\"arms\":[{}]}}",
            scale,
            w.projected.len(),
            arm_json.join(",")
        ));
    }
    let json = format!(
        "{{\"bench\":\"pr3_layout\",\"cpu\":{{\"model\":\"{}\",\"threads\":{}}},\"runs\":{},\"scales\":[{}]}}\n",
        cpu_model().replace('"', "'"),
        domd_runtime::available_threads(),
        runs,
        scale_blocks.join(",")
    );
    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("writing bench output");
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
}
