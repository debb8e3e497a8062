//! Self-tests of the benchmark's own measurement code.

use domd_perfbench::procfs::{
    parse_proc_stat, parse_schedstat_ns, parse_self_stat, parse_vm_hwm_kb, HostCpu,
};
use domd_perfbench::stats::{median, percentile};
use domd_perfbench::trace::{layer_totals, merge, self_times, unattributed, Span};

#[test]
fn tail_percentile_needs_ten_samples_beyond_its_rank() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    // Rank 90 of 100 leaves exactly 10 beyond it.
    assert_eq!(percentile(&samples, 0.9), Some(90.0));
    // p99 of 100 samples has 1 beyond it: unsupported.
    assert_eq!(percentile(&samples, 0.99), None);
    // 99 samples: rank 90 (ceil 89.1) leaves 9 beyond.
    assert_eq!(percentile(&samples[..99], 0.9), None);
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn failures_count_as_infinite_latency() {
    let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
    // Replace the 15 fastest requests by failures: they now sort last.
    for s in samples.iter_mut().take(15) {
        *s = f64::INFINITY;
    }
    assert_eq!(percentile(&samples, 0.9), Some(f64::INFINITY));
    // Median of 16..=100 followed by 15 infinities: rank 50 is 65.
    assert_eq!(median(&samples), Some(65.0));
}

#[test]
fn median_is_reported_for_any_sample_count() {
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}

fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
    Span {
        name,
        parent,
        start,
        end,
        request: 1,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    // request [0,100] > execute [10,90] > aggregate [20,50] > pin [20,25]
    let spans = vec![
        span("request", None, 0, 100),
        span("serve.execute", Some(0), 10, 90),
        span("index.aggregate", Some(1), 20, 50),
        span("index.pin", Some(2), 20, 25),
        span("serve.render", Some(0), 90, 98),
    ];
    assert_eq!(
        self_times(&spans),
        vec![100 - 80 - 8, 80 - 30, 30 - 5, 5, 8]
    );
    let totals = layer_totals(&spans);
    assert_eq!(totals["index.aggregate"].calls, 1);
    assert_eq!(totals["index.aggregate"].self_time, 25);
    // Containers are not layers: their self time is unattributed.
    let (roots, unexplained) = unattributed(&spans, "request", &["serve.execute"]);
    assert_eq!(roots, 100);
    // Trees under another root name are left out.
    assert_eq!(unattributed(&spans, "restart", &["serve.execute"]), (0, 0));
    assert_eq!(unexplained, 12 + 50);
}

#[test]
fn replayed_children_subtract_by_duration() {
    // A replayed child runs after its parent closed; its duration still
    // counts against the parent, and may exceed it.
    let spans = vec![
        span("request", None, 0, 100),
        span("serve.execute", Some(0), 0, 100),
        span("index.aggregate", Some(1), 150, 190),
        span("index.pin", Some(1), 190, 300),
    ];
    assert_eq!(self_times(&spans), vec![0, 100 - 40 - 110, 40, 110]);
    let (_, unexplained) = unattributed(&spans, "request", &["serve.execute"]);
    assert_eq!(unexplained, 100 - 150);
}

#[test]
fn merge_rebases_parent_indices() {
    let a = vec![
        span("request", None, 0, 10),
        span("serve.parse", Some(0), 1, 2),
    ];
    let b = vec![
        span("request", None, 0, 10),
        span("serve.render", Some(0), 8, 9),
    ];
    let merged = merge(vec![a, b]);
    assert_eq!(merged[3].parent, Some(2));
    assert_eq!(merged[1].parent, Some(0));
}

#[test]
fn proc_stat_cpu_line_parses_total_and_steal() {
    let text = "cpu  84316 0 6948 658501 4564 0 560 9636 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
    let cpu = parse_proc_stat(text).unwrap();
    assert_eq!(cpu.steal, 9636);
    assert_eq!(cpu.total, 84316 + 6948 + 658501 + 4564 + 560 + 9636);
    let later = HostCpu {
        total: cpu.total + 200,
        steal: cpu.steal + 30,
    };
    assert!((later.steal_share_since(&cpu) - 0.15).abs() < 1e-12);
    assert_eq!(cpu.steal_share_since(&cpu), 0.0);
    assert!(parse_proc_stat("cpu0 1 2 3\n").is_none());
    assert!(parse_proc_stat("cpu  1 2 3\n").is_none());
}

#[test]
fn self_stat_counts_fields_after_the_command_name() {
    // A command name with spaces and a ')' must not shift the fields.
    let text = "8672 (my (odd) bin) R 8626 8672 8626 0 -1 4194304 102 0 0 0 250 37 0 0 20 0 1";
    assert_eq!(parse_self_stat(text), Some(287));
    assert!(parse_self_stat("8672 (cat) R 1 2").is_none());
}

#[test]
fn status_vm_hwm_parses_kilobytes() {
    let text = "Name:\tx\nVmPeak:\t  20000 kB\nVmHWM:\t   13664 kB\nVmRSS:\t   13000 kB\n";
    assert_eq!(parse_vm_hwm_kb(text), Some(13664));
    assert!(parse_vm_hwm_kb("Name:\tx\n").is_none());
}

#[test]
fn schedstat_parses_on_cpu_nanoseconds() {
    assert_eq!(parse_schedstat_ns("142949 0 1\n"), Some(142_949));
    assert_eq!(parse_schedstat_ns("9000000000 12 345"), Some(9_000_000_000));
    assert!(parse_schedstat_ns("").is_none());
    assert!(parse_schedstat_ns("x 1 2").is_none());
}
