//! Readers for the Linux `/proc` files the benchmark's diagnostics use:
//! host steal (`/proc/stat`), process CPU time (`/proc/self/stat`) and
//! peak resident memory (`/proc/self/status`, reset through
//! `/proc/self/clear_refs`).

/// Clock ticks per second of `/proc` CPU counters. Linux fixes `USER_HZ`
/// at 100 in its user-space ABI on the platforms this benchmark targets.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// Aggregate CPU counters of the whole host, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostCpu {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Time the hypervisor ran something else while this guest wanted a CPU.
    pub steal: u64,
}

impl HostCpu {
    /// Steal as a share of all ticks elapsed since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`. Guest time is already
/// counted inside user time, so it is not added again.
pub fn parse_proc_stat(text: &str) -> Option<HostCpu> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if fields.len() < 8 {
        return None;
    }
    Some(HostCpu {
        total: fields[..8].iter().sum(),
        steal: fields[7],
    })
}

/// Parses user + system CPU ticks of a process from its `/proc/<pid>/stat`
/// line. The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_self_stat(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Parses `VmHWM` (peak resident set, kB) from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Parses a thread's on-CPU time (ns) from its `schedstat` line. The
/// kernel charges the thread only for time it actually ran, so time the
/// hypervisor stole from the vCPU is not in it.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The calling thread's `/proc/thread-self/schedstat`, kept open so each
/// reading is one `pread`.
#[derive(Debug)]
pub struct ThreadCpu(std::fs::File);

impl ThreadCpu {
    /// Opens the calling thread's counters (they stay bound to it).
    pub fn open() -> Option<Self> {
        std::fs::File::open("/proc/thread-self/schedstat")
            .ok()
            .map(ThreadCpu)
    }

    /// The thread's on-CPU time so far, in ns.
    pub fn ns(&self) -> Option<u64> {
        use std::os::unix::fs::FileExt;
        let mut buf = [0u8; 96];
        let n = self.0.read_at(&mut buf, 0).ok()?;
        parse_schedstat_ns(std::str::from_utf8(&buf[..n]).ok()?)
    }
}

/// Host counters now.
pub fn host_cpu() -> Option<HostCpu> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// This process's user + system CPU seconds so far (all threads).
pub fn process_cpu_seconds() -> Option<f64> {
    let ticks = parse_self_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)?;
    Some(ticks as f64 / TICKS_PER_SECOND)
}

/// This process's peak resident set in MB since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> Option<f64> {
    let kb = parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)?;
    Some(kb as f64 / 1024.0)
}

/// Resets the peak resident set to the current one (`5` to `clear_refs`).
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}
