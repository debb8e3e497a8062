//! In-memory spans for the traced run.
//!
//! A span records one timed public call: name, start, end, the span that
//! caused it, and the request it belongs to. Spans stay in memory while
//! the benchmark runs and are written out once at exit.
//!
//! A layer's self time is its span's duration minus the durations of its
//! direct children. For calls timed in place the children lie inside the
//! parent's interval, so this equals "minus the part of the interval the
//! children cover". The handler internals of `ServeCore::execute` and a
//! few restart calls are private, so the traced run replays them through
//! the crates' public calls right after the served reply and hangs those
//! spans under the served span; their durations, not their intervals,
//! are what the parent's self time subtracts.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `index.aggregate`.
    pub name: &'static str,
    /// Index of the causing span in the same recorder, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// The request (or restart) this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder owned by one client thread. A disabled recorder records
/// nothing and reads no clock, so untraced requests pay nothing for it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    request: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder measuring from `origin` (shared by all recorders of a
    /// run, so their spans share one time axis).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            enabled: false,
            request: 0,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the following spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the following spans with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns `None` when
    /// recording is off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
            request: self.request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now();
            self.spans[id].end = end;
        }
    }

    /// Renames a recorded span (e.g. once a cache lookup is known to have
    /// hit or missed).
    pub fn rename(&mut self, id: Option<usize>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Hands over the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates recorders' spans into one list, rebasing parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span in ns: its duration minus its direct
/// children's durations. Signed: a replayed child can take longer than
/// the private work it stands for.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.duration() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration() as i64;
        }
    }
    out
}

/// Per-name totals: call count, summed duration and summed self time (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations.
    pub total: u64,
    /// Summed self times.
    pub self_time: i64,
}

/// Totals per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total += s.duration();
        t.self_time += own;
    }
    out
}

/// End-to-end time not explained by any layer, over the trees whose root
/// is named `root`: the summed root durations minus the self times of
/// every span below them that is not a container (a span that only
/// groups calls whose own work is private, such as `serve.execute`).
/// Returns `(root ns, unattributed ns)`.
pub fn unattributed(spans: &[Span], root: &str, containers: &[&str]) -> (u64, i64) {
    let selfs = self_times(spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut roots = 0u64;
    let mut attributed = 0i64;
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        if spans[root_of(i)].name != root {
            continue;
        }
        if s.parent.is_none() {
            roots += s.duration();
        } else if !containers.contains(&s.name) {
            attributed += own;
        }
    }
    (roots, roots as i64 - attributed)
}

/// Writes spans as tab-separated lines: id, parent (or `-`), request,
/// name, start ns, end ns.
pub fn write_tsv(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.request, s.name, s.start, s.end
        )?;
    }
    Ok(())
}
