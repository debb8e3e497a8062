//! # domd-runtime
//!
//! The deterministic parallel execution layer shared by every hot path of
//! the framework: the sharded feature-engine sweep, pooled per-step model
//! training, per-tree forest fits, and batch Status Query execution.
//!
//! Design contract (enforced by the equivalence tests of each consumer):
//!
//! * **Bounded** — [`par_map`] runs at most `threads` concurrent workers
//!   (the calling thread participates, so at most `threads - 1` OS threads
//!   are spawned per call), never one thread per item.
//! * **Deterministic** — results are merged back in input order, so the
//!   output of `par_map(t, items, f)` is bit-identical to the sequential
//!   `items.iter().enumerate().map(f)` for every `t`, provided `f` is a
//!   pure function of its arguments.
//! * **Non-nesting** — a `par_map` issued from inside a pool worker runs
//!   sequentially on that worker. Depth-1 parallelism keeps the global
//!   concurrency at the configured cap even when parallel code calls into
//!   other parallel code (e.g. pooled step training calling GBT fits).
//! * **Configurable** — the effective thread count resolves, in order:
//!   an explicit argument, [`set_threads`] (the CLI's `--threads`), the
//!   `DOMD_THREADS` environment variable, then
//!   `std::thread::available_parallelism()`. `threads = 1` is the exact
//!   sequential fallback on every path.

#![deny(unsafe_code)]
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Global override installed by `--threads` / [`set_threads`]. 0 = auto.
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Concurrently live pool workers (all pools), and the high-water mark.
/// Test instrumentation for the "never exceeds the cap" guarantee.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);
static PEAK_WORKERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while the current thread is executing inside a pool worker;
    /// nested [`par_map`] calls then degrade to sequential execution.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Hardware parallelism (1 when undetectable).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Installs a process-wide thread-count override (the CLI's `--threads`).
/// `0` restores auto-detection.
pub fn set_threads(n: usize) {
    CONFIGURED.store(n, Ordering::SeqCst);
}

/// The effective worker cap: [`set_threads`] override, else `DOMD_THREADS`,
/// else [`available_threads`]. Always at least 1.
pub fn threads() -> usize {
    let configured = CONFIGURED.load(Ordering::SeqCst);
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("DOMD_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available_threads()
}

/// Resets the worker high-water mark (see [`peak_workers`]).
pub fn reset_peak_workers() {
    PEAK_WORKERS.store(0, Ordering::SeqCst);
}

/// The maximum number of pool workers that were ever live at once since the
/// last [`reset_peak_workers`], across all `par_map` calls in the process.
pub fn peak_workers() -> usize {
    PEAK_WORKERS.load(Ordering::SeqCst)
}

/// RAII registration of one live worker in the concurrency accounting.
struct WorkerGuard {
    was_in_pool: bool,
}

impl WorkerGuard {
    fn enter() -> Self {
        let live = ACTIVE_WORKERS.fetch_add(1, Ordering::SeqCst) + 1;
        PEAK_WORKERS.fetch_max(live, Ordering::SeqCst);
        let was_in_pool = IN_POOL.with(|f| f.replace(true));
        WorkerGuard { was_in_pool }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_POOL.with(|f| f.set(self.was_in_pool));
        ACTIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Maps `f` over `items` with at most `threads` concurrent workers and
/// returns the results in input order.
///
/// Work distribution is dynamic (an atomic cursor hands out items), but the
/// merge is by original index, so the output is independent of scheduling:
/// bit-identical to the sequential map for any thread count. `threads <= 1`,
/// a single item, or a call from inside another pool worker all take the
/// purely sequential path with zero thread spawns.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    if workers == 1 || n <= 1 || IN_POOL.with(|flag| flag.get()) {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers - 1)
            .map(|_| scope.spawn(|| run_worker(&cursor, items, &f)))
            .collect();
        // The calling thread is the final worker.
        let mut parts = vec![run_worker(&cursor, items, &f)];
        parts.extend(handles.into_iter().map(|h| match h.join() {
            Ok(part) => part,
            // Re-raise the worker's own panic payload on the calling
            // thread instead of masking it as "pool worker panicked" —
            // the original message is the one that names the failing item.
            Err(payload) => std::panic::resume_unwind(payload),
        }));
        parts
    });

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for part in &mut parts {
        for (i, r) in part.drain(..) {
            debug_assert!(out[i].is_none(), "item {i} produced twice");
            out[i] = Some(r);
        }
    }
    // domd-lint: allow(no-panic) — the cursor hands out each index once; a hole means the scope above lost a part
    out.into_iter().map(|r| r.expect("every item visited exactly once")).collect()
}

fn run_worker<T, R, F>(cursor: &AtomicUsize, items: &[T], f: &F) -> Vec<(usize, R)>
where
    F: Fn(usize, &T) -> R,
{
    let _guard = WorkerGuard::enter();
    let mut out = Vec::new();
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            return out;
        }
        out.push((i, f(i, &items[i])));
    }
}

/// Runs `roles` copies of `f` concurrently (each receives its role index)
/// and returns when every role has finished. The calling thread executes
/// role `0`, so at most `roles - 1` OS threads are spawned. Each role is
/// registered in the worker accounting ([`peak_workers`]) and marked
/// in-pool, so `par_map` calls issued from inside a role run sequentially
/// — a worker group never multiplies the configured concurrency.
///
/// A panic in any role is re-raised on the calling thread with its
/// original payload. Called from inside a pool worker, the roles run
/// sequentially in index order on the calling thread; blocking
/// rendezvous between roles (e.g. one role feeding a queue another
/// drains) therefore must only be used from non-pool threads.
pub fn run_workers<F>(roles: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let roles = roles.max(1);
    if roles == 1 || IN_POOL.with(|flag| flag.get()) {
        for role in 0..roles {
            f(role);
        }
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..roles)
            .map(|role| {
                scope.spawn(move || {
                    let _guard = WorkerGuard::enter();
                    f(role);
                })
            })
            .collect();
        {
            let _guard = WorkerGuard::enter();
            f(0);
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// A work cycle was abandoned because the caller's cancel predicate fired.
/// `completed` counts items whose results were produced before the
/// cancellation was observed (they are discarded — partial output would
/// depend on scheduling and break the determinism contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    pub completed: usize,
}

/// [`par_map`] with a cooperative cancel predicate, polled before every
/// item on every worker. When `cancel()` first returns `true`, all workers
/// stop taking new work and the call returns `Err(Cancelled)`; otherwise
/// the result is bit-identical to `par_map(threads, items, f)`.
///
/// This is the deadline hook for expensive sweeps: the predicate is
/// typically "deadline exceeded", so an admitted request burns at most one
/// item of work per worker past its budget instead of finishing the sweep.
pub fn par_map_cancellable<T, R, F, C>(
    threads: usize,
    items: &[T],
    cancel: C,
    f: F,
) -> Result<Vec<R>, Cancelled>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    C: Fn() -> bool + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    let done = AtomicUsize::new(0);
    if workers == 1 || n <= 1 || IN_POOL.with(|flag| flag.get()) {
        let mut out = Vec::with_capacity(n);
        for (i, x) in items.iter().enumerate() {
            if cancel() {
                return Err(Cancelled { completed: done.load(Ordering::Relaxed) });
            }
            out.push(f(i, x));
            done.fetch_add(1, Ordering::Relaxed);
        }
        return Ok(out);
    }

    let cursor = AtomicUsize::new(0);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let worker = |out: &mut Vec<(usize, R)>| {
        let _guard = WorkerGuard::enter();
        loop {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            if cancel() {
                stop.store(true, Ordering::Relaxed);
                return;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            out.push((i, f(i, &items[i])));
            done.fetch_add(1, Ordering::Relaxed);
        }
    };
    let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers - 1)
            .map(|_| {
                scope.spawn(|| {
                    let mut part = Vec::new();
                    worker(&mut part);
                    part
                })
            })
            .collect();
        let mut parts = vec![{
            let mut part = Vec::new();
            worker(&mut part);
            part
        }];
        parts.extend(handles.into_iter().map(|h| match h.join() {
            Ok(part) => part,
            Err(payload) => std::panic::resume_unwind(payload),
        }));
        parts
    });

    if stop.load(Ordering::Relaxed) {
        return Err(Cancelled { completed: done.load(Ordering::Relaxed) });
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for part in &mut parts {
        for (i, r) in part.drain(..) {
            out[i] = Some(r);
        }
    }
    // domd-lint: allow(no-panic) — no worker observed the cancel flag, so the cursor handed out every index exactly once
    Ok(out.into_iter().map(|r| r.expect("every item visited exactly once")).collect())
}

/// An item was rejected by [`BoundedQueue::try_push`] because the queue
/// was at capacity (or closed). The rejected item rides along so the
/// caller can answer the producer with a typed shed instead of dropping
/// the request on the floor.
#[derive(Debug)]
pub struct QueueRejected<T> {
    pub item: T,
    pub depth: usize,
    pub capacity: usize,
    pub closed: bool,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    peak: usize,
}

/// A blocking MPMC queue with a hard capacity: `try_push` never blocks and
/// never grows the buffer past `capacity` — at capacity it hands the item
/// back as a [`QueueRejected`], making backpressure explicit and typed
/// rather than silent. `pop` blocks until an item arrives or the queue is
/// closed and drained, which is the worker-shutdown signal.
///
/// The queue is the admission-control primitive behind `domd serve`; it
/// lives here because `crates/runtime` is the one place the analyzer
/// permits blocking thread rendezvous, and because its peak-depth
/// accounting is part of the bounded-memory proof in the chaos suite.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    available: Condvar,
}

impl<T> BoundedQueue<T> {
    /// An empty queue that will never hold more than `capacity` items
    /// (`capacity` is clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                peak: 0,
            }),
            capacity,
            available: Condvar::new(),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        // domd-lint: allow(no-panic) — a poisoned queue lock means a worker already panicked; propagating is the only sound exit
        self.state.lock().expect("queue lock")
    }

    /// Enqueues `item`, or returns it inside [`QueueRejected`] when the
    /// queue is full or closed. On success returns the depth after the
    /// push. Never blocks.
    pub fn try_push(&self, item: T) -> Result<usize, QueueRejected<T>> {
        let mut st = self.locked();
        if st.closed || st.items.len() >= self.capacity {
            let depth = st.items.len();
            let closed = st.closed;
            drop(st);
            return Err(QueueRejected { item, depth, capacity: self.capacity, closed });
        }
        st.items.push_back(item);
        let depth = st.items.len();
        st.peak = st.peak.max(depth);
        drop(st);
        self.available.notify_one();
        Ok(depth)
    }

    /// Dequeues the oldest item, blocking while the queue is empty but
    /// open. Returns `None` once the queue is closed *and* drained — the
    /// clean-shutdown signal for worker loops.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.locked();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            // domd-lint: allow(no-panic) — a poisoned queue lock means a worker already panicked; propagating is the only sound exit
            st = self.available.wait(st).expect("queue lock");
        }
    }

    /// Closes the queue: future pushes are rejected, and `pop` returns
    /// `None` once the backlog drains. Idempotent.
    pub fn close(&self) {
        self.locked().closed = true;
        self.available.notify_all();
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.locked().items.len()
    }

    /// True when empty (the queue may still be open).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hard capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// High-water mark of the depth since construction; the chaos suite
    /// asserts this never exceeds [`Self::capacity`] under storm load.
    pub fn peak_depth(&self) -> usize {
        self.locked().peak
    }

    /// True once [`Self::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.locked().closed
    }
}

/// Splits `0..n` into at most `parts` contiguous, near-equal, non-empty
/// ranges — the shard layout used when work must stay contiguous (e.g. the
/// feature sweep shards whole avail ranges so merged rows keep their
/// original order).
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 3 + i as u64).collect();
        for t in [1, 2, 3, 8, 1000] {
            let par = par_map(t, &items, |i, x| x * 3 + i as u64);
            assert_eq!(par, seq, "threads={t}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(4, &[] as &[u8], |_, x| *x), Vec::<u8>::new());
        assert_eq!(par_map(4, &[9u8], |i, x| (i, *x)), vec![(0, 9)]);
    }

    #[test]
    fn nested_par_map_runs_sequentially() {
        // Outer parallelism 2, inner requests 8: the inner calls must not
        // spawn (they run inside pool workers), so the peak stays <= 2.
        reset_peak_workers();
        let outer: Vec<usize> = (0..4).collect();
        let sums = par_map(2, &outer, |_, &o| {
            let inner: Vec<usize> = (0..64).collect();
            par_map(8, &inner, |_, &x| x + o).iter().sum::<usize>()
        });
        assert_eq!(sums.len(), 4);
        assert!(peak_workers() <= 2, "peak {} exceeded the cap", peak_workers());
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 2, 7, 100] {
            for parts in [1usize, 2, 3, 64] {
                let ranges = chunk_ranges(n, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                assert!(ranges.iter().all(|r| !r.is_empty()));
                assert!(ranges.len() <= parts.max(1));
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
            }
        }
    }

    #[test]
    fn par_map_cancellable_matches_par_map_when_not_cancelled() {
        let items: Vec<u64> = (0..311).collect();
        let seq: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 7 + i as u64).collect();
        for t in [1, 2, 3, 8] {
            let got = par_map_cancellable(t, &items, || false, |i, x| x * 7 + i as u64);
            assert_eq!(got.as_deref(), Ok(seq.as_slice()), "threads={t}");
        }
    }

    #[test]
    fn par_map_cancellable_stops_on_cancel() {
        let items: Vec<u64> = (0..10_000).collect();
        let seen = AtomicUsize::new(0);
        for t in [1, 4] {
            seen.store(0, Ordering::SeqCst);
            let got = par_map_cancellable(
                t,
                &items,
                || seen.load(Ordering::SeqCst) >= 16,
                |_, &x| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    x
                },
            );
            let err = got.expect_err("must cancel");
            assert!(err.completed < items.len(), "threads={t} ran to completion");
        }
    }

    #[test]
    fn bounded_queue_sheds_at_capacity_and_tracks_peak() {
        let q: BoundedQueue<u32> = BoundedQueue::with_capacity(3);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.try_push(3).unwrap(), 3);
        let rej = q.try_push(4).unwrap_err();
        assert_eq!((rej.item, rej.depth, rej.capacity, rej.closed), (4, 3, 3, false));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(5).unwrap(), 3);
        assert_eq!(q.peak_depth(), 3);
        q.close();
        let rej = q.try_push(6).unwrap_err();
        assert!(rej.closed);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(5));
        assert_eq!(q.pop(), None, "closed and drained");
        assert_eq!(q.peak_depth(), 3);
    }

    #[test]
    fn run_workers_rendezvous_through_queue() {
        let q: BoundedQueue<usize> = BoundedQueue::with_capacity(4);
        let total = AtomicUsize::new(0);
        run_workers(4, |role| {
            if role == 0 {
                for i in 1..=100 {
                    loop {
                        match q.try_push(i) {
                            Ok(_) => break,
                            Err(_) => std::thread::yield_now(),
                        }
                    }
                }
                q.close();
            } else {
                while let Some(v) = q.pop() {
                    total.fetch_add(v, Ordering::SeqCst);
                }
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 5050);
        assert!(q.peak_depth() <= 4, "peak {} exceeded capacity", q.peak_depth());
    }

    #[test]
    fn run_workers_counts_toward_peak_and_blocks_nested_parallelism() {
        reset_peak_workers();
        let inner_peaks = Mutex::new(Vec::new());
        run_workers(2, |_| {
            let items: Vec<usize> = (0..64).collect();
            let r = par_map(8, &items, |_, &x| x * 2);
            assert_eq!(r[63], 126);
            inner_peaks.lock().unwrap().push(peak_workers());
        });
        assert!(peak_workers() <= 2, "peak {} exceeded role count", peak_workers());
    }

    #[test]
    fn threads_resolution_prefers_override() {
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
