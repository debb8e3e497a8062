//! Epoch-pinned snapshot publication for copy-on-write serving state.
//!
//! A serving loop that maintains its state by copy-on-write needs two
//! guarantees from whatever publishes the next version:
//!
//! 1. **Pinned reads** — a request that starts against epoch `e` must see
//!    epoch `e` for its whole lifetime, even if ingest publishes `e + 1`
//!    mid-request. A torn read (half old columns, half new) must be
//!    impossible by construction, not by discipline.
//! 2. **Non-blocking reads** — pinning must never wait on a writer that is
//!    busy building the next epoch.
//!
//! [`EpochStore`] provides both with plain `std` primitives: the current
//! snapshot lives behind an `Arc` swapped under a mutex that is only ever
//! held for the duration of a pointer clone/store — never while a snapshot
//! is being *built*. Writers serialize among themselves on a separate
//! build lock (so no published epoch is ever lost to a concurrent-clone
//! race), clone the current snapshot **outside** the swap lock, mutate the
//! private clone, and then swap it in. Readers pin with one short lock
//! acquisition and afterwards hold an immutable `Arc` that no writer can
//! touch; the previous epoch is freed when its last pinned reader drops.
//!
//! The store is payload-generic (`EpochStore<S>`): `domd serve` publishes
//! a bundle of `StatusView` + dataset as one atomically-versioned unit,
//! and the property suite in `domd-serve` proves `to_bits`-identical reads
//! across concurrent swaps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A snapshot pinned at publication epoch `epoch`. The payload is shared,
/// immutable, and survives unchanged for as long as the pin is held.
#[derive(Debug)]
pub struct Pinned<S> {
    snapshot: Arc<S>,
    epoch: u64,
}

impl<S> Pinned<S> {
    /// The publication epoch this pin observes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared payload (also reachable via `Deref`).
    pub fn snapshot(&self) -> &S {
        &self.snapshot
    }

    /// Clones the underlying `Arc` (cheap; shares the same snapshot).
    pub fn share(&self) -> Arc<S> {
        Arc::clone(&self.snapshot)
    }
}

impl<S> Clone for Pinned<S> {
    fn clone(&self) -> Self {
        Pinned { snapshot: Arc::clone(&self.snapshot), epoch: self.epoch }
    }
}

impl<S> std::ops::Deref for Pinned<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.snapshot
    }
}

/// Atomically-swapped epoch snapshots: lock-free-in-spirit pinned reads
/// (one pointer clone under a lock that writers hold only for a pointer
/// store), serialized copy-on-write publication for writers.
#[derive(Debug)]
pub struct EpochStore<S> {
    /// Swap point. Held only for `Arc` clone (readers) or store (writers).
    current: Mutex<Arc<S>>,
    /// Serializes snapshot *construction* so concurrent writers cannot
    /// both clone epoch `e` and silently discard each other's `e + 1`.
    build: Mutex<()>,
    /// Publication count; epoch `n` is the snapshot after `n` publishes.
    epoch: AtomicU64,
}

impl<S> EpochStore<S> {
    /// Wraps `initial` as epoch 0.
    pub fn new(initial: S) -> Self {
        EpochStore {
            current: Mutex::new(Arc::new(initial)),
            build: Mutex::new(()),
            epoch: AtomicU64::new(0),
        }
    }

    fn swap_lock(&self) -> std::sync::MutexGuard<'_, Arc<S>> {
        // domd-lint: allow(no-panic) — the swap lock is held only across a pointer clone/store, which cannot panic, so it is never poisoned
        self.current.lock().expect("epoch swap lock")
    }

    /// Pins the current snapshot. The returned [`Pinned`] keeps observing
    /// the same epoch no matter how many publishes happen after it.
    pub fn pin(&self) -> Pinned<S> {
        let guard = self.swap_lock();
        let snapshot = Arc::clone(&guard);
        // Read the epoch while still under the swap lock so the pair
        // (snapshot, epoch) is consistent even against a racing publish.
        let epoch = self.epoch.load(Ordering::Acquire);
        drop(guard);
        Pinned { snapshot, epoch }
    }

    /// The current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Replaces the snapshot wholesale and returns the new epoch. Pins
    /// taken before the call keep their old snapshot.
    pub fn publish(&self, next: S) -> u64 {
        let _build = self.build_lock();
        self.install(Arc::new(next))
    }

    /// Copy-on-write publication: clones the current snapshot, lets
    /// `mutate` edit the private clone (no reader can observe the
    /// intermediate states), swaps it in, and returns the new epoch plus
    /// `mutate`'s result. Writers serialize here; readers never wait.
    pub fn update<R>(&self, mutate: impl FnOnce(&mut S) -> R) -> (u64, R)
    where
        S: Clone,
    {
        let _build = self.build_lock();
        // Clone outside the swap lock: building the next epoch may be
        // expensive and must never stall `pin`.
        let mut next = (*self.pin().share()).clone();
        let out = mutate(&mut next);
        (self.install(Arc::new(next)), out)
    }

    fn build_lock(&self) -> std::sync::MutexGuard<'_, ()> {
        // domd-lint: allow(no-panic) — a poisoned build lock means a writer already panicked; propagating is the only sound exit
        self.build.lock().expect("epoch build lock")
    }

    fn install(&self, next: Arc<S>) -> u64 {
        let mut guard = self.swap_lock();
        *guard = next;
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        drop(guard);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::RccArena;
    use crate::delta::RccDelta;
    use crate::status_query::{StatusQuery, StatusView};
    use domd_data::generator::{generate, GeneratorConfig};
    use domd_data::rcc::RccStatus;

    fn small_view() -> (domd_data::dataset::Dataset, StatusView) {
        let ds = generate(&GeneratorConfig { n_avails: 8, target_rccs: 600, scale: 1, seed: 11 });
        let view = StatusView::from_arena(Arc::new(RccArena::from_dataset(&ds)));
        (ds, view)
    }

    fn count_all(view: &StatusView) -> usize {
        let q = StatusQuery {
            rcc_type: None,
            swlin_prefix: None,
            status: RccStatus::Created,
            t_star: f64::INFINITY,
        };
        view.aggregate(&q).count
    }

    /// An insert of a copy of the dataset's first row.
    fn insert_delta(ds: &domd_data::dataset::Dataset) -> RccDelta {
        let rcc = ds.rccs()[0].clone();
        let avail = ds.avail(rcc.avail).unwrap().clone();
        RccDelta::Insert { rcc, avail }
    }

    #[test]
    fn pins_survive_publishes() {
        let (ds, view) = small_view();
        let rows = count_all(&view);
        let store = EpochStore::new(view);
        let old = store.pin();
        assert_eq!(old.epoch(), 0);

        let insert = insert_delta(&ds);
        let (epoch, row) = store.update(|v| v.apply_delta(&insert));
        assert_eq!(epoch, 1);
        assert!(row.expect("insert applies") as usize >= rows);

        // The pre-swap pin still sees the old epoch's contents.
        assert_eq!(count_all(old.snapshot()), rows);
        assert_eq!(old.epoch(), 0);
        // A fresh pin sees the new epoch.
        let new = store.pin();
        assert_eq!(new.epoch(), 1);
        assert_eq!(count_all(new.snapshot()), rows + 1);
    }

    #[test]
    fn concurrent_publishes_never_lose_updates() {
        let (ds, view) = small_view();
        let base = count_all(&view);
        let store = EpochStore::new(view);
        let insert = insert_delta(&ds);
        const WRITERS: usize = 4;
        const EACH: usize = 8;
        domd_runtime::run_workers(WRITERS, |_| {
            for _ in 0..EACH {
                store.update(|v| v.apply_delta(&insert));
            }
        });
        let total = WRITERS * EACH;
        assert_eq!(store.epoch(), total as u64);
        assert_eq!(count_all(store.pin().snapshot()), base + total);
    }

    #[test]
    fn pinned_reads_are_bit_identical_under_swaps() {
        let (ds, view) = small_view();
        let q = StatusQuery {
            rcc_type: None,
            swlin_prefix: None,
            status: RccStatus::Active,
            t_star: 0.75,
        };
        let expect = view.aggregate(&q);
        let store = EpochStore::new(view);
        let pinned = store.pin();
        let insert = insert_delta(&ds);
        for _ in 0..5 {
            store.update(|v| v.apply_delta(&insert));
            let got = pinned.aggregate(&q);
            assert_eq!(got.count, expect.count);
            assert_eq!(got.sum_amount.to_bits(), expect.sum_amount.to_bits());
            assert_eq!(got.sum_duration.to_bits(), expect.sum_duration.to_bits());
        }
    }
}
