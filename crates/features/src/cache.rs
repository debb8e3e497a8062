//! Memoizing snapshot cache of full per-avail feature rows.
//!
//! **Read by nothing in the product.** Every online prediction takes the
//! projected path ([`crate::engine::FeatureEngine::project_for_avail`]),
//! which reads an avail's partition once per request and memoizes
//! nothing. This module stays only because the benchmark harness
//! (`perfbench`) still compiles against [`FeatureCache`] to mirror the
//! route `domd serve` once took; it goes, with `domd_index::cache`, once
//! that harness stops naming it.
//!
//! [`FeatureCache`] memoizes full rows
//! ([`crate::engine::FeatureEngine::features_for_avail_at`]) in a
//! [`domd_index::LruCache`] keyed on `(avail, t* bits, epoch)`.
//!
//! **Invalidation** is epoch-based: the cache is bound to one dataset
//! snapshot; whoever mutates the dataset (dynamic RCC maintenance,
//! re-censoring) calls [`FeatureCache::invalidate`], which bumps the epoch
//! embedded in every future key — stale snapshots can never be looked up
//! again and age out of the LRU. An ingest that knows which avails it
//! touched calls [`FeatureCache::invalidate_avails`] instead, which drops
//! only their snapshots.
//!
//! **Bit-identity**: a miss stores the exact `Vec<f64>` the cold path
//! produced and a hit returns it verbatim (shared via `Arc`, never
//! recomputed), so cached and uncached serving emit identical bits.

use crate::engine::FeatureEngine;
use domd_data::dataset::Dataset;
use domd_data::AvailId;
use domd_index::{CacheStats, HeapSize, LruCache, DEFAULT_CACHE_CAPACITY};
use std::sync::Arc;

/// Key of one memoized per-avail feature snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureKey {
    /// The avail the snapshot describes.
    pub avail: u32,
    /// Logical timestamp as raw bits (`f64` is not `Hash`).
    pub t_bits: u64,
    /// Dataset epoch the snapshot was computed under.
    pub epoch: u64,
}

/// An LRU of per-avail feature vectors with epoch-based invalidation.
/// No serving path reads it; it stays while `perfbench` compiles
/// against it (see the module docs).
///
/// One cache serves one `(FeatureEngine, Dataset)` pair: the key does not
/// encode the catalog or dataset identity, only the epoch — rebind by
/// calling [`FeatureCache::invalidate`] (or building a fresh cache).
#[derive(Debug)]
pub struct FeatureCache {
    cache: LruCache<FeatureKey, Arc<[f64]>>,
    epoch: u64,
    /// Feature-vector width, recorded on first insert (for heap accounting).
    width: usize,
}

impl Default for FeatureCache {
    fn default() -> Self {
        FeatureCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl FeatureCache {
    /// An empty cache holding at most `capacity` snapshots.
    pub fn new(capacity: usize) -> Self {
        FeatureCache { cache: LruCache::new(capacity), epoch: 0, width: 0 }
    }

    /// The current dataset epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Declares the bound dataset changed: bumps the epoch so every
    /// memoized snapshot is dead on arrival.
    pub fn invalidate(&mut self) {
        self.epoch += 1;
    }

    /// Surgical invalidation for a classified delta: drops only the
    /// snapshots of the given avails — an RCC delta changes the features
    /// of exactly its own avail — keeping everything else warm under the
    /// *same* epoch. Returns `(dropped, retained)`. Callers that cannot
    /// classify a mutation must use [`FeatureCache::invalidate`] instead
    /// (degraded, never silently stale).
    pub fn invalidate_avails(&mut self, avails: &[AvailId]) -> (usize, usize) {
        self.cache.retain_rekey(|k| !avails.iter().any(|a| a.0 == k.avail), |k| *k)
    }

    /// Snapshots currently stored.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Zeroes the counters (entries are kept).
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
    }

    /// The memoized snapshot for `(avail, t_star)` under the current epoch,
    /// computing and storing it via `engine` on a miss. A hit returns the
    /// stored cold-path vector verbatim.
    pub fn features_at(
        &mut self,
        engine: &FeatureEngine,
        dataset: &Dataset,
        avail: AvailId,
        t_star: f64,
    ) -> Arc<[f64]> {
        let key = FeatureKey { avail: avail.0, t_bits: t_star.to_bits(), epoch: self.epoch };
        if let Some(hit) = self.cache.get(&key) {
            return Arc::clone(hit);
        }
        let cold: Arc<[f64]> = engine.features_for_avail_at(dataset, avail, t_star).into();
        self.width = cold.len();
        self.cache.insert(key, Arc::clone(&cold));
        cold
    }
}

impl HeapSize for FeatureCache {
    fn heap_bytes(&self) -> usize {
        // Slab + map, plus the shared feature vectors themselves (all the
        // same catalog width).
        self.cache.heap_bytes()
            + self.cache.len() * self.width * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domd_data::{generate, GeneratorConfig};

    fn setup() -> (Dataset, FeatureEngine) {
        let ds = generate(&GeneratorConfig { n_avails: 8, target_rccs: 600, scale: 1, seed: 5 });
        (ds, FeatureEngine::default())
    }

    #[test]
    fn hit_returns_cold_bits_verbatim() {
        let (ds, eng) = setup();
        let mut cache = FeatureCache::new(64);
        let a = ds.avails()[0].id;
        for t in [0.0, 25.0, 50.0, 75.0] {
            let cold = eng.features_for_avail_at(&ds, a, t);
            let first = cache.features_at(&eng, &ds, a, t);
            let second = cache.features_at(&eng, &ds, a, t);
            assert_eq!(cold.len(), first.len());
            for ((c, f), s) in cold.iter().zip(first.iter()).zip(second.iter()) {
                assert_eq!(c.to_bits(), f.to_bits());
                assert_eq!(f.to_bits(), s.to_bits());
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn invalidate_bumps_epoch_and_misses() {
        let (ds, eng) = setup();
        let mut cache = FeatureCache::new(64);
        let a = ds.avails()[1].id;
        cache.features_at(&eng, &ds, a, 40.0);
        cache.features_at(&eng, &ds, a, 40.0);
        assert_eq!(cache.stats().hits, 1);
        cache.invalidate();
        assert_eq!(cache.epoch(), 1);
        cache.features_at(&eng, &ds, a, 40.0);
        assert_eq!(cache.stats().hits, 1, "post-invalidate lookup must miss");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn invalidate_avails_is_surgical() {
        let (ds, eng) = setup();
        let mut cache = FeatureCache::new(64);
        let a = ds.avails()[0].id;
        let b = ds.avails()[1].id;
        for t in [10.0, 20.0] {
            cache.features_at(&eng, &ds, a, t);
            cache.features_at(&eng, &ds, b, t);
        }
        let (dropped, retained) = cache.invalidate_avails(&[a]);
        assert_eq!((dropped, retained), (2, 2));
        assert_eq!(cache.epoch(), 0, "surgical invalidation keeps the epoch");
        let hits_before = cache.stats().hits;
        cache.features_at(&eng, &ds, b, 10.0);
        assert_eq!(cache.stats().hits, hits_before + 1, "untouched avail stays warm");
        cache.features_at(&eng, &ds, a, 10.0);
        assert_eq!(cache.stats().hits, hits_before + 1, "dropped avail must recompute");
        // Bits of the recomputed snapshot equal the cold path.
        let cold = eng.features_for_avail_at(&ds, a, 10.0);
        let warm = cache.features_at(&eng, &ds, a, 10.0);
        for (c, w) in cold.iter().zip(warm.iter()) {
            assert_eq!(c.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn distinct_avails_and_times_do_not_collide() {
        let (ds, eng) = setup();
        let mut cache = FeatureCache::new(64);
        let a = ds.avails()[0].id;
        let b = ds.avails()[1].id;
        let fa = cache.features_at(&eng, &ds, a, 60.0);
        let fb = cache.features_at(&eng, &ds, b, 60.0);
        let fa2 = cache.features_at(&eng, &ds, a, 80.0);
        assert_ne!(fa.as_ref(), fb.as_ref(), "different avails differ");
        assert_ne!(fa.as_ref(), fa2.as_ref(), "different anchors differ");
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn heap_bytes_grow_with_entries() {
        let (ds, eng) = setup();
        let mut cache = FeatureCache::new(64);
        let empty = cache.heap_bytes();
        cache.features_at(&eng, &ds, ds.avails()[0].id, 10.0);
        assert!(cache.heap_bytes() > empty, "payload must be accounted");
    }
}
