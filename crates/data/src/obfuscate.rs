//! Dataset obfuscation.
//!
//! The paper's pipeline "uses obfuscated data for training and then
//! retrains on raw data in the Navy environment without human
//! intervention" (Abstract): the NMD contains Controlled Unclassified
//! Information, so everything that leaves the enclave is transformed.
//! This module implements a keyed, deterministic obfuscation that removes
//! identifying content while preserving every relationship the pipeline
//! models — the property that makes train-outside / retrain-inside sound:
//!
//! * avail / ship / RCC identifiers are permuted (keyed Feistel-style);
//! * all dates shift by one global offset (durations, logical times, and
//!   chronological order are untouched — delay is duration arithmetic);
//! * dollar amounts scale by one global positive factor (every aggregate
//!   feature scales linearly; correlations, ranks, tree splits, and MI
//!   bins are invariant);
//! * SWLIN codes are digit-substituted per hierarchy level with a keyed
//!   permutation of 0–9, so the tree structure (which codes share a
//!   prefix) is exactly preserved while the real compartment numbering is
//!   hidden;
//! * static attributes keep their joint distribution (class/RMC labels are
//!   permuted consistently).

use crate::avail::{Avail, AvailId, ShipId};
use crate::dataset::Dataset;
use crate::rcc::{Rcc, RccId, Swlin};

/// Obfuscation parameters. The same key always produces the same
/// transformation, so obfuscated artifacts remain joinable across exports.
#[derive(Debug, Clone, Copy)]
pub struct ObfuscationKey {
    /// Master key driving every derived permutation.
    pub key: u64,
    /// Days added to every date (derived from the key when built via
    /// [`ObfuscationKey::new`]).
    pub date_shift: i32,
    /// Multiplier applied to every dollar amount (positive).
    pub amount_scale: f64,
}

impl ObfuscationKey {
    /// Derives shift and scale from the master key.
    pub fn new(key: u64) -> Self {
        // splitmix64 steps give independent sub-keys.
        let a = splitmix(key);
        let b = splitmix(a);
        ObfuscationKey {
            key,
            // Shift within +/- ~15 years, never zero.
            date_shift: ((a % 11_000) as i32) - 5_500 + 17,
            // Scale in [0.5, 2.0).
            amount_scale: 0.5 + 1.5 * (b % 10_000) as f64 / 10_000.0,
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Keyed permutation of a 32-bit id (4-round Feistel over 16-bit halves):
/// bijective, so distinct ids stay distinct.
fn permute_id(id: u32, key: u64, domain: u64) -> u32 {
    let mut l = (id >> 16) as u16;
    let mut r = (id & 0xFFFF) as u16;
    for round in 0..4u64 {
        let f = splitmix(key ^ domain.wrapping_mul(0xABCD) ^ (u64::from(r) << 8) ^ round) as u16;
        let nl = r;
        r = l ^ f;
        l = nl;
    }
    (u32::from(l) << 16) | u32::from(r)
}

/// Keyed permutation of the digits 0–9 for one SWLIN level.
fn digit_permutation(key: u64, level: u32) -> [u8; 10] {
    let mut digits: [u8; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
    // Fisher-Yates driven by splitmix.
    let mut state = splitmix(key ^ (u64::from(level) << 32) ^ 0x5711);
    for i in (1..10).rev() {
        state = splitmix(state);
        let j = (state % (i as u64 + 1)) as usize;
        digits.swap(i, j);
    }
    digits
}

/// Substitutes every SWLIN digit with its level-specific permutation:
/// prefix-sharing (the hierarchy of Figure 1) is preserved exactly.
fn obfuscate_swlin(w: Swlin, key: u64) -> Swlin {
    let mut packed = 0u32;
    for level in 1..=8u32 {
        let perm = digit_permutation(key, level);
        let d = w.digit(level);
        packed = packed * 10 + u32::from(perm[d as usize]);
    }
    // domd-lint: allow(no-panic) — digit-wise substitution of a valid SWLIN yields 8 digits (level-1 permutations fix 0 out and 1-9 in)
    Swlin::from_packed(packed).expect("digit substitution stays 8 digits")
}

/// Obfuscates a dataset under `key`. Deterministic: equal inputs and keys
/// give equal outputs.
pub fn obfuscate(dataset: &Dataset, key: &ObfuscationKey) -> Dataset {
    assert!(key.amount_scale > 0.0, "amount scale must be positive");
    let class_perm = digit_permutation(key.key, 100);
    let rmc_perm = digit_permutation(key.key, 101);

    let avails: Vec<Avail> = dataset
        .avails()
        .iter()
        .map(|a| {
            let mut o = a.clone();
            o.id = AvailId(permute_id(a.id.0, key.key, 1));
            o.ship = ShipId(permute_id(a.ship.0, key.key, 2));
            o.plan_start = a.plan_start + key.date_shift;
            o.plan_end = a.plan_end + key.date_shift;
            o.actual_start = a.actual_start + key.date_shift;
            o.actual_end = a.actual_end.map(|d| d + key.date_shift);
            o.statics.ship_class = class_perm[(a.statics.ship_class as usize) % 10];
            o.statics.rmc_id = rmc_perm[(a.statics.rmc_id as usize) % 10];
            o
        })
        .collect();

    let rccs: Vec<Rcc> = dataset
        .rccs()
        .iter()
        .map(|r| Rcc {
            id: RccId(permute_id(r.id.0, key.key, 3)),
            avail: AvailId(permute_id(r.avail.0, key.key, 1)),
            rcc_type: r.rcc_type,
            swlin: obfuscate_swlin(r.swlin, key.key),
            created: r.created + key.date_shift,
            settled: r.settled + key.date_shift,
            amount: r.amount * key.amount_scale,
        })
        .collect();

    Dataset::new(avails, rccs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};
    use std::collections::{HashMap, HashSet};

    fn data() -> Dataset {
        generate(&GeneratorConfig { n_avails: 30, target_rccs: 2500, scale: 1, seed: 61 })
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        let ds = data();
        let k = ObfuscationKey::new(42);
        let a = obfuscate(&ds, &k);
        let b = obfuscate(&ds, &k);
        assert_eq!(a.avails(), b.avails());
        assert_eq!(a.rccs(), b.rccs());
        let c = obfuscate(&ds, &ObfuscationKey::new(43));
        assert_ne!(a.avails(), c.avails());
    }

    #[test]
    fn ids_permuted_bijectively_and_joins_preserved() {
        let ds = data();
        let ob = obfuscate(&ds, &ObfuscationKey::new(7));
        // Distinct ids stay distinct.
        let ids: HashSet<u32> = ob.avails().iter().map(|a| a.id.0).collect();
        assert_eq!(ids.len(), ds.avails().len());
        // Every avail keeps exactly its RCCs (per-avail counts match under
        // the id mapping).
        let mapping: HashMap<u32, u32> = ds
            .avails()
            .iter()
            .zip(ob.avails())
            .map(|(orig, o)| (orig.id.0, o.id.0))
            .collect();
        for a in ds.avails() {
            let mapped = crate::avail::AvailId(mapping[&a.id.0]);
            assert_eq!(ob.rccs_of(mapped).len(), ds.rccs_of(a.id).len(), "avail {}", a.id);
        }
    }

    /// Obfuscated RCCs re-sorted by the permuted ids: look each one up by
    /// its mapped id instead of relying on table order.
    fn rcc_by_id(ds: &Dataset) -> HashMap<u32, Rcc> {
        ds.rccs().iter().map(|r| (r.id.0, r.clone())).collect()
    }

    #[test]
    fn delays_and_durations_invariant() {
        let ds = data();
        let key = ObfuscationKey::new(99);
        let ob = obfuscate(&ds, &key);
        for (orig, o) in ds.avails().iter().zip(ob.avails()) {
            assert_eq!(orig.delay(), o.delay());
            assert_eq!(orig.planned_duration(), o.planned_duration());
        }
        let by_id = rcc_by_id(&ob);
        for orig in ds.rccs() {
            let o = &by_id[&permute_id(orig.id.0, key.key, 3)];
            assert_eq!(orig.duration_days(), o.duration_days());
        }
    }

    #[test]
    fn swlin_hierarchy_preserved() {
        let ds = data();
        let key = ObfuscationKey::new(5);
        let ob = obfuscate(&ds, &key);
        let by_id = rcc_by_id(&ob);
        for orig in ds.rccs() {
            let o = &by_id[&permute_id(orig.id.0, key.key, 3)];
            assert_ne!(orig.swlin, o.swlin, "codes must change"); // overwhelmingly likely
        }
        // Prefix-sharing is exactly preserved at every depth.
        let rows = ds.rccs().to_vec();
        for depth in 1..=8u32 {
            for pair in rows.windows(2) {
                let same_orig = pair[0].swlin.prefix(depth) == pair[1].swlin.prefix(depth);
                let o0 = obfuscate_swlin(pair[0].swlin, key.key);
                let o1 = obfuscate_swlin(pair[1].swlin, key.key);
                assert_eq!(same_orig, o0.prefix(depth) == o1.prefix(depth), "depth {depth}");
            }
        }
    }

    #[test]
    fn amounts_scale_uniformly() {
        let ds = data();
        let key = ObfuscationKey::new(11);
        let ob = obfuscate(&ds, &key);
        let by_id = rcc_by_id(&ob);
        for orig in ds.rccs() {
            let o = &by_id[&permute_id(orig.id.0, key.key, 3)];
            assert!((o.amount / orig.amount - key.amount_scale).abs() < 1e-12);
        }
    }

    #[test]
    fn statics_relabelled_consistently() {
        let ds = data();
        let ob = obfuscate(&ds, &ObfuscationKey::new(3));
        let mut class_map: HashMap<u8, u8> = HashMap::new();
        for (orig, o) in ds.avails().iter().zip(ob.avails()) {
            let prev = class_map.insert(orig.statics.ship_class, o.statics.ship_class);
            if let Some(p) = prev {
                assert_eq!(p, o.statics.ship_class, "class relabelling must be a function");
            }
            // Continuous statics untouched.
            assert_eq!(orig.statics.ship_age_years, o.statics.ship_age_years);
            assert_eq!(orig.statics.prior_avg_delay, o.statics.prior_avg_delay);
        }
    }
}
