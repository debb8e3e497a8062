//! Delta-equivalence gate (run by `scripts/lint.sh`): after every batch of
//! typed deltas (insert / settle / remove), the maintained Status-Query
//! view must answer every probe `to_bits`-identically to two index plans
//! built from scratch over the same arena's live rows — the flat dual AVL
//! and the naive avail ⋈ RCC join, the paper's oracle — sequentially and
//! on the worker pool at thread counts 1/2/3/8, and a pinned epoch must
//! never observe a concurrently published delta.

use domd_data::dataset::Dataset;
use domd_data::rcc::{Rcc, RccId, RccStatus, RccType};
use domd_data::{generate, GeneratorConfig};
use domd_index::{
    EpochStore, FlatAvlIndex, NaiveJoinIndex, RccArena, RccDelta, RowId, StatusAggregate,
    StatusQuery, StatusQueryEngine, StatusView,
};
use std::sync::{Arc, Mutex};

mod common;

/// SplitMix64: deterministic per seed, no OS entropy.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn probe_queries() -> Vec<StatusQuery> {
    let mut out = Vec::new();
    for t in 0..13 {
        let t_star = f64::from(t) * 10.0;
        for status in
            [RccStatus::Active, RccStatus::Settled, RccStatus::Created, RccStatus::NotCreated]
        {
            for (rcc_type, swlin_prefix) in [
                (None, None),
                (Some(RccType::Growth), None),
                (Some(RccType::NewWork), None),
                (None, Some((4u32, 1u32))),
                (None, Some((43u32, 2u32))),
                (Some(RccType::NewGrowth), Some((5u32, 1u32))),
            ] {
                out.push(StatusQuery { rcc_type, swlin_prefix, status, t_star });
            }
        }
    }
    out
}

fn view_of(ds: &Dataset) -> StatusView {
    StatusView::from_arena(Arc::new(RccArena::from_dataset(ds)))
}

fn settle_delta(rng: &mut Mix, ds: &Dataset, view: &StatusView, row: RowId) -> RccDelta {
    let avail = ds.avail(view.arena().avail(row)).expect("row avail").clone();
    let settled = avail.actual_start + 1 + rng.below(200) as i32;
    RccDelta::Settle { row, settled, avail }
}

/// The aggregate of `ids` by an independent reference: the count, the
/// correctly rounded amount sum (`fsum`, not the view's fixed-point
/// accumulator), and the integer day counts folded in order.
fn fold(arena: &RccArena, ids: &[RowId]) -> StatusAggregate {
    StatusAggregate {
        count: ids.len(),
        sum_amount: common::fsum(ids.iter().map(|&id| arena.amount(id))),
        sum_duration: ids.iter().fold(0.0, |acc, &id| acc + arena.duration(id)),
    }
}

/// The reference answers for `queries` over `view`'s arena and live rows:
/// the exact sums of a flat-AVL and a naive-join index plan's ids, built
/// from scratch, which must agree with each other to the bit.
fn reference_answers(view: &StatusView, queries: &[StatusQuery]) -> Vec<StatusAggregate> {
    let live = view.live_rows();
    let arena = view.arena();
    let avl = StatusQueryEngine::<FlatAvlIndex>::from_arena_rows(Arc::clone(arena), &live);
    let naive = StatusQueryEngine::<NaiveJoinIndex>::from_arena_rows(Arc::clone(arena), &live);
    queries
        .iter()
        .map(|q| {
            let (a, n) = (fold(arena, &avl.execute(q)), fold(arena, &naive.execute(q)));
            assert_same(&a, &n, &format!("avl vs naive on {q:?}"));
            a
        })
        .collect()
}

fn assert_same(got: &StatusAggregate, want: &StatusAggregate, ctx: &str) {
    assert_eq!(got.count, want.count, "{ctx}: count");
    assert_eq!(got.sum_amount.to_bits(), want.sum_amount.to_bits(), "{ctx}: amount bits");
    assert_eq!(got.sum_duration.to_bits(), want.sum_duration.to_bits(), "{ctx}: duration bits");
}

/// Mixed seeded delta batches: the maintained view must stay
/// bit-identical to the from-scratch index plans over the tracked live
/// set, at every thread count, after every batch.
#[test]
fn maintained_view_matches_from_scratch_after_every_batch() {
    let ds = generate(&GeneratorConfig { n_avails: 12, target_rccs: 1_200, scale: 1, seed: 29 });
    let mut view = view_of(&ds);
    let mut rng = Mix(0xD0D0_0001);
    let mut live: Vec<RowId> = (0..view.arena().len() as RowId).collect();
    let mut arena_len = view.arena().len() as u32;
    let mut next_id = 0u32;
    let queries = probe_queries();

    for batch in 0..8 {
        let mut deltas = Vec::new();
        // Settle/remove victims come from rows already in the arena when
        // the batch starts — a stream cannot name a row id it has not yet
        // been told about (serve allocates ids at apply time).
        let mut existing = live.clone();
        for _ in 0..24 {
            let choice = rng.below(10);
            if choice <= 5 || existing.is_empty() {
                let (d, row) = insert_delta(&mut rng, &ds, &mut arena_len, &mut next_id);
                live.push(row);
                deltas.push(d);
            } else if choice <= 7 {
                let victim = existing.remove(rng.below(existing.len() as u64) as usize);
                live.retain(|&r| r != victim);
                deltas.push(RccDelta::Remove { row: victim });
            } else {
                let row = existing[rng.below(existing.len() as u64) as usize];
                deltas.push(settle_delta(&mut rng, &ds, &view, row));
            }
        }
        // One refused delta per batch: the stream may name unknown rows.
        deltas.push(RccDelta::Remove { row: arena_len + 1_000 });
        let applied = view.apply_deltas(&deltas);
        assert_eq!(applied.len(), deltas.len() - 1, "only the bogus delta is skipped");
        live.sort_unstable();
        assert_eq!(view.live_rows(), live, "batch {batch}: live set diverged");

        let want = reference_answers(&view, &queries);
        for threads in [1usize, 2, 3, 8] {
            let got = view.aggregate_batch(&queries, threads);
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_same(g, w, &format!("batch {batch} threads {threads} q{i}"));
            }
        }
    }
}

fn insert_delta(
    rng: &mut Mix,
    ds: &Dataset,
    arena_len: &mut u32,
    next_id: &mut u32,
) -> (RccDelta, RowId) {
    let template = &ds.rccs()[rng.below(ds.rccs().len() as u64) as usize];
    let avail = ds.avail(template.avail).expect("generated avail").clone();
    let created = avail.actual_start + rng.below(60) as i32;
    let rcc = Rcc {
        id: RccId(9_000_000 + *next_id),
        avail: avail.id,
        rcc_type: template.rcc_type,
        swlin: template.swlin,
        created,
        settled: created + 1 + rng.below(90) as i32,
        amount: 100.0 + rng.below(5_000) as f64,
    };
    *next_id += 1;
    let row = *arena_len;
    *arena_len += 1;
    (RccDelta::Insert { rcc, avail }, row)
}

/// Satellite: `EpochStore` under a sustained delta burst. A reader pinned
/// at epoch `e` answers bit-identically no matter how many delta-published
/// epochs land concurrently, and the published epochs stay dense.
#[test]
fn pinned_reader_unaffected_by_concurrent_delta_publishes() {
    let ds = generate(&GeneratorConfig { n_avails: 10, target_rccs: 800, scale: 1, seed: 37 });
    let view = view_of(&ds);
    let queries = probe_queries();
    let baseline: Vec<_> = queries.iter().map(|q| view.aggregate(q)).collect();
    let store = EpochStore::new(view);
    let epochs: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    const BATCHES: usize = 16;

    domd_runtime::run_workers(4, |worker| {
        if worker == 0 {
            // The writer: publish BATCHES delta batches copy-on-write.
            let mut rng = Mix(0xD0D0_0003);
            for _ in 0..BATCHES {
                let mut deltas = Vec::new();
                {
                    let pin = store.pin();
                    let live = pin.live_rows();
                    for _ in 0..4 {
                        match rng.below(3) {
                            0 => {
                                let row = live[rng.below(live.len() as u64) as usize];
                                let avail = ds
                                    .avail(pin.arena().avail(row))
                                    .expect("row avail")
                                    .clone();
                                let settled =
                                    avail.actual_start + 1 + rng.below(150) as i32;
                                deltas.push(RccDelta::Settle { row, settled, avail });
                            }
                            1 => {
                                let row = live[rng.below(live.len() as u64) as usize];
                                deltas.push(RccDelta::Remove { row });
                            }
                            _ => {
                                let template =
                                    &ds.rccs()[rng.below(ds.rccs().len() as u64) as usize];
                                let avail =
                                    ds.avail(template.avail).expect("generated avail").clone();
                                let created = avail.actual_start + rng.below(60) as i32;
                                deltas.push(RccDelta::Insert {
                                    rcc: Rcc {
                                        id: RccId(9_500_000 + rng.below(1 << 20) as u32),
                                        avail: avail.id,
                                        rcc_type: template.rcc_type,
                                        swlin: template.swlin,
                                        created,
                                        settled: created + 1 + rng.below(90) as i32,
                                        amount: 250.0,
                                    },
                                    avail,
                                });
                            }
                        }
                    }
                }
                let (epoch, _) = store.update(|v| v.apply_deltas(&deltas));
                epochs.lock().expect("epoch log").push(epoch);
            }
        } else {
            // Readers: pin once, then re-read under the churn — every
            // re-read of the pinned snapshot must reproduce its own first
            // answer bit-for-bit (epoch-0 pins must match the baseline).
            for round in 0..6 {
                let pin = store.pin();
                let first: Vec<_> = queries.iter().map(|q| pin.aggregate(q)).collect();
                if pin.epoch() == 0 {
                    for (f, b) in first.iter().zip(&baseline) {
                        assert_eq!(f.sum_amount.to_bits(), b.sum_amount.to_bits());
                        assert_eq!(f.sum_duration.to_bits(), b.sum_duration.to_bits());
                    }
                }
                for _ in 0..4 {
                    let again: Vec<_> = queries.iter().map(|q| pin.aggregate(q)).collect();
                    for (a, f) in again.iter().zip(&first) {
                        assert_eq!(a.count, f.count, "worker {worker} round {round}");
                        assert_eq!(a.sum_amount.to_bits(), f.sum_amount.to_bits());
                        assert_eq!(a.sum_duration.to_bits(), f.sum_duration.to_bits());
                    }
                }
            }
        }
    });

    // Epochs are dense: exactly 1..=BATCHES, no gaps, none lost.
    let mut published = epochs.into_inner().expect("epoch log");
    published.sort_unstable();
    assert_eq!(published, (1..=BATCHES as u64).collect::<Vec<_>>());
    assert_eq!(store.epoch(), BATCHES as u64);

    // And the final snapshot equals the index plans rebuilt over its rows.
    let final_pin = store.pin();
    let want = reference_answers(&final_pin, &queries);
    for (q, w) in queries.iter().zip(&want) {
        assert_same(&final_pin.aggregate(q), w, &format!("{q:?}"));
    }
}
