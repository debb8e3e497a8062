#!/usr/bin/env bash
# Benchmarks the deterministic parallel execution layer (PR 2) at 1x and 4x
# RCC scale into BENCH_pr2.json, then the column-stored index layouts
# (sorted event arrays and the dual AVL: build time, 11-step sweep time and
# heap at 1x-20x, each checked against a naive-join sweep) into
# BENCH_pr3.json, then the PR-4 durability layer (WAL append overhead on
# the dynamic-maintenance path vs the in-memory baseline, checkpoint
# cadence cost, recovery time) into BENCH_pr4.json. Every timing is bit-identity-checked against its
# reference path first; the WAL arm warns if overhead reaches 10%. The
# serve suite drives the overload-safe serving core open-loop at 1x-20x
# data and 1x-10x offered load into BENCH_serve.json (p50/p99 latency of
# admitted requests, sustained QPS, shed rate) and warns if the
# max-load p99 exceeds 5x the 1x-load p99. The gbt suite benches the
# branchless flat-forest inference kernel against the pointer walker
# (pointer vs flat at 1x/4x/20x rows, bit-identity-gated) plus one
# exact-greedy tree fit at 65,536 rows into BENCH_gbt.json, warning if
# the flat kernel misses its 5x acceptance target at the largest scale.
#
#   THREADS=8 scripts/bench.sh
#   SUITE=layout SCALES=1,10 scripts/bench.sh     # PR-3 suite only
#   SUITE=wal MUTATIONS=50000 scripts/bench.sh    # PR-4 suite only
#   SUITE=serve LOADS=1,10 scripts/bench.sh       # serving suite only
#   SUITE=gbt TREES=600 scripts/bench.sh          # flat-kernel suite only
#   SUITE=ingest BATCHES=6 scripts/bench.sh       # delta-ingest suite only
#   SUITE=restart INGESTS=512 scripts/bench.sh    # restart-recovery suite only
#
# The restart suite measures recovery-to-first-answer for a restarted
# durable server vs store size into BENCH_restart.json: the store-rebuild
# path (recover + log-only snapshot rebuild, serves every acked ingest)
# against the old extract-reload path it replaced (faster, but blind to
# every acked row the extracts lack — the JSON counts them). The rebuild
# arm is bit-identity-gated against a from-scratch snapshot first.
#
# The ingest suite benches the delta-maintained ingest path a serving
# snapshot runs (view clone + typed RccDelta stream + sorted dataset merge)
# against the full rebuild it replaced (re-sort + Status-Query view built
# from scratch) into BENCH_ingest.json, bit-identity-gated on the Status
# Query aggregates, warning if the delta path misses its 10x
# ingest-to-queryable acceptance target at the largest scale.

set -euo pipefail
cd "$(dirname "$0")/.."

THREADS="${THREADS:-0}"        # 0 = auto-detect
RUNS="${RUNS:-3}"
SUITE="${SUITE:-all}"   # all | parallel | layout | wal | serve | gbt | ingest | restart

if [ "$SUITE" = "all" ] || [ "$SUITE" = "parallel" ]; then
  SCALES_PAR="${SCALES:-1,4}"
  OUT_PAR="${OUT:-BENCH_pr2.json}"
  cargo build --release -p domd-bench --bin bench_parallel
  ARGS=(--scales "$SCALES_PAR" --runs "$RUNS" --out "$OUT_PAR")
  if [ "$THREADS" != "0" ]; then
    ARGS+=(--threads "$THREADS")
  fi
  target/release/bench_parallel "${ARGS[@]}"
  echo "parallel-runtime bench results written to $OUT_PAR"
fi

if [ "$SUITE" = "all" ] || [ "$SUITE" = "layout" ]; then
  SCALES_LAYOUT="${SCALES:-1,5,10,20}"
  OUT_LAYOUT="${OUT_PR3:-BENCH_pr3.json}"
  cargo build --release -p domd-bench --bin bench_layout
  target/release/bench_layout --scales "$SCALES_LAYOUT" --runs "$RUNS" --out "$OUT_LAYOUT"
  echo "layout bench results written to $OUT_LAYOUT"
fi

if [ "$SUITE" = "all" ] || [ "$SUITE" = "wal" ]; then
  SCALES_WAL="${SCALES:-1,4}"
  OUT_WAL="${OUT_PR4:-BENCH_pr4.json}"
  MUTATIONS="${MUTATIONS:-100000}"
  cargo build --release -p domd-bench --bin bench_wal
  target/release/bench_wal --scales "$SCALES_WAL" --runs "$RUNS" \
    --mutations "$MUTATIONS" --out "$OUT_WAL"
  echo "WAL/durability bench results written to $OUT_WAL"
fi

if [ "$SUITE" = "all" ] || [ "$SUITE" = "serve" ]; then
  SCALES_SERVE="${SCALES:-1,5,20}"
  LOADS="${LOADS:-1,2,5,10}"
  REQUESTS="${REQUESTS:-300}"
  OUT_SERVE="${OUT_SERVE:-BENCH_serve.json}"
  cargo build --release -p domd-bench --bin bench_serve
  ARGS=(--scales "$SCALES_SERVE" --loads "$LOADS" --requests "$REQUESTS" \
        --runs "$RUNS" --out "$OUT_SERVE")
  if [ "$THREADS" != "0" ]; then
    ARGS+=(--workers "$THREADS")
  fi
  target/release/bench_serve "${ARGS[@]}"
  echo "serving/overload bench results written to $OUT_SERVE"
fi

if [ "$SUITE" = "all" ] || [ "$SUITE" = "gbt" ]; then
  SCALES_GBT="${SCALES:-1,4,20}"
  TREES="${TREES:-600}"
  DEPTH="${DEPTH:-10}"
  TRAIN_ROWS="${TRAIN_ROWS:-16384}"
  OUT_GBT="${OUT_GBT:-BENCH_gbt.json}"
  cargo build --release -p domd-bench --bin bench_gbt
  target/release/bench_gbt --scales "$SCALES_GBT" --runs "$RUNS" \
    --trees "$TREES" --depth "$DEPTH" --train-rows "$TRAIN_ROWS" \
    --out "$OUT_GBT"
  echo "flat-forest kernel bench results written to $OUT_GBT"
fi

if [ "$SUITE" = "all" ] || [ "$SUITE" = "ingest" ]; then
  SCALES_INGEST="${SCALES:-1,2,4}"
  BATCHES="${BATCHES:-6}"
  BATCH_ROWS="${BATCH_ROWS:-8}"
  OUT_INGEST="${OUT_INGEST:-BENCH_ingest.json}"
  cargo build --release -p domd-bench --bin bench_ingest
  target/release/bench_ingest --scales "$SCALES_INGEST" --batches "$BATCHES" \
    --batch-rows "$BATCH_ROWS" --runs "$RUNS" --out "$OUT_INGEST"
  echo "delta-ingest bench results written to $OUT_INGEST"
fi

if [ "$SUITE" = "all" ] || [ "$SUITE" = "restart" ]; then
  SCALES_RESTART="${SCALES:-1,4}"
  INGESTS="${INGESTS:-512}"
  OUT_RESTART="${OUT_RESTART:-BENCH_restart.json}"
  cargo build --release -p domd-bench --bin bench_restart
  target/release/bench_restart --scales "$SCALES_RESTART" --ingests "$INGESTS" \
    --runs "$RUNS" --out "$OUT_RESTART"
  echo "restart-recovery bench results written to $OUT_RESTART"
fi
