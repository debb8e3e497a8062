#!/usr/bin/env bash
# Workspace lint gate: clippy across every target (including the
# domd-runtime pool and the columnar layout modules: arena, chunked,
# flat_avl), warnings promoted to errors, then fast smoke suites — every
# domd-features and domd-core integration suite (parallel equivalence,
# properties, the thread cap) runs under a 2-worker
# pool so any scheduling-dependent output fails the gate quickly, and the
# cache_invalidation test asserts that, with no feature row memoized
# anywhere, an ingest into one avail makes its served predict the
# projected recompute on the new epoch while every other avail keeps its
# bits. The PR-4
# durability gate runs the storage crate (frame/WAL/checkpoint/atomic-write
# units), the DurableIndex suite, and the crash-recovery + storage-fault
# integration tests, so a change that weakens the "never serve torn state"
# contract fails here before any benchmark runs.
# PR 5 puts domd-lint in front of clippy: the workspace invariant
# checker first proves its own rule set against the fixture corpus
# (--self-check fails if any rule stops firing on its violating fixture),
# then sweeps every crate for panics in library code, stray thread
# spawns, nondeterminism sources (wall clocks, OS entropy, default-hasher
# maps), unlogged DurableIndex mutations, and missing/abused lint
# waivers. Any unwaived finding exits nonzero before clippy runs.
# The ML gate runs every domd-ml integration suite: the branchless
# compiled descent bit-identical to the pointer walker, pooled forest
# fits bit-stable across worker counts, and presorted exact-greedy trees
# byte-identical to a per-node sort; then tiny-scale identity-gated
# smokes of the gbt and parallel-runtime benches. The ingest, restart
# and WAL benches then run one tiny round each, so their identity asserts
# (maintained view vs a from-scratch build; store-rebuilt vs from-scratch
# snapshot; both durable stores vs the bare row map, entries and flat-AVL
# retrieval) run on every change.
# The serving gate at the end smoke-tests `domd serve` end to end: tiny
# dataset, tiny model, one request of every type over the line protocol
# (plus one malformed line, one out-of-range SWLIN depth, one NaN status
# time, one predict avail past u32, one NaN alert cut and one ingest amount
# outside the admitted window, each refused on its own seq without killing
# the session),
# clean `quit` shutdown, and a second session whose driving process is
# SIGTERM-killed mid-stream — the server must see EOF, drain, and still
# exit 0. Two starts with a flag `domd serve` does not read (the retired
# cache-capacity option, and `--stor` for `--store`) must exit 2 with an
# `error [config]` line naming the flag.
# The restart gate then proves the store is the system of record: the
# kill–restart chaos suite (every WAL byte offset), the v1→v2 migration
# suite, and an end-to-end smoke that `kill -9`s a durable server right
# after an ack and requires the restarted server to rebuild the acked
# row from the store alone, report that the store has outgrown the
# extracts, and refuse that store under `--verify-extracts true` (plus a
# `domd migrate-store` run-through).
# The benchmark gate builds and self-tests `perfbench/` (a workspace of
# its own that links the library crates by path), so deleting or
# renaming a public item the benchmark uses fails here, not in a later
# benchmark run.
# The gate is staged by LINT_PROFILE (default full): `fast` stops after
# the analyzer sweep, clippy, and the workspace unit tests — the
# inner-loop check while iterating on a change; `full` adds every
# integration, chaos, and end-to-end smoke stage below and is what CI
# and pre-send runs use.
#
# Run before sending a change; CI treats any output as a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

LINT_PROFILE="${LINT_PROFILE:-full}"   # fast | full
case "$LINT_PROFILE" in
  fast|full) ;;
  *) echo "lint.sh: LINT_PROFILE must be 'fast' or 'full', got '$LINT_PROFILE'" >&2; exit 2 ;;
esac

# Stage 1 — both profiles: the analyzer proves its rules against the
# fixture corpus, sweeps the workspace (any unwaived finding exits
# nonzero before clippy runs), then clippy and the unit suites.
cargo run --release -q -p domd-analyzer --bin domd-lint -- --self-check
cargo run --release -q -p domd-analyzer --bin domd-lint -- --format human

cargo clippy --workspace --all-targets -- -D warnings

DOMD_THREADS=2 cargo test -q --workspace --lib --bins

if [ "$LINT_PROFILE" = "fast" ]; then
  echo "lint gate (fast profile): OK — LINT_PROFILE=full adds the integration, chaos, and smoke stages"
  exit 0
fi

# Stage 2 — full profile only: integration, chaos, and smoke gates.
# The data crate's property suites (CSV round trips, dates, logical time,
# the partitioned RCC table) run alongside its unit tests.
cargo test -q -p domd-data --tests
DOMD_THREADS=2 cargo test -q -p domd-runtime
DOMD_THREADS=2 cargo test -q -p domd-features --tests
DOMD_THREADS=2 cargo test -q -p domd-core --tests
# Recompute after ingest on the projected path: the touched avail's served
# predict is `predict_online_checked` on the new epoch, every other avail
# keeps its bits.
cargo test -q -p domd --test cache_invalidation

# Benchmark gate: perfbench compiles against the library as it is now and
# its self-tests pass.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# Delta-maintenance gate: the maintained Status-Query view must stay
# bit-identical to the flat-AVL and naive-join index plans built from
# scratch over its live rows after every delta batch, at every thread
# count, and a pinned epoch must never observe a concurrently published
# delta. The index crate's other integration suites (the index and layout
# property tests, the heap-size ceilings) run here too.
DOMD_THREADS=2 cargo test -q -p domd-index --tests

# ML gate: every domd-ml integration suite. The compiled descent (single
# row and batch) must stay bit-identical to the pointer walker
# (prop_flat), pooled forest fits thread-stable across worker counts
# (parallel_equivalence), and presorted exact-greedy trees byte-identical
# to the per-node stable sort they replaced (prop_ml); then tiny-scale
# smoke runs of the gbt and parallel-runtime benches (each asserts its
# bit-identity gates before any timing).
DOMD_THREADS=2 cargo test -q -p domd-ml --tests
cargo build --release -q -p domd-bench --bin bench_gbt --bin bench_parallel
target/release/bench_gbt --scales 1 --runs 1 --trees 16 --depth 4 \
  --rows 256 --train-rows 512 --out /dev/null >/dev/null
target/release/bench_parallel --scales 1 --runs 1 --threads 2 --out /dev/null
echo "gbt kernel gate: OK"

# Ingest, restart and WAL bench smokes: each asserts its identity gate
# before timing. One round of two batches cannot show the ingest speedup,
# so a 10x WARNING on stderr here is informational, not a failure.
cargo build --release -q -p domd-bench --bin bench_ingest --bin bench_restart --bin bench_wal
target/release/bench_ingest --scales 1 --batches 2 --runs 1 --out /dev/null
target/release/bench_restart --scales 1 --ingests 64 --runs 1 --out /dev/null
target/release/bench_wal --scales 1 --mutations 2000 --runs 1 --out /dev/null
echo "ingest/restart/wal bench gate: OK"

cargo test -q -p domd-storage
cargo test -q -p domd-index durable
cargo test -q -p domd --test recovery
cargo test -q -p domd --test fault_injection

cargo test -q -p domd-serve
cargo build --release -q --bin domd
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$SERVE_DIR"' EXIT
target/release/domd generate --out-dir "$SERVE_DIR" --avails 6 --rccs 200 --seed 7 >/dev/null
target/release/domd train --data-dir "$SERVE_DIR" --out "$SERVE_DIR/model.domd" \
  --grid-step 50 >/dev/null 2>&1
cat > "$SERVE_DIR/script.txt" <<'EOF'
status t=55 status=active
predict avail=1 t=40
alert t=80 k=3 min=0
ingest avail=1 type=NW swlin=123-45-678 created=4/1/2015 settled=5/1/2015 amount=1200
not-a-command
status t=10 swlin=000-00-001:9
status t=55 status=settled swlin=000-00-001:1
status t=NaN status=not-created
predict avail=4294967297 t=40
alert t=80 k=3 min=NaN
ingest avail=1 type=NW swlin=123-45-678 created=4/1/2015 settled=5/1/2015 amount=10000000000
status t=55 status=created
quit
EOF
SERVE_OUT="$(target/release/domd serve --data-dir "$SERVE_DIR" \
  --model "$SERVE_DIR/model.domd" --script "$SERVE_DIR/script.txt" 2>/dev/null)"
for op in status predict alert ingest; do
  echo "$SERVE_OUT" | grep -q "op=$op" || {
    echo "serve smoke: missing ok response for op=$op" >&2; exit 1; }
done
echo "$SERVE_OUT" | grep -q 'err seq=4' || {
  echo "serve smoke: malformed line was not refused" >&2; exit 1; }
# A SWLIN depth outside 1..=8 is refused on its own seq, and the session
# keeps answering the lines after it.
echo "$SERVE_OUT" | grep -q '^err seq=5 .*kind=config' || {
  echo "serve smoke: out-of-range swlin depth was not refused" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q '^ok seq=6 .*op=status' || {
  echo "serve smoke: no answer after the refused swlin depth" >&2; exit 1; }
# A NaN t* names no point of the timeline: refused, not answered.
echo "$SERVE_OUT" | grep -q '^err seq=7 .*kind=non-finite' || {
  echo "serve smoke: status at t=NaN was not refused" >&2; exit 1; }
# An avail id past u32 names no avail (it once wrapped onto a real one),
# and a NaN alert cut names no threshold: both refused on their own seq.
echo "$SERVE_OUT" | grep -q '^err seq=8 .*kind=config' || {
  echo "serve smoke: predict avail=2^32+1 was not refused" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q '^err seq=9 .*kind=non-finite' || {
  echo "serve smoke: alert min=NaN was not refused" >&2; exit 1; }
# An amount outside the admitted window (2^-62 multiples below 2^33, which
# status sums hold exactly) is refused on its own seq; the next line is
# still answered.
echo "$SERVE_OUT" | grep -q '^err seq=10 .*kind=config' || {
  echo "serve smoke: ingest amount=1e10 was not refused" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q '^ok seq=11 .*op=status' || {
  echo "serve smoke: no answer after the refused ingest amount" >&2; exit 1; }
# Killed-driver shutdown: SIGTERM the writer mid-session; the server must
# treat the closed pipe as EOF, drain, and exit 0.
SERVE_FIFO="$SERVE_DIR/in.fifo"
mkfifo "$SERVE_FIFO"
( printf 'predict avail=1 t=40\n'; exec sleep 30 ) > "$SERVE_FIFO" &
WRITER_PID=$!
target/release/domd serve --data-dir "$SERVE_DIR" --model "$SERVE_DIR/model.domd" \
  < "$SERVE_FIFO" > "$SERVE_DIR/signal.out" 2>/dev/null &
SERVE_PID=$!
sleep 1
kill -TERM "$WRITER_PID" 2>/dev/null || true
if ! wait "$SERVE_PID"; then
  echo "serve smoke: server did not exit cleanly after its driver was killed" >&2
  exit 1
fi
grep -q 'op=predict' "$SERVE_DIR/signal.out" || {
  echo "serve smoke: no response before driver kill" >&2; exit 1; }
# A flag the command does not read is refused by name, before any work: a
# mistyped `--store` must never start a server without its store.
for FLAG in cache-capacity stor; do
  FLAG_STATUS=0
  target/release/domd serve --data-dir "$SERVE_DIR" --model "$SERVE_DIR/model.domd" \
    --"$FLAG" "$SERVE_DIR/flag" < /dev/null > /dev/null 2> "$SERVE_DIR/flag.err" ||
    FLAG_STATUS=$?
  if [ "$FLAG_STATUS" -ne 2 ] || ! grep -q "^error \[config\]: .*--$FLAG;" "$SERVE_DIR/flag.err"; then
    echo "serve smoke: --$FLAG was not refused with exit 2 (exit $FLAG_STATUS)" >&2
    cat "$SERVE_DIR/flag.err" >&2; exit 1
  fi
done
echo "serve smoke: OK"

# Restart gate: acked ingests survive kill -9; the store alone rebuilds
# the serving snapshot bit-identically (chaos suite), and v1 stores
# migrate in place (property + literal-fixture suite).
DOMD_THREADS=2 cargo test -q -p domd-serve --test serve_restart
cargo test -q -p domd --test migration

STORE_DIR="$SERVE_DIR/store"
RESTART_FIFO="$SERVE_DIR/restart.fifo"
mkfifo "$RESTART_FIFO"
( printf 'ingest avail=1 type=NW swlin=123-45-679 created=4/1/2015 settled=5/1/2015 amount=900\n'
  exec sleep 30 ) > "$RESTART_FIFO" &
RESTART_WRITER_PID=$!
target/release/domd serve --data-dir "$SERVE_DIR" --model "$SERVE_DIR/model.domd" \
  --store "$STORE_DIR" < "$RESTART_FIFO" \
  > "$SERVE_DIR/restart.out" 2> "$SERVE_DIR/restart.err" &
RESTART_SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q 'op=ingest' "$SERVE_DIR/restart.out" 2>/dev/null && break
  sleep 0.2
done
grep -q 'op=ingest' "$SERVE_DIR/restart.out" || {
  echo "restart gate: durable ingest was never acked" >&2
  cat "$SERVE_DIR/restart.err" >&2; exit 1; }
# The kill: no clean shutdown, no final sync — the ack alone must hold.
kill -KILL "$RESTART_SERVE_PID" 2>/dev/null || true
wait "$RESTART_SERVE_PID" 2>/dev/null || true
kill -TERM "$RESTART_WRITER_PID" 2>/dev/null || true
wait "$RESTART_WRITER_PID" 2>/dev/null || true
BASE_ROWS="$(sed -n 's/.*extracts (\([0-9][0-9]*\) row(s) at epoch 0.*/\1/p' \
  "$SERVE_DIR/restart.err")"
[ -n "$BASE_ROWS" ] || {
  echo "restart gate: could not read the initialized row count" >&2
  cat "$SERVE_DIR/restart.err" >&2; exit 1; }
printf 'quit\n' | target/release/domd serve --data-dir "$SERVE_DIR" \
  --model "$SERVE_DIR/model.domd" --store "$STORE_DIR" \
  > /dev/null 2> "$SERVE_DIR/restart2.err"
grep -q "rebuilt $((BASE_ROWS + 1)) row(s) from the store" "$SERVE_DIR/restart2.err" || {
  echo "restart gate: acked row lost after kill -9 (expected $((BASE_ROWS + 1)) rows)" >&2
  cat "$SERVE_DIR/restart2.err" >&2; exit 1; }
# The acked row is one the extracts lack: a default start serves the
# store and says so, and `--verify-extracts true` refuses it (exit 2).
grep -q 'cross-check: store has diverged' "$SERVE_DIR/restart2.err" || {
  echo "restart gate: the default start did not report the diverged store" >&2
  cat "$SERVE_DIR/restart2.err" >&2; exit 1; }
VERIFY_STATUS=0
printf 'quit\n' | target/release/domd serve --data-dir "$SERVE_DIR" \
  --model "$SERVE_DIR/model.domd" --store "$STORE_DIR" --verify-extracts true \
  > /dev/null 2> "$SERVE_DIR/verify.err" || VERIFY_STATUS=$?
if [ "$VERIFY_STATUS" -ne 2 ] ||
  ! grep -q "diverges from the extracts' projection" "$SERVE_DIR/verify.err"; then
  echo "restart gate: --verify-extracts true did not refuse the diverged store" \
    "with exit 2 (exit $VERIFY_STATUS)" >&2
  cat "$SERVE_DIR/verify.err" >&2; exit 1
fi
# Migration run-through: idempotent on an already-v2 store, and the
# recover report must show the versioned record counts.
target/release/domd migrate-store --store "$STORE_DIR" --data-dir "$SERVE_DIR" \
  > "$SERVE_DIR/migrate.out"
grep -q 'compacted into' "$SERVE_DIR/migrate.out" || {
  echo "restart gate: migrate-store did not checkpoint" >&2
  cat "$SERVE_DIR/migrate.out" >&2; exit 1; }
target/release/domd recover --store "$STORE_DIR" | grep -q 'record versions: checkpoint v2' || {
  echo "restart gate: recover report is missing record versions" >&2; exit 1; }
echo "restart gate: OK"
