#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the parallel-layer,
# serving-layer and observability tests again under ThreadSanitizer so data
# races in the thread pool, the shard queues, the metric registries, or any
# fanned-out hot path fail the run even when the plain build passes, and the
# engine/profile/replay tests under AddressSanitizer so lifetime bugs in the
# incremental per-bank state (profile snapshots, bounded retention eviction)
# fail the run too (including the checkpoint durability torture suite —
# truncation/bit-flip parsing is exactly where lifetime bugs would hide —
# and the tree learner with its hostile-model-file loader tests).
# Then three smokes with the real daemon binaries: the durability drill (a
# failpoint power-cuts cordial_serverd mid-checkpoint; the restart must end
# byte-identical to an uninterrupted reference), the chain drill (same
# power cut, but in --checkpoint-mode=delta mid-delta-member; the restart
# must recover off the surviving chain prefix and the folded chains must be
# byte-identical) and the migration drill (cordial_feed drives two
# listening daemons, moves a shard between the processes mid-feed, and the
# merged checkpoint it collects must be byte-identical to the
# never-migrated reference).
# Finally five perf gates: instrumenting the serving hot path must cost
# <= 5% throughput vs the uninstrumented path (BENCH_obs.json), the
# lock-free batched ring must beat the pre-ring mutex queue >= 5x into a
# single shard (BENCH_queue.json), TCP ingest must sustain >= 80% of
# in-process SubmitBatch throughput at 8 connections (BENCH_net.json),
# serving under constant model hot-swaps must stay within 5% of the
# fixed-model path (BENCH_swap.json), and a steady-state dirty-bank delta
# checkpoint must be >= 10x cheaper than the full-text snapshot in both
# bytes and wall time on a >= 4k-bank fleet (BENCH_ckpt.json).
#
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan] [--skip-smoke]
#                         [--skip-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_ASAN=0
SKIP_SMOKE=0
SKIP_BENCH=0
for arg in "$@"; do
  [[ "$arg" == "--skip-tsan" ]] && SKIP_TSAN=1
  [[ "$arg" == "--skip-asan" ]] && SKIP_ASAN=1
  [[ "$arg" == "--skip-smoke" ]] && SKIP_SMOKE=1
  [[ "$arg" == "--skip-bench" ]] && SKIP_BENCH=1
done

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "tier1: skipping ThreadSanitizer pass (--skip-tsan)"
else
  cmake -B build-tsan -S . -DCORDIAL_SANITIZE=thread \
    -DCORDIAL_BUILD_BENCHMARKS=OFF -DCORDIAL_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j
  # Run the parallel-layer tests wide enough to exercise the worker pool,
  # plus the serving-layer tests (shard workers + checkpointing), the
  # observability tests (concurrent metric accumulation, scrape-under-fire,
  # the admin HTTP server) and the network plane (reactor loop thread,
  # ingest connections, cross-server shard migration) and the tree
  # learner's equivalence suite (rank table built under ParallelFor,
  # parallel per-feature split scans).
  CORDIAL_THREADS=8 ctest --test-dir build-tsan --output-on-failure \
    -R '^(Parallel|FleetServer|EngineCheckpoint|Obs|MpscRing|Net|Migration|Learn|ModelSwap|Persist|Chain|ReadDisturb|RowMapping|ForestSplit)'
fi

if [[ "$SKIP_ASAN" == "1" ]]; then
  echo "tier1: skipping AddressSanitizer pass (--skip-asan)"
else
  cmake -B build-asan -S . -DCORDIAL_SANITIZE=address \
    -DCORDIAL_BUILD_BENCHMARKS=OFF -DCORDIAL_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure \
    -R '^(BankProfile|PredictionEngine|StreamReplayer|Obs|Durability|Failpoint|Net|Migration|Learn|ModelSwap|Persist|Chain|ReadDisturb|RowMapping|RandomForest|ClassificationTree|Serialize|ForestSplit)'
fi

if [[ "$SKIP_SMOKE" == "1" ]]; then
  echo "tier1: skipping durability smoke (--skip-smoke)"
else
  # Crash/recovery drill with the real daemon binaries. The failpoint
  # power-cuts (::_exit 121) the second periodic checkpoint after its tmp
  # file is durable but before the rename publishes it; the restart must
  # recover from the first checkpoint, re-feed the lost records, and end in
  # a state byte-identical to an uninterrupted reference run.
  SMOKE=build/durability-smoke
  rm -rf "$SMOKE"
  mkdir -p "$SMOKE"
  ./build/examples/cordial_cli generate "$SMOKE/log.csv" > /dev/null
  ./build/examples/cordial_cli train "$SMOKE/log.csv" "$SMOKE/m" > /dev/null
  TOTAL=$(( $(wc -l < "$SMOKE/log.csv") - 1 ))  # minus the CSV header
  EVERY=$(( TOTAL / 4 ))
  [[ "$EVERY" -ge 1 ]] || { echo "tier1: smoke feed too small"; exit 1; }

  ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/log.csv" \
    --checkpoint "$SMOKE/ref.ckpt" --checkpoint-every "$EVERY" \
    --shards 2 --status-every 0 > /dev/null 2>&1

  set +e
  CORDIAL_FAILPOINTS="serve.checkpoint.crash_before_rename=1:1" \
    ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/log.csv" \
    --checkpoint "$SMOKE/crash.ckpt" --checkpoint-every "$EVERY" \
    --shards 2 --status-every 0 > /dev/null 2>&1
  CRASH_CODE=$?
  set -e
  if [[ "$CRASH_CODE" != "121" ]]; then
    echo "tier1: smoke expected power-cut exit 121, got $CRASH_CODE"
    exit 1
  fi
  # The cut happened after the tmp fsync: the unpublished file must exist.
  [[ -f "$SMOKE/crash.ckpt.tmp" ]] || {
    echo "tier1: smoke durable tmp file missing after power cut"; exit 1; }

  # The crashed run consumed 2*EVERY records but only EVERY are durable;
  # the restart re-feeds everything after the surviving checkpoint
  # (line 1 is the CSV header, so data record N is line N+1).
  tail -n +$(( EVERY + 2 )) "$SMOKE/log.csv" > "$SMOKE/rest.csv"
  ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/rest.csv" \
    --checkpoint "$SMOKE/crash.ckpt" --checkpoint-every "$EVERY" \
    --shards 2 --status-every 0 > /dev/null 2>&1
  cmp "$SMOKE/ref.ckpt" "$SMOKE/crash.ckpt"
  echo "tier1: durability smoke OK (power cut at record $(( 2 * EVERY ))," \
    "resumed from record $EVERY, final checkpoints byte-identical)"

  # Chain drill: the same power cut, but against the delta checkpoint
  # chain. In delta mode each interval durably writes a member then the
  # manifest, so durable-write hits run full(1) manifest(2) delta(3)
  # manifest(4) ...; skipping 2 cuts power mid-first-delta-member. Only the
  # full survives; the restart must recover off that chain prefix, re-feed
  # the lost records, and fold (cordial_ckpt export) to bytes identical to
  # an uninterrupted delta-mode reference run's fold.
  ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/log.csv" \
    --checkpoint "$SMOKE/chain-ref" --checkpoint-mode delta \
    --checkpoint-every "$EVERY" --shards 2 --status-every 0 > /dev/null 2>&1

  set +e
  CORDIAL_FAILPOINTS="serve.checkpoint.crash_before_rename=2:1" \
    ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/log.csv" \
    --checkpoint "$SMOKE/chain-crash" --checkpoint-mode delta \
    --checkpoint-every "$EVERY" --shards 2 --status-every 0 > /dev/null 2>&1
  CRASH_CODE=$?
  set -e
  if [[ "$CRASH_CODE" != "121" ]]; then
    echo "tier1: chain smoke expected power-cut exit 121, got $CRASH_CODE"
    exit 1
  fi
  # The surviving prefix (the epoch-1 full + manifest) must verify sound.
  ./build/examples/cordial_ckpt verify "$SMOKE/chain-crash" > /dev/null

  tail -n +$(( EVERY + 2 )) "$SMOKE/log.csv" > "$SMOKE/chain-rest.csv"
  ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/chain-rest.csv" \
    --checkpoint "$SMOKE/chain-crash" --checkpoint-mode delta \
    --checkpoint-every "$EVERY" --shards 2 --status-every 0 > /dev/null 2>&1
  ./build/examples/cordial_ckpt export "$SMOKE/chain-ref" \
    "$SMOKE/chain-ref.full" 2> /dev/null
  ./build/examples/cordial_ckpt export "$SMOKE/chain-crash" \
    "$SMOKE/chain-crash.full" 2> /dev/null
  cmp "$SMOKE/chain-ref.full" "$SMOKE/chain-crash.full"
  echo "tier1: chain smoke OK (power cut mid-delta at record $(( 2 * EVERY ))," \
    "resumed off the chain from record $EVERY, folded chains byte-identical)"

  # Migration smoke with two live daemons. Both serve the TCP ingest plane;
  # cordial_feed routes shards across them, moves shard 1 between processes
  # mid-feed, then collects a merged checkpoint from the final owners. It
  # must be byte-identical to the single-process never-migrated reference
  # the durability drill already produced from the same feed.
  NET_PIDS=""
  cleanup_net() { [[ -n "$NET_PIDS" ]] && kill $NET_PIDS 2>/dev/null || true; }
  trap cleanup_net EXIT
  ./build/examples/cordial_serverd "$SMOKE/m" --shards 2 --listen-port 0 \
    --status-every 0 > /dev/null 2> "$SMOKE/node_a.log" &
  NET_PIDS="$!"
  ./build/examples/cordial_serverd "$SMOKE/m" --shards 2 --listen-port 0 \
    --status-every 0 > /dev/null 2> "$SMOKE/node_b.log" &
  NET_PIDS="$NET_PIDS $!"
  for _ in $(seq 1 100); do
    grep -q "ingest listening on" "$SMOKE/node_a.log" 2>/dev/null &&
      grep -q "ingest listening on" "$SMOKE/node_b.log" 2>/dev/null && break
    sleep 0.1
  done
  PORT_A=$(sed -n 's/.*ingest listening on .*:\([0-9]*\)$/\1/p' \
    "$SMOKE/node_a.log" | head -1)
  PORT_B=$(sed -n 's/.*ingest listening on .*:\([0-9]*\)$/\1/p' \
    "$SMOKE/node_b.log" | head -1)
  [[ -n "$PORT_A" && -n "$PORT_B" ]] || {
    echo "tier1: net smoke daemons never announced their ports"; exit 1; }
  ./build/examples/cordial_feed "$SMOKE/log.csv" --shards 2 \
    --to "127.0.0.1:$PORT_A" --to "127.0.0.1:$PORT_B" \
    --migrate "1:0@$(( TOTAL / 2 ))" --collect "$SMOKE/merged.ckpt" \
    > /dev/null 2>&1
  kill $NET_PIDS 2>/dev/null || true
  wait $NET_PIDS 2>/dev/null || true
  NET_PIDS=""
  cmp "$SMOKE/ref.ckpt" "$SMOKE/merged.ckpt"
  echo "tier1: migration smoke OK (shard 1 moved between two processes at" \
    "record $(( TOTAL / 2 )), merged checkpoint byte-identical)"

  # Hostile-feed smoke: cordial_storm distorts the reference feed (UER
  # bursts, duplicates, window reordering, malformed lines, correlated
  # multi-bank CEs) and announces exactly how many lines it wrote and how
  # many a validating consumer must reject. The daemon's counters must
  # match exactly — every malformed line skipped at the parse boundary,
  # every valid record either processed or skew-dropped, none lost — and
  # the checkpoint it writes under that abuse must still be loadable.
  ./build/examples/cordial_storm "$SMOKE/log.csv" --burst 3 \
    --duplicate 0.1 --reorder 8 --garbage 0.05 --multi-bank 2 --seed 7 \
    > "$SMOKE/storm.csv" 2> "$SMOKE/storm.stats"
  STORM_LINES=$(sed -n 's/^STORM lines=\([0-9]*\) .*/\1/p' "$SMOKE/storm.stats")
  STORM_BAD=$(sed -n 's/^STORM .* malformed=\([0-9]*\)$/\1/p' "$SMOKE/storm.stats")
  [[ -n "$STORM_LINES" && -n "$STORM_BAD" && "$STORM_BAD" -gt 0 ]] || {
    echo "tier1: storm smoke produced no stats (lines=$STORM_LINES" \
      "malformed=$STORM_BAD)"; exit 1; }
  ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/storm.csv" \
    --checkpoint "$SMOKE/storm.ckpt" --checkpoint-every 0 \
    --shards 2 --status-every 0 > "$SMOKE/storm.out" 2>/dev/null
  SUBMITTED=$(grep "records submitted" "$SMOKE/storm.out" \
    | grep -o '[0-9]\+' | tail -1)
  MALFORMED=$(grep "malformed lines skipped" "$SMOKE/storm.out" \
    | grep -o '[0-9]\+' | tail -1)
  EVENTS=$(grep "events processed" "$SMOKE/storm.out" \
    | grep -o '[0-9]\+' | tail -1)
  SKEW=$(grep "stale records dropped (skew)" "$SMOKE/storm.out" \
    | grep -o '[0-9]\+' | tail -1)
  [[ "$MALFORMED" == "$STORM_BAD" ]] || {
    echo "tier1: storm smoke malformed mismatch: daemon=$MALFORMED" \
      "storm=$STORM_BAD"; exit 1; }
  [[ "$SUBMITTED" == "$(( STORM_LINES - STORM_BAD ))" ]] || {
    echo "tier1: storm smoke submitted mismatch: daemon=$SUBMITTED" \
      "expected=$(( STORM_LINES - STORM_BAD ))"; exit 1; }
  [[ "$(( EVENTS + SKEW ))" == "$SUBMITTED" ]] || {
    echo "tier1: storm smoke lost records: events=$EVENTS skew=$SKEW" \
      "submitted=$SUBMITTED"; exit 1; }
  ./build/examples/cordial_serverd "$SMOKE/m" --input /dev/null \
    --checkpoint "$SMOKE/storm.ckpt" --checkpoint-every 0 \
    --shards 2 --status-every 0 > /dev/null 2> "$SMOKE/storm.resume.log"
  grep -q "resumed from checkpoint" "$SMOKE/storm.resume.log" || {
    echo "tier1: storm smoke checkpoint did not resume"; exit 1; }
  echo "tier1: hostile-feed smoke OK ($STORM_LINES storm lines," \
    "$STORM_BAD malformed all skipped, $EVENTS processed + $SKEW" \
    "skew-dropped = $SUBMITTED submitted, checkpoint reloadable)"
fi

if [[ "$SKIP_BENCH" == "1" ]]; then
  echo "tier1: skipping observability overhead gate (--skip-bench)"
else
  # Exits non-zero when instrumentation costs more than 5% throughput.
  (cd build/bench && ./perf_obs_overhead)
  # Exits non-zero unless the lock-free batched ring beats the pre-ring
  # mutex queue >= 5x into one shard (BENCH_queue.json holds the rows).
  (cd build/bench && ./perf_queue_throughput)
  # Exits non-zero unless TCP ingest sustains >= 80% of in-process
  # SubmitBatch throughput at 8 connections (BENCH_net.json holds the rows).
  (cd build/bench && ./perf_net_ingest)
  # Exits non-zero when serving under constant identical-bits model
  # publishes costs more than 5% steady-state throughput vs the fixed-model
  # path (BENCH_swap.json holds the rows).
  (cd build/bench && ./perf_model_swap)
  # Exits non-zero unless a steady-state dirty-bank delta checkpoint is
  # >= 10x cheaper than the full-text snapshot in both bytes and wall time
  # on a >= 4k-bank fleet (BENCH_ckpt.json holds the rows).
  (cd build/bench && ./perf_checkpoint)
fi
echo "tier1: OK"
