#!/usr/bin/env bash
# Tier-1 verification: doc-drift gate (scripts/check_docs.sh), configure,
# build, run the full test suite, then rebuild the sim + obs + tracestore +
# query + churn + federation suites under AddressSanitizer
# (`ctest -L 'sim|obs|tracestore|query|churn|federation'`) and the same
# suites under ThreadSanitizer (the query, tracestore and federation tests
# run real server, scan-pool and connection threads).
#
# --perf-smoke additionally runs `exp_query_throughput --smoke`, which
# fails when the warm watchlist scan rate drops below half the committed
# floor in bench/query_smoke_floor.json (a >2x scan-path regression).
#
# --federation-smoke runs `exp_federation --smoke`: two shippers stream
# into a live coordinator, one is killed mid-stream and restarted, and the
# unified /v1/stats answer must equal the single-store ground truth.
#
# --ingest-smoke ingests the committed capture fixtures in tests/data/
# (plain, gzip, and a corrupted variant under --lenient) and requires the
# deterministic replay checksum to match tests/data/capture_small.checksum,
# then runs `exp_ingest_replay --smoke` against the committed ingest floor.
#
# --scaling-smoke runs `exp_monitor_scaling --smoke`: a repeated
# single-shard 2000-node study must checksum identically, and its event
# rate must stay at or above half the committed floor in
# bench/scaling_smoke_floor.json.
#
# Usage: scripts/check.sh [--no-asan] [--no-tsan] [--perf-smoke]
#                         [--federation-smoke] [--ingest-smoke]
#                         [--scaling-smoke]
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_ASAN=1
RUN_TSAN=1
RUN_PERF=0
RUN_FED=0
RUN_INGEST=0
RUN_SCALING=0
for arg in "$@"; do
  case "$arg" in
    --no-asan) RUN_ASAN=0 ;;
    --no-tsan) RUN_TSAN=0 ;;
    --perf-smoke) RUN_PERF=1 ;;
    --federation-smoke) RUN_FED=1 ;;
    --ingest-smoke) RUN_INGEST=1 ;;
    --scaling-smoke) RUN_SCALING=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 1 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== docs: check_docs.sh =="
scripts/check_docs.sh

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure

if [[ "$RUN_PERF" == "1" ]]; then
  echo "== perf smoke: exp_query_throughput --smoke vs bench/query_smoke_floor.json =="
  cmake --build build -j "$JOBS" --target exp_query_throughput
  build/bench/exp_query_throughput --smoke
fi

if [[ "$RUN_FED" == "1" ]]; then
  echo "== federation smoke: exp_federation --smoke (kill a shipper mid-stream) =="
  cmake --build build -j "$JOBS" --target exp_federation
  build/bench/exp_federation --smoke
fi

if [[ "$RUN_INGEST" == "1" ]]; then
  echo "== ingest smoke: committed fixtures -> ingest -> deterministic replay =="
  cmake --build build -j "$JOBS" --target ipfsmon_ingest_cli exp_ingest_replay
  SCRATCH="$(mktemp -d)"
  trap 'rm -rf "$SCRATCH"' EXIT
  WANT="$(cat tests/data/capture_small.checksum)"
  build/examples/ipfsmon_ingest --capture tests/data/capture_small.ndjson \
    --store "$SCRATCH/plain"
  build/examples/ipfsmon_ingest --replay "$SCRATCH/plain" \
    --expect-checksum "$WANT"
  build/examples/ipfsmon_ingest --capture tests/data/capture_small.ndjson.gz \
    --store "$SCRATCH/gzip"
  build/examples/ipfsmon_ingest --replay "$SCRATCH/gzip" \
    --expect-checksum "$WANT"
  # The corrupted fixture is capture_small plus garbage lines: strict must
  # refuse it, lenient must quarantine the garbage and replay identically.
  # (--format ndjson: the fixture's very first line is garbage, so format
  # auto-sniffing cannot be trusted to see NDJSON.)
  if build/examples/ipfsmon_ingest --capture tests/data/capture_corrupt.ndjson \
       --format ndjson --store "$SCRATCH/strict" >/dev/null 2>&1; then
    echo "strict ingest of the corrupt fixture unexpectedly succeeded" >&2
    exit 1
  fi
  build/examples/ipfsmon_ingest --capture tests/data/capture_corrupt.ndjson \
    --format ndjson --store "$SCRATCH/lenient" --lenient
  build/examples/ipfsmon_ingest --replay "$SCRATCH/lenient" \
    --expect-checksum "$WANT"
  build/bench/exp_ingest_replay --smoke
fi

if [[ "$RUN_SCALING" == "1" ]]; then
  echo "== scaling smoke: exp_monitor_scaling --smoke (determinism + floor) =="
  cmake --build build -j "$JOBS" --target exp_monitor_scaling
  build/bench/exp_monitor_scaling --smoke
fi

if [[ "$RUN_ASAN" == "1" ]]; then
  echo "== asan: sim + obs + tracestore + ingest + query + churn + federation suites under -DIPFSMON_SANITIZE=address =="
  cmake -B build-asan -S . -DIPFSMON_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS" --target sim_test obs_test span_test \
    tracestore_test ingest_test query_test churn_test federation_test \
    trace_report
  ctest --test-dir build-asan \
    -L 'sim|obs|tracestore|ingest|query|churn|federation' --output-on-failure
fi

if [[ "$RUN_TSAN" == "1" ]]; then
  echo "== tsan: sim + obs + query + tracestore + ingest + churn + federation suites under -DIPFSMON_SANITIZE=thread =="
  cmake -B build-tsan -S . -DIPFSMON_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target sim_test obs_test span_test \
    query_test tracestore_test ingest_test churn_test federation_test \
    trace_report
  ctest --test-dir build-tsan \
    -L 'sim|obs|query|tracestore|ingest|churn|federation' --output-on-failure
fi

echo "== all checks passed =="
