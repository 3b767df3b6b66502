#!/usr/bin/env bash
# Tier-1 verification: doc-drift gate (scripts/check_docs.sh), the
# one-file-layer and one-codec gate (no `st_mtim`, `strtol`/`strtoll`/
# `strtoul`/`strtoull` or ".tmp" literal in src/ outside src/util/: file
# signatures, integer fields and publish temps all go through src/util/file;
# no `mmap` and no raw global `::open(` in src/ outside src/util/: every
# file byte src/ reads comes through util/file's read_file/read_file_tail,
# segments included; no little-endian put/get helper defined and no FNV-1a
# constant in src/ outside src/util/: binary encoding, decoding and hashing
# go through src/util/codec; no `strto*`, `ato*`, `std::sto*` or
# `from_chars` in examples/ or bench/: every binary reads argv through
# util::Flags, so numbers from a command line parse in src/util only),
# configure,
# build, run the full test suite, build src/, bench/, examples/ and tests/
# again in Release with -Werror (`build-werror/`), then rebuild the util + sim + obs + core +
# analysis + tracestore + ingest + query + churn + federation suites under
# AddressSanitizer
# (`ctest -L 'util|sim|obs|core|analysis|tracestore|ingest|query|churn|federation'`;
# `util` is the byte codecs and the JSON reader that decodes capture lines,
# `core` is the net, DHT, Bitswap, node and scenario suites, golden trace
# included, `analysis` is the trace, analysis, attacks and monitor suites),
# the same suites under UndefinedBehaviorSanitizer (halting on the first
# finding), and all but `analysis` under ThreadSanitizer (the query,
# tracestore and federation tests run real server, scan-pool and
# connection threads).
#
# --perf-smoke additionally runs `exp_query_throughput --smoke`: it writes a
# 60k-entry generated store to a fresh temp directory, warms it with one
# 64-peer watchlist scan, times two more, and fails when that warm rate
# drops below half the committed floor in bench/query_smoke_floor.json (a
# >2x scan-path regression) or the floor is missing.
#
# --federation-smoke runs `exp_federation --smoke`: two shippers stream
# into a live coordinator, one is killed mid-stream and restarted, and the
# unified /v1/stats answer must equal the single-store ground truth.
#
# --ingest-smoke ingests the committed capture fixtures in tests/data/
# (plain, gzip, and a corrupted variant under --lenient) and requires the
# deterministic replay checksum to match tests/data/capture_small.checksum,
# then runs `exp_ingest_replay --smoke`: a generated 20k-entry capture is
# ingested plain and gzip'd in a fresh temp directory, the plain store must
# replay to the same checksum twice and the gzip store to the same stream,
# and the plain ingest rate must stay at or above half the committed floor
# in bench/ingest_smoke_floor.json.
#
# --scaling-smoke runs `exp_monitor_scaling --smoke`: a 2000-node study
# (0.5 simulated hours, seed 42) run twice must checksum identically, and
# its event rate must stay at or above half the committed floor in
# bench/scaling_smoke_floor.json.
#
# Usage: scripts/check.sh [--no-asan] [--no-ubsan] [--no-tsan] [--perf-smoke]
#                         [--federation-smoke] [--ingest-smoke]
#                         [--scaling-smoke]
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_ASAN=1
RUN_UBSAN=1
RUN_TSAN=1
RUN_PERF=0
RUN_FED=0
RUN_INGEST=0
RUN_SCALING=0
for arg in "$@"; do
  case "$arg" in
    --no-asan) RUN_ASAN=0 ;;
    --no-ubsan) RUN_UBSAN=0 ;;
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

echo "== one file layer, one codec, one command line: st_mtim / strto(u)l(l) / \".tmp\" / mmap / ::open( / LE helpers / FNV-1a only in src/util, no number parsing in examples or bench =="
if grep -rnE --exclude-dir=util 'st_mtim|\bstrtou?ll?\b|"\.tmp"' src; then
  echo "use util/file (file_signature, parse_u64/parse_i64, publish)" >&2
  exit 1
fi
if grep -rnE --exclude-dir=util '\bmmap\b|(^|[^A-Za-z0-9_])::open\(' src; then
  echo "read files through util/file (read_file, read_file_tail)" >&2
  exit 1
fi
if grep -rnE --exclude-dir=util \
     '^\s*((static|inline|constexpr)\s+)*(void|auto|(std::)?u?int(8|16|32|64)_t)\s+[A-Za-z_0-9]*(_le|_u(8|16|32|64))\s*\(' src; then
  echo "use util/codec (put_le/store_le, ByteReader) instead of a local LE helper" >&2
  exit 1
fi
if grep -rniE --exclude-dir=util 'cbf29ce484222325|100000001b3' src; then
  echo "use util::fnv1a64 / util::kFnv1aOffset (util/codec)" >&2
  exit 1
fi
if grep -rnE '\b(strto[a-z]+|ato(i|l|ll|f)|sto(i|l|ll|ul|ull|f|d|ld)|from_chars)\b' \
     examples bench; then
  echo "read argv through util::Flags (numbers parse in src/util only)" >&2
  exit 1
fi

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure

echo "== warnings: Release build of src/, bench/, examples/ and tests/ with -Werror =="
cmake -B build-werror -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-werror -j "$JOBS"

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
  echo "== asan: util + sim + obs + core + analysis + tracestore + ingest + query + churn + federation suites under -DIPFSMON_SANITIZE=address =="
  cmake -B build-asan -S . -DIPFSMON_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS" --target util_test sim_test obs_test span_test \
    net_test dht_test bitswap_test node_test scenario_test \
    trace_test analysis_test attacks_test monitor_test \
    tracestore_test ingest_test query_test churn_test federation_test \
    trace_report
  ctest --test-dir build-asan \
    -L 'util|sim|obs|core|analysis|tracestore|ingest|query|churn|federation' --output-on-failure
fi

if [[ "$RUN_UBSAN" == "1" ]]; then
  echo "== ubsan: util + sim + obs + core + analysis + tracestore + ingest + query + churn + federation suites under -DIPFSMON_SANITIZE=undefined =="
  cmake -B build-ubsan -S . -DIPFSMON_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$JOBS" --target util_test sim_test obs_test span_test \
    net_test dht_test bitswap_test node_test scenario_test \
    trace_test analysis_test attacks_test monitor_test \
    tracestore_test ingest_test query_test churn_test federation_test \
    trace_report
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 ctest --test-dir build-ubsan \
    -L 'util|sim|obs|core|analysis|tracestore|ingest|query|churn|federation' --output-on-failure
fi

if [[ "$RUN_TSAN" == "1" ]]; then
  echo "== tsan: util + sim + obs + core + query + tracestore + ingest + churn + federation suites under -DIPFSMON_SANITIZE=thread =="
  cmake -B build-tsan -S . -DIPFSMON_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target util_test sim_test obs_test span_test \
    net_test dht_test bitswap_test node_test scenario_test \
    query_test tracestore_test ingest_test churn_test federation_test \
    trace_report
  ctest --test-dir build-tsan \
    -L 'util|sim|obs|core|query|tracestore|ingest|churn|federation' --output-on-failure
fi

echo "== all checks passed =="
