#!/usr/bin/env bash
# Same stdout on two builds: runs a fixed list of paper benches and examples
# from two CMake build directories with the same flags, drops the `[run]`
# footer lines (wall time, peak RSS, artifact path), and prints any diff.
# exp_churn_resilience's BENCH_churn.json artifact is compared as well.
#
#   scripts/bench_stdout_diff.sh <parent-build> <change-build>
#
# Each build directory must hold bench/ and examples/ binaries (a Release
# build of the repo). Every invocation runs in its own scratch directory
# under $TMPDIR (removed on exit), the two sides of one invocation at the
# same time. The presets are small: the whole list takes a few minutes.
#
# Exit 0 = every stdout (and the artifact) matches, 1 = a diff remains,
# 2 = bad command line or a missing binary.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

# One invocation per line: <binary relative to the build dir> [flags...]
runs=(
  "bench/exp_network_size --nodes=200 --days=0.25"
  "bench/exp_monitor_count --nodes=150 --hours=4"
  "bench/exp_gateway_probing --nodes=150 --repeats=1"
  "bench/exp_churn_resilience --nodes=100 --hours=3"
  "bench/exp_countermeasures --nodes=120 --hours=6"
  "bench/exp_fig4_request_types --nodes=80 --days=3"
  "bench/exp_fig6_gateway_rates --nodes=200 --hours=12"
  "examples/countermeasures"
  "examples/privacy_attacks"
)

for run in "${runs[@]}"; do
  binary=${run%% *}
  for build in "$parent" "$change"; do
    if [[ ! -x "$build/$binary" ]]; then
      echo "missing binary: $build/$binary" >&2
      exit 2
    fi
  done
done

scratch=$(mktemp -d "${TMPDIR:-/tmp}/bench_stdout_diff.XXXXXX")
trap 'rm -rf "$scratch"' EXIT

status=0
index=0
for run in "${runs[@]}"; do
  index=$((index + 1))
  read -r -a words <<<"$run"
  binary=${words[0]}
  flags=("${words[@]:1}")
  pids=()
  for side in parent change; do
    build=$parent
    [[ $side == change ]] && build=$change
    dir="$scratch/$index-$side"
    mkdir -p "$dir"
    (cd "$dir" && "$build/$binary" "${flags[@]}" >stdout 2>stderr) &
    pids+=($!)
  done
  for pid in "${pids[@]}"; do
    if ! wait "$pid"; then
      echo "FAIL: $run exited non-zero (stderr in the scratch dir)" >&2
      status=1
    fi
  done
  for side in parent change; do
    grep -v '^\[run\]' "$scratch/$index-$side/stdout" \
      >"$scratch/$index-$side/filtered" || true
  done
  if diff -u --label "parent: $run" --label "change: $run" \
       "$scratch/$index-parent/filtered" "$scratch/$index-change/filtered"; then
    echo "same: $run"
  else
    status=1
  fi
  for artifact in "$scratch/$index-parent"/BENCH_*.json; do
    [[ -e $artifact ]] || continue
    name=$(basename "$artifact")
    if diff -u --label "parent: $name" --label "change: $name" \
         "$artifact" "$scratch/$index-change/$name"; then
      echo "same: $name"
    else
      status=1
    fi
  done
done

if [[ $status -eq 0 ]]; then
  echo "bench stdout: no diff"
else
  echo "bench stdout: DIFF (see above)"
fi
exit "$status"
