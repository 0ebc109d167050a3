#!/usr/bin/env bash
# Builds the benchmark (Release) and runs it.
#
#   benchmark/run.sh [--seed S] [--workload W] [--trace 0|1] [--out DIR]
#                    [--seconds S]
#
# Without --workload every workload runs; without --trace each runs twice,
# end-to-end (--trace 0) and per-layer (--trace 1). Each run is its own
# process, so peak_rss_mb belongs to that workload. Every run prints
# `name value unit` lines and, last, one JSON object; results land in
# DIR/<workload>.json (end-to-end), DIR/<workload>.layers.json and
# DIR/<workload>.trace.json (per-layer). --seconds is passed through to the
# binary; the runner that reads BENCHMARK.json passes its run_seconds, which
# is also the binary's default. Exits non-zero when the build fails or any
# correctness check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-benchmark"
seed=1
out="$build/out"
trace=""
extra=()
workloads=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) extra+=(--seconds "$2"); shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(testbed_alexnet6 longtail_int8_lossy hier_lazy_32k async_afo_ckpt)
fi
modes=(0 1)
if [[ -n "$trace" ]]; then modes=("$trace"); fi

mkdir -p "$build" "$out"
jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then jobs=4; fi
# Configure once; later builds re-run CMake themselves when a list changes.
if ! { { [[ -f "$build/CMakeCache.txt" ]] ||
         cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" -j "$jobs" --target helios-benchmark; } \
       > "$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 1
fi

status=0
for w in "${workloads[@]}"; do
  for t in "${modes[@]}"; do
    "$build/helios-benchmark" --workload "$w" --seed "$seed" --trace "$t" \
      --out "$out" ${extra[@]+"${extra[@]}"} || status=1
  done
done
exit "$status"
