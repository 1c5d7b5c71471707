#!/usr/bin/env bash
# Builds (if needed) and runs the perf snapshot benches, leaving a
# machine-readable BENCH_kvcc.json in the repo root so the benchmark
# trajectory can be tracked across commits.
#
# The build is verified (and if necessary forced) to be a Release build:
# a previous revision of this script reused whatever build directory it
# found and silently recorded debug-build numbers. Every snapshot line is
# stamped with the build type and git commit so a stray debug number can
# never masquerade as a trajectory point again.
#
# usage: tools/run_bench.sh [build-dir] [out-file]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
OUT_FILE="${2:-$REPO_ROOT/BENCH_kvcc.json}"

build_type() {
  sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null
}

# Configure fresh, or reconfigure an existing dir whose build type is not
# Release (cmake updates the cached entry in place; ninja/make then rebuild
# whatever the flag change dirties).
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
elif [[ "$(build_type)" != "Release" ]]; then
  echo "run_bench.sh: $BUILD_DIR is a '$(build_type)' build; forcing Release" >&2
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
fi

cmake --build "$BUILD_DIR" -j \
  --target bench_scalability_threads bench_batch_throughput \
           bench_stream_latency bench_cancellation bench_cut_oracle \
           bench_serving bench_incremental bench_micro_kvcc 2>/dev/null ||
  cmake --build "$BUILD_DIR" -j

BUILD_TYPE="$(build_type)"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "run_bench.sh: refusing to record a '$BUILD_TYPE' build" >&2
  exit 1
fi
# --always --dirty: a snapshot from an uncommitted tree says so.
GIT_COMMIT="$(git -C "$REPO_ROOT" describe --always --dirty 2>/dev/null || echo unknown)"

rm -f "$OUT_FILE"

# Thread-scalability sweep (also validates identical output per thread
# count). Emits two snapshot lines: the planted bushy-recursion workload and
# the shallow single-k-VCC workload whose scaling comes entirely from the
# intra-GLOBAL-CUT probe wavefronts (probe-waste stats included).
"$BUILD_DIR/bench_scalability_threads" --threads=1,2,4 --json="$OUT_FILE" \
  --build-type="$BUILD_TYPE" --commit="$GIT_COMMIT"

# Batch serving throughput on the shared engine.
"$BUILD_DIR/bench_batch_throughput" --threads=1,2,4 --json="$OUT_FILE" \
  --build-type="$BUILD_TYPE" --commit="$GIT_COMMIT"

# Streaming delivery latency (time-to-first/median/last component vs the
# buffered Wait; also re-checks streamed-multiset identity).
"$BUILD_DIR/bench_stream_latency" --threads=1,2,4 --json="$OUT_FILE" \
  --build-type="$BUILD_TYPE" --commit="$GIT_COMMIT"

# Job control: abandonment reclaim latency (must land far under the full
# drain) and bounded-stream backpressure (peak buffer capped at the limit;
# fails hard if the bound is exceeded or a multiset diverges).
"$BUILD_DIR/bench_cancellation" --threads=1,2,4 --json="$OUT_FILE" \
  --build-type="$BUILD_TYPE" --commit="$GIT_COMMIT"

# CutOracle probe engines: per-probe arc inspections and end-to-end time
# for Dinic vs LocalVC vs Hybrid on the hub-heavy and planted scenarios
# (hard-fails if any engine's decomposition diverges from the baseline).
"$BUILD_DIR/bench_cut_oracle" --json="$OUT_FILE" \
  --build-type="$BUILD_TYPE" --commit="$GIT_COMMIT"

# kvccd serving: cold decompose vs cache-served repeat through the full
# protocol loop (hard-fails if a cached response is not byte-identical to
# the cold run or the cached path is under the 10x serving gate).
"$BUILD_DIR/bench_serving" --json="$OUT_FILE" \
  --build-type="$BUILD_TYPE" --commit="$GIT_COMMIT"

# Incremental re-decomposition: dirty-region update vs cold hierarchy
# rebuild per single-edge mutation batch (hard-fails if the incremental
# hierarchy ever diverges from a cold rebuild, if a localized edit
# dirties the whole decomposition, or if the speedup is under 2x).
"$BUILD_DIR/bench_incremental" --json="$OUT_FILE" \
  --build-type="$BUILD_TYPE" --commit="$GIT_COMMIT"

# google-benchmark micro suite, if it was built. The report is wrapped in
# an envelope carrying OUR build stamp: the inner context's
# "library_build_type" describes how the google-benchmark *library
# package* was compiled (Debian ships it as "debug"), not this repo.
if [[ -x "$BUILD_DIR/bench_micro_kvcc" ]]; then
  MICRO_OUT="$(mktemp)"
  "$BUILD_DIR/bench_micro_kvcc" --benchmark_format=json \
    --benchmark_min_time=0.1 >"$MICRO_OUT" 2>/dev/null
  # Append as one more JSON line: one snapshot object per line.
  printf '{"bench": "micro_kvcc", "build_type": "%s", "git_commit": "%s", "report": ' \
    "$BUILD_TYPE" "$GIT_COMMIT" >>"$OUT_FILE"
  tr -d '\n' <"$MICRO_OUT" >>"$OUT_FILE"
  printf '}\n' >>"$OUT_FILE"
  rm -f "$MICRO_OUT"
fi

if ! grep -q '"build_type": "Release"' "$OUT_FILE"; then
  echo "run_bench.sh: snapshot is missing the Release stamp" >&2
  exit 1
fi
if ! grep -q '"bench": "batch_throughput"' "$OUT_FILE"; then
  echo "run_bench.sh: snapshot is missing the batch-throughput entry" >&2
  exit 1
fi
if ! grep -q '"bench": "scalability_threads_shallow"' "$OUT_FILE" ||
   ! grep -q '"probes_launched"' "$OUT_FILE"; then
  echo "run_bench.sh: snapshot is missing the shallow-recursion wavefront entry" >&2
  exit 1
fi
if ! grep -q '"bench": "stream_latency"' "$OUT_FILE" ||
   ! grep -q '"first_component_ms"' "$OUT_FILE"; then
  echo "run_bench.sh: snapshot is missing the streaming-latency entry" >&2
  exit 1
fi
if ! grep -q '"bench": "cancellation"' "$OUT_FILE" ||
   ! grep -q '"abandon_reclaim_ms"' "$OUT_FILE" ||
   ! grep -q '"bounded_peak_buffered"' "$OUT_FILE"; then
  echo "run_bench.sh: snapshot is missing the job-control entry" >&2
  exit 1
fi
if ! grep -q '"bench": "cut_oracle"' "$OUT_FILE" ||
   ! grep -q '"scenario": "hub_heavy"' "$OUT_FILE" ||
   ! grep -q '"probe_edges_touched"' "$OUT_FILE" ||
   ! grep -q '"edges_touched_ratio_vs_dinic"' "$OUT_FILE"; then
  echo "run_bench.sh: snapshot is missing the cut-oracle entry" >&2
  exit 1
fi
if ! grep -q '"bench": "serving"' "$OUT_FILE" ||
   ! grep -q '"byte_identical": true' "$OUT_FILE"; then
  echo "run_bench.sh: snapshot is missing the kvccd serving entry" >&2
  exit 1
fi
if ! grep -q '"bench": "incremental"' "$OUT_FILE" ||
   ! grep -q '"dirty_components"' "$OUT_FILE"; then
  echo "run_bench.sh: snapshot is missing the incremental entry" >&2
  exit 1
fi
echo "perf snapshot written to $OUT_FILE (Release @ $GIT_COMMIT)"
