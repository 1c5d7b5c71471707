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
  --target bench_cancellation bench_serving bench_incremental 2>/dev/null ||
  cmake --build "$BUILD_DIR" -j

BUILD_TYPE="$(build_type)"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "run_bench.sh: refusing to record a '$BUILD_TYPE' build" >&2
  exit 1
fi
# --always --dirty: a snapshot from an uncommitted tree says so.
GIT_COMMIT="$(git -C "$REPO_ROOT" describe --always --dirty 2>/dev/null || echo unknown)"

rm -f "$OUT_FILE"

# Job control: abandonment reclaim latency (must land far under the full
# drain) and bounded-stream backpressure (peak buffer capped at the limit;
# fails hard if the bound is exceeded or a multiset diverges).
"$BUILD_DIR/bench_cancellation" --threads=1,2,4 --json="$OUT_FILE" \
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

if ! grep -q '"build_type": "Release"' "$OUT_FILE"; then
  echo "run_bench.sh: snapshot is missing the Release stamp" >&2
  exit 1
fi
if ! grep -q '"bench": "cancellation"' "$OUT_FILE" ||
   ! grep -q '"abandon_reclaim_ms"' "$OUT_FILE" ||
   ! grep -q '"bounded_peak_buffered"' "$OUT_FILE"; then
  echo "run_bench.sh: snapshot is missing the job-control entry" >&2
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
