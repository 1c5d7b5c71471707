#!/usr/bin/env bash
# Paired runs of the repository benchmark: a parent commit against this
# checkout, alternating, one pair per seed.
#
#   tools/bench_pairs.sh <parent-ref> <workload> <seconds> <seed>...
#
# The parent is exported with `git archive` into $BENCH_PAIRS_DIR (default
# .bench_pairs/ at the root of this checkout); an export leaves the
# repository itself untouched. Each side builds perfbench in its own
# directory there, before the first run. Then every seed runs
# `python3 perfbench/run.py --workload <workload> --seed <seed> --seconds
# <seconds>` once on each side, the side that goes first alternating from
# pair to pair. The steal ticks of /proc/stat (CPU time a hypervisor gave
# to other guests while this one was ready to run) are read before and
# after every run.
#
# Prints one line per run (side, seed, steal ticks, correctness and the
# end-to-end metrics), then for every metric each side's median and
# quartiles, the parent's interquartile range and in how many pairs this
# checkout read lower. Every metric is better lower. A run that fails
# stops the script.
set -euo pipefail

if [[ $# -lt 4 ]]; then
  echo "usage: $0 <parent-ref> <workload> <seconds> <seed>..." >&2
  exit 2
fi
parent_ref=$1
workload=$2
seconds=$3
shift 3
seeds=("$@")

root=$(cd "$(dirname "$0")/.." && pwd)
parent_sha=$(git -C "$root" rev-parse --verify "${parent_ref}^{commit}")
work=${BENCH_PAIRS_DIR:-$root/.bench_pairs}
mkdir -p "$work"
work=$(cd "$work" && pwd)
parent_tree=$work/parent-${parent_sha:0:12}
if [[ ! -f $parent_tree/CMakeLists.txt ]]; then
  mkdir -p "$parent_tree"
  git -C "$root" archive "$parent_sha" | tar -x -C "$parent_tree"
fi

declare -A tree=([parent]=$parent_tree [change]=$root)
declare -A target=([parent]=$work/build-parent-${parent_sha:0:12}
                   [change]=$work/build-change)

# perfbench/run.py's own build step, so the first timed run starts warm.
for side in parent change; do
  (cd "${tree[$side]}" &&
   CARGO_TARGET_DIR=${target[$side]} python3 -c \
     'import sys; sys.path.insert(0, "perfbench"); import run; run.build()' \
     > /dev/null)
done

steal_ticks() { awk '$1 == "cpu" { print $9 }' /proc/stat; }

# `report last FILE` prints the line of FILE's last run; `report summary
# FILE` compares the two sides over every pair in FILE.
report() {
  python3 - "$@" <<'PY'
import json
import statistics
import sys

METRICS = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")


def spread(values):
    """Median and quartiles, as `median [q1, q3]`, and the IQR."""
    q1 = q3 = values[0]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]", q3 - q1


mode, path = sys.argv[1:]
rows = [row.rstrip("\n").split("\t", 4) for row in open(path)]
if mode == "last":
    pair, side, seed, steal, line = rows[-1]
    result = json.loads(line)
    values = " ".join(f"{name}={result['metrics'][name]['value']}"
                      for name in METRICS)
    print(f"pair {pair} {side:6} seed {seed} steal {steal} "
          f"correct {result['correct']} failed {result['failed']} {values}")
    sys.exit(0)
runs = {(int(pair), side): json.loads(line)["metrics"]
        for pair, side, _, _, line in rows}
pairs = sorted({pair for pair, _ in runs})
print(f"{len(pairs)} pairs")
for name in METRICS:
    parent = [runs[(p, "parent")][name]["value"] for p in pairs]
    change = [runs[(p, "change")][name]["value"] for p in pairs]
    parent_text, parent_iqr = spread(parent)
    change_text, _ = spread(change)
    lower = sum(c < p for p, c in zip(parent, change))
    print(f"{name}: parent {parent_text}, change {change_text}, "
          f"parent IQR {parent_iqr:.4g}, lower in {lower} of {len(pairs)}")
PY
}

results=$work/pairs-$workload-$(date +%Y%m%d-%H%M%S).tsv
: > "$results"
pair=0
for seed in "${seeds[@]}"; do
  if (( pair % 2 == 0 )); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do
    before=$(steal_ticks)
    output=$(cd "${tree[$side]}" &&
             CARGO_TARGET_DIR=${target[$side]} python3 perfbench/run.py \
               --workload "$workload" --seed "$seed" --seconds "$seconds" \
               --trace 0 2> /dev/null) || {
      echo "bench_pairs: $side run of seed $seed failed" >&2
      exit 1
    }
    after=$(steal_ticks)
    printf '%s\t%s\t%s\t%s\t%s\n' "$pair" "$side" "$seed" \
      "$((after - before))" "$(tail -n 1 <<< "$output")" >> "$results"
    report last "$results"
  done
  pair=$((pair + 1))
done
report summary "$results"
