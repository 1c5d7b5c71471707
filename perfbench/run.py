#!/usr/bin/env python3
"""Builds and runs the repository benchmark (README.md in this directory).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The library, the kvccd daemon and the
benchmark program are built from source in Release mode under $CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is the one-line
JSON result; the exit status is non-zero when any output was wrong, the
build failed, or the build is not a Release build.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper_sweep_t1", "paper_sweep_t4", "kvccd_mixed")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cached_build_type(build):
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    """Configures (Release only) and builds; build output goes to stderr."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} is missing beside perfbench/; "
                     "run from the root of a full checkout")
    out = build_dir()
    fresh = not os.path.exists(os.path.join(out, "CMakeCache.txt"))
    try:
        if cached_build_type(out) != "Release":
            generator = ["-G", "Ninja"] if fresh and shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                        "--parallel", str(min(4, os.cpu_count() or 1))],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    if cached_build_type(out) != "Release":
        sys.exit("perfbench: refusing to measure a non-Release build")
    return out


def commit():
    # Only this checkout's own repository counts, not one that encloses it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def run_benchmark(build, workload, seed, seconds, trace, extra=(), capture=False):
    work = os.path.join(build, "work", workload)
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(build, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--bench-dir", BENCH_DIR,
               "--work-dir", work, "--kvccd", os.path.join(build, "kvcc", "kvccd"),
               "--commit", commit()] + list(extra)
    bench = subprocess.Popen(command, start_new_session=True, text=True,
                             stdout=subprocess.PIPE if capture else None)
    output, _ = bench.communicate()
    # The benchmark program stops the daemon it starts; this also reaps a
    # daemon left behind by a program that crashed.
    try:
        os.killpg(bench.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return bench.returncode, output


def result_of(output):
    return json.loads(output.strip().splitlines()[-1])


def self_test(build):
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        failures += 0 if ok else 1

    code = subprocess.run([os.path.join(build, "perfbench"), "--self-test"]).returncode
    check(code == 0, "unit checks of the benchmark program")

    code, output = run_benchmark(build, "kvccd_mixed", 1, 10, 0,
                              ["--corrupt-response", "5"], capture=True)
    result = result_of(output)
    check(code != 0 and not result["correct"] and result["failed"] >= 1,
          "an altered component line fails the run "
          f"(exit {code}, failed {result['failed']} of {result['attempted']})")

    count_metrics = ("kvcc.probe.flow_calls", "kvcc.probe.edges_touched",
                     "kvcc.global_cut.calls", "kvcc.partition.count",
                     "kvcc.side_vertex.checks", "exec.probes_launched",
                     "server.cache.hit_ratio", "server.cache.evictions",
                     "kvcc.incremental.dirty_share", "kvcc.incremental.reruns")
    for workload in ("kvccd_mixed", "paper_sweep_t4"):
        runs = [run_benchmark(build, workload, 3, 10, 1, capture=True)
                for _ in range(2)]
        counts = [{name: result_of(out)["metrics"][name]["value"]
                   for name in count_metrics} for _, out in runs]
        stats = [[line for line in out.splitlines()
                  if line.startswith("# daemon stats")] for _, out in runs]
        check(all(code == 0 for code, _ in runs) and counts[0] == counts[1]
              and stats[0] == stats[1],
              f"two traced {workload} runs with one seed repeat every count")
    print(f"{failures} self-test failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and print each report")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.all or args.self_test or args.workload):
        parser.error("give --workload, --all or --self-test")

    built = build()
    if args.self_test:
        return self_test(built)
    if args.all:
        worst = 0
        for workload in WORKLOADS:
            print(f"== {workload}", flush=True)
            code, _ = run_benchmark(built, workload, args.seed, args.seconds,
                                 args.trace)
            worst = max(worst, code)
        return worst
    code, _ = run_benchmark(built, args.workload, args.seed, args.seconds,
                         args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
