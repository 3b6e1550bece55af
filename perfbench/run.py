#!/usr/bin/env python3
"""Builds and runs the wmesh end-to-end benchmark.

    python3 perfbench/run.py --workload gen|analyze --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first run configures and builds the
wmesh library from src/ together with the perfbench program (CMake,
RelWithDebInfo) into $CARGO_TARGET_DIR, default .bench_build; later runs
only re-check the build.  Temporary files, the serve socket and span dumps go
to .perfbench_out/.

The program prints one line per metric and, as the last line of standard
output, one JSON object {"correct", "attempted", "failed", "metrics"}.  This
wrapper checks that line against BENCHMARK.json -- the end-to-end metrics
with --trace 0, the per-layer ones with --trace 1, each with its unit --
and exits non-zero, printing no result, when the build, the run or that
check fails.

--self-test runs every workload at small_config() size, traced and
untraced, checks that every named metric is printed with its unit and that
nothing failed, and then checks that a corrupted compared output in each
stage is counted as a failed operation.  Serve is never a workload's own
stage, so its corruption is checked on the gen workload.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = ".perfbench_out"
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no wmesh sources under src/; nothing to build")
        return None
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def run_program(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the program; returns (exit code, stdout lines, parsed result)."""
    try:
        proc = subprocess.run([binary, "--out", OUT_DIR] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench timed out after %d s" % timeout)
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def check_result(result, expected):
    """Problems with a result line, as a list of strings."""
    if not isinstance(result, dict):
        return ["last line of output is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append("missing metrics: " + ", ".join(missing))
    if extra:
        problems.append("metrics not in BENCHMARK.json: " + ", ".join(extra))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append("%s: unit %r, expected %r" % (name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s: value %r is not a finite number" % (name, v))
    return problems


def run_once(args):
    binary = build()
    if binary is None:
        return 1
    trace = args.trace == 1
    _, expected = expected_metrics(trace)
    code, lines, result = run_program(
        binary, ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)])
    problems = [] if code == 0 else ["perfbench exited with code %d" % code]
    problems += check_result(result, expected)
    if problems:
        for line in lines:
            print(line, file=sys.stderr)
        for p in problems:
            log(p)
        return 1
    print("\n".join(lines), flush=True)
    return 0


def self_test():
    binary = build()
    if binary is None:
        return 1
    spec, _ = expected_metrics(False)
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            _, expected = expected_metrics(trace == 1)
            t0 = time.time()
            code, lines, result = run_program(
                binary, ["--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--small"])
            problems = [] if code == 0 else ["exit code %d" % code]
            problems += check_result(result, expected)
            if result and (not result.get("correct") or result.get("failed")):
                problems.append("reported failed operations")
            # Every metric also has a human-readable "name value unit" line.
            shown = {l.split()[0]: l.split()[2] for l in lines[:-1] if len(l.split()) >= 3}
            for metric, unit in expected.items():
                if shown.get(metric) != unit:
                    problems.append("%s not printed with unit %s" % (metric, unit))
            status = "ok" if not problems else "FAIL"
            print("self-test %-8s trace=%d %s (%.1f s)" % (name, trace, status, time.time() - t0))
            failures += ["%s trace=%d: %s" % (name, trace, p) for p in problems]
    for workload, stage in (("gen", "gen"), ("analyze", "analyze"), ("gen", "serve")):
        code, _, result = run_program(
            binary, ["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "0", "--small", "--corrupt", stage])
        caught = (code == 0 and isinstance(result, dict)
                  and result.get("failed", 0) >= 1 and result.get("correct") is False)
        print("self-test corrupt %-8s %s" % (stage, "caught" if caught else "FAIL"))
        if not caught:
            failures.append("corrupted %s output was not counted as failed" % stage)
    for f in failures:
        log(f)
    print("self-test: %s" % ("PASS" if not failures else "FAIL"))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
