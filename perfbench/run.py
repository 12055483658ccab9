#!/usr/bin/env python3
"""End-to-end benchmark of the distance-oracle stack.

Builds perfbench/ (a CMake package that compiles ../src into its own
static library) and runs one workload:

    python3 perfbench/run.py --workload serve-uniform --seed 1 \
        --seconds 15 --trace 0

The last line of stdout is the result JSON ({"correct", "attempted",
"failed", "metrics"}): the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Lines before it are progress ('#') and provenance.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and traced and prints every metric by name
with its unit, the tracing overhead and the stage-sum residuals.

    python3 perfbench/run.py --smoke

runs a tiny-size mode of every workload, both ways, in seconds, and asserts
that each metric named in BENCHMARK.json is measured with its unit and that
the correctness gate passes.

BENCHMARK.json is the one list of metric names and units: the binary prints
what it measured, and this script checks that against the declared list and
prints the declared metrics of the mode.

Run from the repository root; everything it writes goes under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-uniform", "serve-zipf", "restart", "solve"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    binary = os.path.join(out, "perfbench")
    if not os.path.exists(binary):
        sys.stderr.write("perfbench: build produced no binary\n")
        sys.exit(1)
    return binary


def source_version():
    """The git commit when the tree is a repository, else a source digest."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (exit code, stdout lines, raw result or None).

    The raw result holds every metric the binary measured."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tiny", "1" if tiny else "0",
           "--work-dir", os.path.join(os.path.dirname(build_dir()), "perfbench-run"),
           "--rounds-file", os.path.join(HERE, "pinned_rounds.txt")]
    env = dict(os.environ, PERFBENCH_GIT_COMMIT=source_version())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or not keys <= result.keys():
        result = None
    return proc.returncode, lines, result


def declared_metrics():
    """(end_to_end, per_layer) name → unit maps from BENCHMARK.json, the one
    list of the benchmark's metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def select(raw, declared, trace):
    """The result line of one mode, built from the binary's raw result.

    It holds exactly the metrics BENCHMARK.json declares for the mode. A
    declared per-layer metric of a layer the workload does not exercise
    reads 0. A metric the run measured but BENCHMARK.json does not declare
    for the mode, an end-to-end metric the run did not measure, or a unit
    other than the declared one is a failed check. Returns (result, problems).
    """
    want = declared[1] if trace else declared[0]
    got = raw["metrics"]
    problems = ["metric not declared for this mode: %s" % name
                for name in got if name not in want]
    metrics = {}
    for name, unit in want.items():
        value = 0.0
        if name in got:
            value = got[name]["value"]
            if got[name]["unit"] != unit:
                problems.append("metric %s has unit %s, declared %s" % (
                    name, got[name]["unit"], unit))
        elif not trace:
            problems.append("metric not measured: %s" % name)
        metrics[name] = {"value": value, "unit": unit}
    result = {"correct": bool(raw["correct"]) and not problems,
              "attempted": raw["attempted"] + len(problems),
              "failed": raw["failed"] + len(problems),
              "metrics": metrics}
    return result, problems


def measure(binary, workload, seed, seconds, trace, tiny=False, echo=True):
    """Runs one workload and checks its metrics against BENCHMARK.json.

    Returns (exit code, raw result or None, result or None). With `echo`,
    prints the binary's progress and provenance lines and, last, the result.
    """
    code, lines, raw = run(binary, workload, seed, seconds, trace, tiny)
    result, problems = None, []
    if raw is not None:
        result, problems = select(raw, declared_metrics(), trace)
        lines = lines[:-1]
    if echo:
        for line in lines:
            print(line)
        for why in problems:
            print("# FAILED: %s" % why)
        if result is not None:
            print(json.dumps(result))
        sys.stdout.flush()
    if code == 0 and (result is None or problems):
        code = 1
    return code, raw, result


def smoke(binary):
    """Tiny runs of every workload, both modes: every run passes its checks,
    every end-to-end metric is measured by every workload, and every
    per-layer metric by at least one traced workload."""
    declared = declared_metrics()
    layers_measured = set()
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            code, raw, result = measure(binary, workload, 1, 2, trace,
                                        tiny=True, echo=False)
            problems = []
            if result is None:
                problems.append("no result line (exit code %d)" % code)
            else:
                if trace:
                    layers_measured.update(raw["metrics"])
                _, problems = select(raw, declared, trace)
                if not raw["correct"] or raw["failed"] != 0:
                    problems.append("correctness gate failed")
                if raw["attempted"] < 1:
                    problems.append("nothing attempted")
                if code != 0 and not problems:
                    problems.append("exit code %d" % code)
            print("smoke %-13s trace=%d: %s" % (
                workload, trace, "ok" if not problems else "; ".join(problems)))
            ok = ok and not problems
    never = sorted(set(declared[1]) - layers_measured)
    if never:
        print("smoke: per-layer metrics no workload measures: %s" % never)
        ok = False
    return 0 if ok else 1


def run_all(binary, seed, seconds):
    rows = {}
    code = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            rc, _, result = measure(binary, workload, seed, seconds, trace,
                                    echo=False)
            code = code or rc
            if result is None:
                print("%s trace=%d: no result" % (workload, trace))
                code = 1
                continue
            rows[(workload, trace)] = result
    for trace, title in ((False, "end-to-end"), (True, "per-layer (traced run)")):
        print("\n== %s metrics" % title)
        for workload in WORKLOADS:
            result = rows.get((workload, trace))
            if result is None:
                continue
            print("-- %s: correct=%s attempted=%d failed=%d" % (
                workload, result["correct"], result["attempted"], result["failed"]))
            for name, m in result["metrics"].items():
                print("   %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    print("\n== tracing overhead and stage sums")
    for workload in WORKLOADS:
        plain = rows.get((workload, False))
        traced = rows.get((workload, True))
        if plain is None or traced is None:
            continue
        base = plain["metrics"]["p50_us"]["value"]
        with_trace = traced["metrics"]["trace.p50_us"]["value"]
        print("-- %s: p50 %.1f us untraced, %.1f us traced (overhead %+.1f%%)" % (
            workload, base, with_trace,
            100.0 * (with_trace - base) / base if base else 0.0))
        for key in ("stagesum.build_residual_frac", "stagesum.load_residual_frac",
                    "stagesum.socket_residual_frac"):
            value = traced["metrics"][key]["value"]
            if value:
                print("   %-34s %+.2f%%" % (key, 100.0 * value))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.all or args.smoke):
        parser.error("one of --workload, --all, --smoke is required")
    binary = build()
    if args.smoke:
        return smoke(binary)
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    code, _, _ = measure(binary, args.workload, args.seed, args.seconds,
                         args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
