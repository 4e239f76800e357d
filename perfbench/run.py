#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/ (which compiles
the library from src/) into .bench_build/perfbench, then runs the workload
in its own process with the thread settings and fixed parameters of
perfbench/workloads.json, and prints the workload's notes followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the workload runs as TRACE_PAIRS alternating pairs of fresh
processes, untraced then traced, each for a share of --seconds. The
metrics are the per-layer metrics of the last traced process plus
trace.overhead_pct, the median over the pairs of the throughput lost to
tracing. The last traced process writes its spans to
.bench_build/perfbench-traces/.

Exits non-zero when the build fails, the library sources are missing, an
output is incorrect, or a metric is missing.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-run"
TRACES = ROOT / ".bench_build" / "perfbench-traces"
BINARY = BUILD / "stm_perfbench"

BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 170  # every run after the first build ends within 180 s
TRACE_PAIRS = 3  # untraced/traced pairs behind trace.overhead_pct


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "stm_perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")


def source_digest():
    """Digest of the library and benchmark sources, standing in for a commit
    id where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_workload(args, spec, trace, seconds, deadline):
    """Runs the workload binary once; returns (notes, result dict)."""
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}-{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("STM_")}
    env.update(spec["env"])
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    for key, value in spec["params"].items():
        cmd += ["--set", f"{key}={value}"]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"{args.workload} did not finish in time")
    notes = done.stdout.splitlines()
    trace_file = workdir / f"trace-{args.workload}.jsonl"
    kept = None
    if trace and trace_file.is_file():
        TRACES.mkdir(parents=True, exist_ok=True)
        kept = TRACES / f"trace-{args.workload}-{args.seed}.jsonl"
        shutil.move(str(trace_file), kept)
    shutil.rmtree(workdir, ignore_errors=True)
    if not notes:
        fail(f"{args.workload} printed nothing (exit {done.returncode})")
    try:
        result = json.loads(notes.pop())
    except json.JSONDecodeError:
        fail(f"{args.workload} did not end with a JSON result "
             f"(exit {done.returncode})")
    if done.returncode != 0 and result.get("correct", False):
        fail(f"{args.workload} exited {done.returncode}")
    if kept is not None:
        notes.append(f"trace: spans written to {kept.relative_to(ROOT)}")
    return notes, result


def pick(result, names):
    metrics = {}
    for name in names:
        metric = result["metrics"].get(name)
        if metric is None or not math.isfinite(metric["value"]):
            fail(f"metric {name} missing from the workload's report")
        metrics[name] = metric
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in specs:
        fail(f"unknown workload {args.workload}; known: {', '.join(specs)}")
    spec = specs[args.workload]

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        # One pair alone would mostly show run-to-run noise, so the
        # overhead is the median over alternating pairs, and the spread of
        # the pairs is printed beside it.
        seconds = max(1, args.seconds // TRACE_PAIRS)
        correct, attempted, failed, overheads = True, 0, 0, []
        for _ in range(TRACE_PAIRS):
            _, untraced = run_workload(args, spec, 0, seconds, deadline)
            notes, result = run_workload(args, spec, 1, seconds, deadline)
            for run in (untraced, result):
                correct = correct and run["correct"]
                attempted += run["attempted"]
                failed += run["failed"]
            plain = untraced["metrics"]["throughput_per_s"]["value"]
            traced = result["metrics"]["throughput_per_s"]["value"]
            overheads.append(100.0 * (plain / traced - 1.0))
        result.update(correct=correct, attempted=attempted, failed=failed)
        overhead = statistics.median(overheads)
        result["metrics"]["trace.overhead_pct"] = {"value": overhead,
                                                   "unit": "%"}
        notes.append(
            f"trace: overhead {overhead:.3f}% = median of {TRACE_PAIRS} "
            f"untraced/traced pairs at --seconds {seconds} (pairs: "
            f"{', '.join(f'{o:.3f}%' for o in overheads)}; range "
            f"{max(overheads) - min(overheads):.3f} points)")
        names = [m["name"] for m in bench["per_layer"]]
    else:
        notes, result = run_workload(args, spec, 0, args.seconds, deadline)
        names = [m["name"] for m in bench["end_to_end"]]
    metrics = pick(result, names)
    meta = result.get("meta", {})
    notes.append(f"common: workload={args.workload} seed={args.seed} "
                 f"threads={meta.get('threads')} isa={meta.get('isa')} "
                 f"env={json.dumps(spec['env'], sort_keys=True)} "
                 f"source={source_digest()}")
    for line in notes:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
