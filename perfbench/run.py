#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive|libgen|serve \
        --seed N --seconds S --trace 0|1

builds the benchmark and the `perfdojo` binary from source with dune
(into .bench_build), runs the workload, and prints its report.  The
last line of standard output is the JSON result; the exit code is
non-zero when the build fails, an output check fails, or the result
does not carry exactly the metrics BENCHMARK.json declares.  Without
--workload it runs every workload in turn and prints each report.

Steadiness report:

    python3 perfbench/run.py --steadiness 5 [--workload W ...] [--trace 0|1]

repeats each workload on seeds 1..5, in a fresh process each time, and
prints every metric's median, quartiles and spread (quartile distance
as a share of the median) beside the bound BENCHMARK.json sets.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
CLI = os.path.join(BUILD_DIR, "default", "bin", "perfdojo_cli.exe")
WORK = ".perfbench_work"
OUT = ".perfbench_out"
RUN_TIMEOUT_S = 175
# The tail and cold-path figures of the serve workload: the ones that
# moved most between identical runs when the benchmark was defined.
WATCHED = {"warm_p99_us", "warm_p999_us", "cold_p50_ms", "cold_p90_ms"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "-j", "2",
           "./perfbench/perfbench.exe", "./bin/perfdojo_cli.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                           stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"cannot run dune: {e}")
        return False
    if r.returncode != 0:
        log("build failed")
    return r.returncode == 0


def run_once(workload, seed, seconds, trace):
    """Run one workload in a fresh process.  Returns (exit code, stdout
    lines)."""
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--perfdojo", CLI, "--work", work]
    if trace:
        cmd += ["--trace-file",
                os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    return r.returncode, r.stdout.splitlines()


def declared(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(spec, trace, lines):
    """The parsed result line, or None when it is missing or does not
    carry exactly the declared metrics."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("the last line is not a JSON result")
        return None
    want = declared(spec, trace)
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(want):
        log(f"result metrics {sorted(set(got) ^ set(want))} differ from "
            "BENCHMARK.json")
        return None
    return result


def detail(lines):
    for line in lines:
        if line.startswith("perfbench-detail "):
            return json.loads(line[len("perfbench-detail "):])
    return {}


def steadiness(spec, workloads, runs, first_seed, seconds, trace):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        values = {}
        units = {}
        for seed in range(first_seed, first_seed + runs):
            code, lines = run_once(w, seed, seconds, trace)
            result = check_result(spec, trace, lines)
            if code != 0 or result is None or not result["correct"]:
                log(f"{w} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            for name, m in detail(lines).items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            log(f"{w} seed {seed}: done")
        print(f"\n{w}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        print(f"  {'metric':34} {'unit':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = (statistics.quantiles(xs, n=4) if len(xs) > 1
                         else (xs[0], 0, xs[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of its bound"
            elif name in WATCHED:
                flag = "  (watched)"
            print(f"  {name:34} {units[name]:6} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="RUNS")
    args = ap.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    for w in workloads:
        if w not in names:
            ap.error(f"unknown workload {w}; known: {', '.join(names)}")
    seconds = args.seconds or spec["run_seconds"]
    if not build():
        return 1
    if args.steadiness:
        ok = steadiness(spec, workloads, args.steadiness, args.seed, seconds,
                        args.trace)
        return 0 if ok else 1
    status = 0
    for w in workloads:
        if len(workloads) > 1:
            print(f"== {w}", flush=True)
        code, lines = run_once(w, args.seed, seconds, args.trace)
        if check_result(spec, args.trace, lines) is None:
            print("\n".join(lines[:-1]), flush=True)
            code = code or 1
        else:
            print("\n".join(lines), flush=True)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
