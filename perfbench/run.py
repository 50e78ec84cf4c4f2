#!/usr/bin/env python3
"""The repo benchmark's entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload dumbbell --seed 1 --seconds 10 --trace 0

Builds the benchmark binary from the checkout's sources (Release, under
.bench_build/perfbench), runs one workload for the wall-clock budget and
prints, as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
BENCHMARK.json declares, --trace 1 the per-layer ones; a per-layer metric
the workload does not exercise is reported as 0. A machine fingerprint is
printed on the line before and stored with the result under
.bench_build/perfbench/results/. Exits nonzero when the build fails, an
output check fails, or the binary does not produce a result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources (src/CMakeLists.txt) next to the benchmark")
        return False
    # Compiler temporaries stay inside the checkout as well.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr,
                          env=env).returncode == 0


def source_digest():
    """SHA-256 over the simulator and benchmark sources, so results from
    checkouts without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes (the smoke test)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    if not build():
        log("build failed")
        return 1

    for sub in ("results", "traces"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "traces", tag + ".csv")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from the benchmark binary (exit {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)

    # The binary's metric names and units must match BENCHMARK.json; each
    # declared metric is one more output check.
    attempted = out["attempted"]
    failures = list(out["failures"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        attempted += 1
        got = out["metrics"].get(m["name"])
        if got is None and args.trace:
            got = {"value": 0.0, "unit": m["unit"]}  # layer not exercised here
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            failures.append(f"metric {m['name']}: missing, non-finite or not in {m['unit']}")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    undeclared = sorted(set(out["metrics"]) - {m["name"] for m in declared})
    attempted += 1
    if undeclared:
        failures.append("metrics missing from BENCHMARK.json: " + ", ".join(undeclared))

    if proc.returncode != 0 and not failures:
        failures.append(f"benchmark binary exited {proc.returncode}")
    fingerprint = dict(out["fingerprint"], git_commit=git_commit(), source_digest=source_digest())
    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    with open(os.path.join(BUILD, "results", tag + ".json"), "w") as f:
        json.dump(dict(result, fingerprint=fingerprint, failures=failures), f, indent=1)
    for msg in failures[len(out["failures"]):]:
        print(f"FAILED: {msg}")
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
