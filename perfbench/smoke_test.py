#!/usr/bin/env python3
"""Smoke test of the repo benchmark: every workload at a tiny size, untraced
and traced, through the same entry point the full benchmark uses.

    python3 perfbench/smoke_test.py

Asserts that each run passes its output checks, that every metric
BENCHMARK.json declares for the mode is present, finite and carries its
unit, and that on the stepped workloads the per-kind event counts
(pels.events_per_pkt.*) add up to sim.events_per_pkt. Exits 1 on the first
failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = run(w["name"], trace)
            where = f"{w['name']} trace={trace}"
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, where
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, where
            assert set(out["metrics"]) == {m["name"] for m in declared}, where
            for m in declared:
                got = out["metrics"][m["name"]]
                assert isinstance(got["value"], (int, float)), (where, m["name"])
                assert math.isfinite(got["value"]), (where, m["name"])
                assert got["unit"] == m["unit"] and got["unit"], (where, m["name"])
            if trace and w["name"] in ("dumbbell", "population-1m"):
                kinds = sum(v["value"] for k, v in out["metrics"].items()
                            if k.startswith("pels.events_per_pkt."))
                total = out["metrics"]["sim.events_per_pkt"]["value"]
                assert total > 0 and abs(kinds - total) <= 1e-9 * total, (where, kinds, total)
            print(f"ok {where}: {len(out['metrics'])} metrics, {out['attempted']} checks")
    print("smoke test passed")


if __name__ == "__main__":
    main()
