#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, judged by the perf-claim protocol.

    tools/perf_pairs.py --parent DIR --change DIR --workload W [--pairs 10]
    tools/perf_pairs.py --selftest   # the verdict rules on canned numbers

Runs N pairs of `perfbench/run.py --trace 0` from each checkout (each builds
its own Release tree under DIR/.bench_build), one fresh seed per pair, and
alternates which side runs first. Prints, for every end-to-end metric of
BENCHMARK.json, both medians, the parent's interquartile range (IQR), the
change's wins (ties count for neither) and a verdict:

  regression  the change's median is worse than the parent's by more than
              the metric's BENCHMARK.json bound (relative to the parent);
  unresolved  the run-to-run spread (IQR of either side, relative to the
              parent median) is wider than the bound, and not every change
              run beats every parent run;
  gain        wins >= 9/10 of the pairs, the medians differ by more than the
              parent's IQR in the better direction, and no larger share of
              operations failed than at the parent;
  flat        none of the above.

Then the failed-operation share of each side and both machine fingerprints.
Exit status: 0 = no regression and nothing unresolved, 1 = otherwise,
2 = bad input or a run that produced no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

GAIN_WIN_SHARE = 0.9


def quartiles(values: list) -> tuple:
    """(q1, median, q3) by linear interpolation between order statistics."""
    v = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(v) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def judge_metric(parent: list, change: list, better: str, bound: float,
                 failed_share_parent: float = 0.0, failed_share_change: float = 0.0) -> dict:
    """Verdict for one end-to-end metric from paired runs (index i = pair i)."""
    sign = 1.0 if better == "higher" else -1.0  # sign * (change - parent) > 0 is better
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    p_iqr = p_q3 - p_q1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    scale = abs(p_med) if p_med != 0 else 1.0
    worse_by = -sign * (c_med - p_med) / scale
    spread = max(p_iqr, c_q3 - c_q1) / scale
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if worse_by > bound:
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif (wins >= GAIN_WIN_SHARE * len(parent) and sign * (c_med - p_med) > p_iqr
          and failed_share_change <= failed_share_parent):
        verdict = "gain"
    else:
        verdict = "flat"
    return {"parent_median": p_med, "change_median": c_med, "parent_iqr": p_iqr,
            "wins": wins, "pairs": len(parent), "verdict": verdict}


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint: "):
            fingerprint = json.loads(line[len("fingerprint: "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        pass
    if not isinstance(result, dict) or "metrics" not in result:
        raise RuntimeError(f"{tree}: no result for {workload} seed {seed} "
                           f"(exit {proc.returncode})")
    return {"result": result, "fingerprint": fingerprint}


def failed_share(runs: list) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def report(spec: dict, parent_runs: list, change_runs: list) -> int:
    fs_parent = failed_share(parent_runs)
    fs_change = failed_share(change_runs)
    status = 0
    print(f"{'metric':<22} {'parent med':>12} {'change med':>12} {'parent IQR':>11} "
          f"{'wins':>6}  verdict")
    for m in spec["end_to_end"]:
        name = m["name"]
        parent = [r["result"]["metrics"].get(name, {}).get("value") for r in parent_runs]
        change = [r["result"]["metrics"].get(name, {}).get("value") for r in change_runs]
        if any(v is None for v in parent + change):
            print(f"{name:<22} missing from a run")
            status = max(status, 1)
            continue
        v = judge_metric(parent, change, m["better"], m["bound"], fs_parent, fs_change)
        if v["verdict"] in ("regression", "unresolved"):
            status = max(status, 1)
        print(f"{name:<22} {v['parent_median']:>12.6g} {v['change_median']:>12.6g} "
              f"{v['parent_iqr']:>11.4g} {v['wins']:>3}/{v['pairs']:<2}  {v['verdict']} "
              f"(bound {m['bound']:g}, {m['better']} is better)")
    print(f"failed-operation share: parent {fs_parent:.4f}, change {fs_change:.4f}")
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        print(f"fingerprint {side}: " + json.dumps(runs[0]["fingerprint"], sort_keys=True))
    return status


def load_spec(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def main_runs(args) -> int:
    try:
        spec = load_spec(args.parent)
        if load_spec(args.change) != spec:
            print("perf_pairs: the two checkouts declare different benchmarks", file=sys.stderr)
            return 2
    except (OSError, ValueError) as e:
        print(f"perf_pairs: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perf_pairs: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]  # the benchmark fixes the run length for both sides
    parent_runs, change_runs = [], []
    try:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            for side, tree in order:
                run = run_side(tree, args.workload, seed, seconds)
                (parent_runs if side == "parent" else change_runs).append(run)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: done", file=sys.stderr)
    except RuntimeError as e:
        print(f"perf_pairs: {e}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}: {args.pairs} pairs, seeds {args.first_seed}.."
          f"{args.first_seed + args.pairs - 1}, {seconds:g} s per run, alternating order")
    return report(spec, parent_runs, change_runs)


def selftest() -> int:
    """Each canned case must get its expected verdict."""
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    cases = [
        ("clear gain, lower is better", base, [v - 5.0 for v in base], "lower", 0.15,
         "gain"),
        ("clear gain, higher is better", base, [v + 5.0 for v in base], "higher", 0.15,
         "gain"),
        ("8 of 10 wins is no gain", base,
         [v - 5.0 for v in base[:8]] + [v + 1.0 for v in base[8:]], "lower", 0.15, "flat"),
        ("ties count for neither side", base, base[:1] + [v - 5.0 for v in base[1:]],
         "lower", 0.15, "gain"),
        ("two ties cost the gain", base, base[:2] + [v - 5.0 for v in base[2:]], "lower",
         0.15, "flat"),
        ("gap inside the parent IQR", base, [v - 0.05 for v in base], "lower", 0.15,
         "flat"),
        ("median worse beyond the bound", base, [v * 1.2 for v in base], "lower", 0.15,
         "regression"),
        ("median worse within the bound", base, [v * 1.1 for v in base], "lower", 0.15,
         "flat"),
        ("higher-is-better drop beyond the bound", base, [v * 0.98 for v in base], "higher",
         0.01, "regression"),
        ("spread wider than the bound", [50.0, 150.0] * 5, [60.0, 140.0] * 5, "lower", 0.15,
         "unresolved"),
        ("wide spread, every change run better", [200.0, 300.0] * 5, [10.0, 20.0] * 5,
         "lower", 0.15, "gain"),
    ]
    wrong = 0
    for what, parent, change, better, bound, want in cases:
        got = judge_metric(parent, change, better, bound)["verdict"]
        ok = got == want
        wrong += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {what}: {got} (want {want})")
    more_failures = judge_metric(base, [v - 5.0 for v in base], "lower", 0.15,
                                 failed_share_parent=0.0, failed_share_change=0.1)
    ok = more_failures["verdict"] == "flat"
    wrong += 0 if ok else 1
    print(f"{'ok  ' if ok else 'FAIL'} more failed operations void a gain: "
          f"{more_failures['verdict']} (want flat)")
    share = failed_share([{"result": {"attempted": 10, "failed": 1}},
                          {"result": {"attempted": 30, "failed": 0}}])
    ok = abs(share - 0.025) < 1e-12
    wrong += 0 if ok else 1
    print(f"{'ok  ' if ok else 'FAIL'} failed share pools runs: {share} (want 0.025)")
    if wrong:
        print(f"perf_pairs: selftest FAILED ({wrong} cases)")
        return 1
    print(f"perf_pairs: selftest PASS ({len(cases) + 2} cases)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload", help="a workload named in BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1, help="pair i runs seed first+i")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not (args.parent and args.change and args.workload):
        ap.error("--parent, --change and --workload are required (or --selftest)")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    return main_runs(args)


if __name__ == "__main__":
    sys.exit(main())
