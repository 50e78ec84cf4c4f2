#!/usr/bin/env python3
"""Bench regression gate for the four gated bench JSONs (schema v1).

Every check is one row of RULES, keyed by the JSON's "bench" field, and one
evaluator, judge(), applies them. A row names a JSON path (fanning out over
"[*]" and "{a,b}"), a kind, a bound and the promise it keeps. The schema is
the set of paths the rows read: a missing or mistyped value is bad input.

A check whose run could not resolve its bound is "unmeasurable", neither a
pass nor a fail: an overhead rule whose measured noise floor reaches the
rule's bound, and a scaling entry whose same-run raw-thread ceiling falls
below CEILING_FLOOR_PER_WORKER x its workers (the machine had no CPU to
spare for the threads).

Exit status: 0 = pass (unmeasurable checks included), 1 = a rule failed,
2 = bad input.

Usage:
  tools/bench_compare.py --baseline BENCH_pipeline.json build/BENCH_pipeline-ci.json \\
      build/BENCH_chaos-ci.json build/BENCH_manyflows-ci.json build/BENCH_fairness-ci.json
  tools/bench_compare.py --selftest   # every injected regression must trip the gate
"""

from __future__ import annotations

import argparse
import json
import operator
import re
import sys
from typing import Any, Callable, NamedTuple, Optional


class Rule(NamedTuple):
    """One row of the gate: what it reads, how it judges, the promise it keeps."""

    path: str  # JSON path; "[*]" and "{a,b}" fan out, "" is the whole document
    kind: str  # min | max | eq | true | baseline_drop | scaling
    bound: Any  # a number, True, a list, or the path of a number in the same document
    msg: str  # the promise, printed with the verdict
    of: tuple = ()  # fields read under each match ("name:str"/":bool"; numbers by default)
    fn: Optional[Callable] = None  # derives the judged value from `of`; None skips a match
    smoke: float = 1.0  # bound multiplier on a smoke run
    floor: str = ""  # path of the measurement's noise floor; >= bound is unmeasurable


class Check(NamedTuple):
    """One judged value; `unmeasurable` says why the run cannot resolve it."""

    where: str
    value: Any
    bound: Any
    unmeasurable: str = ""


# A scaling entry is judged as speedup / ceiling against bound / workers: the
# rule's speedup floor scaled by the share of its workers' CPUs the machine
# gave, which the ceiling (raw threads on a fixed arithmetic loop, timed in
# the same run) measures. A free machine (ceiling = workers) keeps the plain
# speedup floor. Below this ceiling per worker (1.5x at 2 workers, 3x at 4)
# the machine had no CPU to spare, and the entry is unmeasurable.
CEILING_FLOOR_PER_WORKER = 0.75


FAIRNESS_CELLS_FULL = [
    "mkc_vs_mkc", "mkc_vs_cubic", "mkc_vs_dcqcn", "mkc_vs_swift",
    "mkc_vs_scream", "cubic_vs_scream", "mkc_rtt_diverse", "cubic_rtt_diverse",
    "mkc_cubic_1_3", "mkc_cubic_3_1", "mkc_vs_tcp", "cubic_scream_vs_tcp",
]
FAIRNESS_CELLS_SMOKE = [
    "smoke_mkc_vs_cubic", "smoke_mkc_vs_dcqcn", "smoke_mkc_rtt_diverse",
]


def missing_cells(smoke: bool, labels: list) -> list:
    expected = FAIRNESS_CELLS_SMOKE if smoke else FAIRNESS_CELLS_FULL
    return [label for label in expected if label not in labels]


SIDES = "{small,large,huge}"

RULES = {
    "micro_pipeline": [
        Rule("pipeline.data_pkts_per_sec", "baseline_drop", 0.25,
             "end-to-end pkts/s within 25% of the committed baseline"),
        Rule("alloc_probe.allocs_per_packet", "max", 0.01, "the hot path does not allocate"),
        Rule("sweep_scaling[*].identical_to_serial", "true", True,
             "a parallel sweep is byte-identical to serial"),
        Rule("", "scaling", 0.8,
             "parallel sweep dispatch does not eat its own gains (speedup / ceiling >= "
             "0.8 / workers)",
             of=("hardware_threads", "sweep_scaling", "threads", "effective_threads",
                 "speedup", "ceiling")),
        Rule("telemetry.overhead_frac", "max", 0.05,
             "telemetry sampling costs at most 5% (2% target)",
             floor="telemetry.noise_floor_frac"),
    ],
    "many_flows": [
        Rule("many_flows.large.flows", "min", 100_000, "the 10^5-flow scale claim was run"),
        Rule("many_flows.huge.flows", "min", 1_000_000, "the 10^6-flow scale claim was run"),
        Rule("many_flows.cost_ratio", "max", 1.5,
             "per-packet cost is flat from 10^3 to 10^5 flows"),
        Rule("many_flows.huge_cost_ratio", "max", 2.0,
             "10^6 flows pay at most 2x the 10^3-flow per-packet cost"),
        Rule(f"many_flows.{SIDES}.bytes_per_flow", "max", "many_flows.bytes_per_flow_budget",
             "the driver stays within the artifact's own bytes/flow budget"),
        Rule(f"many_flows.{SIDES}.scheduler_bytes_per_flow", "max", 80,
             "pending events cost at most 80 B/flow (one 48 B slot + one 24 B entry each)"),
        Rule("", "min", 3.0, "the calendar tier beats the heap at the largest pending count",
             of=("scheduler_tiers[*].pending", "scheduler_tiers[*].speedup"),
             fn=lambda pending, speedup: dict(zip(pending, speedup))[max(pending)],
             smoke=0.6),
        Rule("scheduler_tiers[*]", "min", 2e6,
             "the wheel runs >= 2e6 events/s at >= 10^5 pending (absolute backstop)",
             of=("pending", "wheel_ev_per_sec"),
             fn=lambda pending, eps: eps if pending >= 100_000 else None),
        Rule(f"many_flows.{SIDES}.allocs_per_packet", "max", 0.01,
             "the steady state does not allocate"),
        Rule(f"many_flows.{SIDES}.scheduler_{{heap,slot,wheel,run}}_capacity_growth", "eq", 0,
             "no pre-sized scheduler pool grows mid-window"),
        Rule("sharded.byte_identical", "true", True,
             "the sharded driver ends byte-identical at every DomainRunner thread count"),
        Rule("sharded", "scaling", 0.8,
             "domain parallelism does not eat its own gains (speedup / ceiling >= "
             "0.8 / workers)",
             of=("hardware_concurrency", "runs", "requested_threads", "effective_threads",
                 "speedup_vs_serial", "ceiling")),
    ],
    "chaos_sweep": [
        Rule("campaign.{violations,task_errors}", "eq", 0,
             "no invariant breaks and no task fails under randomized fault schedules"),
        Rule("shrink_selftest.shrunk_still_violates", "true", True,
             "the minimized repro still replays its violation"),
        Rule("shrink_selftest.shrunk_events", "max", "shrink_selftest.original_events",
             "the shrinker never grows a plan"),
        Rule("parallel_chaos.identical_across_workers", "true", True,
             "fault injection keeps DomainRunner runs deterministic"),
        Rule("monitor_overhead.overhead_frac", "max", 0.06,
             "the invariant monitor costs at most 6% (3% target)",
             floor="monitor_overhead.noise_floor_frac"),
    ],
    "fairness_matrix": [
        Rule("", "eq", [], "every expected cell was measured (the smoke subset on smoke runs)",
             of=("smoke:bool", "cells[*].label:str"), fn=missing_cells),
        Rule("cells[*].jain_video", "min", 0.0, "Jain's index lies in [0, 1]"),
        Rule("cells[*].jain_video", "max", 1.0, "Jain's index lies in [0, 1]"),
        Rule("cells[*]", "eq", 1.0, "the class shares sum to 1",
             of=("share_a", "share_b", "share_tcp"), fn=lambda a, b, tcp: a + b + tcp),
        Rule("cells[*].base_protection", "min", 0.9,
             "the AQM protects the base layer whichever controllers share the link"),
        Rule("cells[*]", "true", True, "green delay percentiles are positive and monotone",
             of=("delay_p50_ms", "delay_p95_ms", "delay_p99_ms"),
             fn=lambda p50, p95, p99: 0.0 < p50 <= p95 <= p99),
        Rule("", "eq", "summary.min_jain", "the summary's min Jain is the per-cell minimum",
             of=("cells[*].jain_video",), fn=lambda jain: min(1.0, *jain)),
        Rule("", "eq", "summary.min_base_protection",
             "the summary's min base protection is the per-cell minimum",
             of=("cells[*].base_protection",), fn=lambda protection: min(1.0, *protection)),
    ],
}


class BadInput(Exception):
    """A value a rule reads is missing or has the wrong type."""


TYPES = {"num": (int, float), "bool": bool, "str": str}


def typed(where: str, value: Any, kind: str) -> Any:
    # bool is an int in Python; JSON true is never a number here.
    if not isinstance(value, TYPES[kind]) or (kind == "num" and isinstance(value, bool)):
        raise BadInput(f"{where or 'document'}: expected {kind}, got {value!r}")
    return value


def expand(path: str) -> list[str]:
    """Brace fan-out: "a.{x,y}.b" -> ["a.x.b", "a.y.b"]."""
    m = re.search(r"\{([^{}]*)\}", path)
    if m is None:
        return [path]
    return [p for alt in m.group(1).split(",")
            for p in expand(path[:m.start()] + alt + path[m.end():])]


def walk(node: Any, path: str, where: str = "") -> list[tuple[str, Any]]:
    """(where, value) for every match of path under node; "[*]" fans out over a list."""
    hits = [(where, node)]
    for key in re.findall(r"\[\*\]|[^.[\]]+", path):
        step = []
        for at, value in hits:
            if key == "[*]":
                if not isinstance(value, list) or not value:
                    raise BadInput(f"{at or 'document'}: expected a non-empty list")
                step += [(f"{at}[{i}]", v) for i, v in enumerate(value)]
                continue
            at = f"{at}.{key}" if at else key
            if not isinstance(value, dict) or key not in value:
                raise BadInput(f"{at}: missing")
            step.append((at, value[key]))
        hits = step
    return hits


def read(node: Any, spec: str, where: str = "") -> Any:
    """The typed value at spec ("path" or "path:type") under node; a list if it fans out."""
    path, _, kind = spec.partition(":")
    hits = [typed(at, v, kind or "num") for at, v in walk(node, path, where)]
    return hits if "[*]" in path else hits[0]


def scaling(rule: Rule, where: str, node: dict, floor: float) -> list:
    """speedup / ceiling for the entries that truly ran >= 2 unclamped workers."""
    hw_field, entries, threads, effective, speedup, ceiling = rule.of
    hw = read(node, hw_field, where)
    fields = (threads, effective, speedup, ceiling)
    rows = zip(*(read(node, f"{entries}[*].{f}", where) for f in fields))
    name = f"{where}.{entries}" if where else entries
    if hw < 2:
        print(f"scaling gate {name}: SKIPPED ({hw_field} = {hw}; a single-core box has "
              "nothing to scale)")
        return []
    checks = []
    for i, (requested, workers, value, ceil) in enumerate(rows):
        if workers >= 2 and workers < requested:
            print(f"scaling gate {name}[{i}]: {requested} threads clamped to {workers} of "
                  f"{hw} hardware threads; annotated, not gated")
        elif workers >= 2:
            at = f"{name}[{i}].{speedup}/{ceiling}"
            least = CEILING_FLOOR_PER_WORKER * workers
            if ceil < least:
                checks.append(Check(at, value / ceil if ceil > 0 else 0.0, floor / workers,
                                    f"ceiling {fmt(ceil)} < {fmt(least)} at {workers} workers"))
            else:
                checks.append(Check(at, value / ceil, floor / workers))
    if not checks:
        print(f"scaling gate {name}: SKIPPED (no entry ran >= 2 unclamped workers)")
    return checks


def resolve(rule: Rule, doc: dict, baseline: Optional[dict]) -> list:
    """Everything rule judges, as Checks; a None value does not apply."""
    bound = read(doc, rule.bound) if isinstance(rule.bound, str) else rule.bound
    if rule.smoke != 1.0 and read(doc, "smoke:bool"):
        bound *= rule.smoke
        print(f"smoke run: bound relaxed {rule.smoke}x to {bound:g} ({rule.msg})")
    checks = []
    for path in expand(rule.path):
        for where, node in walk(doc, path):
            if rule.kind == "scaling":
                checks += scaling(rule, where, node, bound)
            elif rule.kind == "baseline_drop":
                try:
                    base = read(baseline, where)
                except BadInput as e:
                    raise BadInput(f"baseline {e}") from None
                checks.append(Check(where, typed(where, node, "num"), (1.0 - bound) * base))
            elif rule.fn is not None:
                checks.append(Check(where, rule.fn(*(read(node, f, where) for f in rule.of)),
                                    bound))
            else:
                kind = "bool" if rule.kind == "true" else "num"
                noise = read(doc, rule.floor) if rule.floor else None
                why = (f"noise floor {fmt(noise)} >= bound {fmt(bound)}"
                       if noise is not None and noise >= bound else "")
                checks.append(Check(where, typed(where, node, kind), bound, why))
    return checks


def close(value: Any, bound: Any) -> bool:
    if isinstance(bound, (int, float)):
        return abs(value - bound) <= 1e-6
    return value == bound


CMP = {
    "min": (">=", operator.ge),
    "max": ("<=", operator.le),
    "eq": ("==", close),
    "true": ("is", operator.is_),
    "baseline_drop": (">=", operator.ge),
    "scaling": (">=", operator.ge),
}


def fmt(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else repr(value)


def fail(msg: str) -> None:
    print(f"bench_compare: FAIL: {msg}")


def header(doc: Any, label: str) -> str:
    """The bench a document claims to be; raises BadInput unless RULES knows it."""
    if not isinstance(doc, dict):
        raise BadInput(f"{label}: expected a JSON object, got {type(doc).__name__}")
    if typed(f"{label} schema_version", doc.get("schema_version"), "num") != 1:
        raise BadInput(f"{label}: schema_version must be 1, got {doc['schema_version']!r}")
    bench = doc.get("bench")
    if bench not in RULES:
        raise BadInput(f"{label}: unknown bench {bench!r}; expected one of {sorted(RULES)}")
    return bench


def judge(doc: Any, baseline: Any = None) -> int:
    """Applies the rule table to one bench JSON; returns its exit status."""
    try:
        bench = header(doc, "current")
        rules = RULES[bench]
        if any(r.kind == "baseline_drop" for r in rules):
            if baseline is None:
                raise BadInput(f"{bench}: a baseline is required (--baseline)")
            if header(baseline, "baseline") != bench:
                raise BadInput(f"baseline: bench must be {bench!r}, got {baseline['bench']!r}")
        resolved = [(rule, resolve(rule, doc, baseline)) for rule in rules]
    except BadInput as e:
        fail(f"bad input: {e}")
        return 2

    failures = 0
    unmeasurable = 0
    for rule, checks in resolved:
        op, ok = CMP[rule.kind]
        checks = [c for c in checks if c.value is not None]
        for c in checks:
            if c.unmeasurable:
                print(f"unmeasurable {rule.msg}: {c.where} = {fmt(c.value)}, neither pass nor "
                      f"fail ({c.unmeasurable})")
                unmeasurable += 1
        checks = [c for c in checks if not c.unmeasurable]
        broken = [c for c in checks if not ok(c.value, c.bound)]
        if checks:
            values = ", ".join(fmt(c.value) for c in checks[:6])
            more = f", ... ({len(checks)} values)" if len(checks) > 6 else ""
            verdict = "FAIL" if broken else "ok"
            print(f"{verdict:4} {rule.msg}: {op} {fmt(checks[0].bound)} [{values}{more}]")
        for c in broken:
            name = c.where or f"from ({', '.join(rule.of)})"
            fail(f"{name} = {fmt(c.value)}, want {op} {fmt(c.bound)}: {rule.msg}")
        failures += bool(broken)
    if failures:
        print(f"bench_compare: {bench}: {failures} rule(s) failed")
        return 1
    moot = f" ({unmeasurable} check(s) unmeasurable)" if unmeasurable else ""
    print(f"bench_compare: {bench} PASS{moot}")
    return 0


def load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}")
        sys.exit(2)


# --- selftest --------------------------------------------------------------

def pipeline_doc() -> dict:
    def entry(threads: int, effective: int, speedup: float, ceiling: float) -> dict:
        return {"threads": threads, "effective_threads": effective,
                "oversubscribed": threads > effective, "speedup": speedup,
                "ceiling": ceiling, "identical_to_serial": True}

    return {
        "schema_version": 1, "bench": "micro_pipeline", "smoke": False,
        "hardware_threads": 8,
        "pipeline": {"median_wall_ms": 1000.0, "data_packets": 500000,
                     "data_pkts_per_sec": 400000.0},
        "telemetry": {"data_pkts_per_sec": 396000.0, "overhead_frac": 0.01,
                      "overhead_frac_raw": 0.01, "noise_floor_frac": 0.02},
        "alloc_probe": {"allocs_per_packet": 0.0, "steady_allocs": 0},
        "sweep_scaling": [entry(1, 1, 1.0, 1.0), entry(2, 2, 1.8, 1.95),
                          entry(8, 8, 5.5, 6.8), entry(16, 8, 5.2, 6.8)],
    }


def manyflows_doc() -> dict:
    def side(flows: int, ns: float, allocs: float) -> dict:
        return {"flows": flows, "packets": 500000, "ns_per_packet": ns,
                "allocs_per_packet": allocs,
                "scheduler_heap_capacity_growth": 0, "scheduler_slot_capacity_growth": 0,
                "scheduler_wheel_capacity_growth": 0, "scheduler_run_capacity_growth": 0,
                "driver_bytes": flows * 198, "bytes_per_flow": 198.0,
                "scheduler_bytes_per_flow": 72.0}

    def tier(pending: int, heap: float, wheel: float, speedup: float) -> dict:
        return {"pending": pending, "heap_ev_per_sec": heap, "wheel_ev_per_sec": wheel,
                "speedup": speedup}

    def run(threads: int, wall_ms: float, speedup: float, per_worker: float,
            ceiling: float) -> dict:
        return {"requested_threads": threads, "effective_threads": threads,
                "wall_ms": wall_ms, "speedup_vs_serial": speedup,
                "per_worker_speedup": per_worker, "ceiling": ceiling}

    return {
        "schema_version": 1, "bench": "many_flows", "smoke": False,
        "scheduler_tiers": [tier(1000, 9.0e6, 2.2e7, 2.4), tier(100000, 4.2e6, 1.1e7, 2.7),
                            tier(1000000, 2.1e6, 6.9e6, 3.3)],
        "many_flows": {"small": side(1000, 520.0, 0.0002), "large": side(100000, 545.0, 0.0),
                       "huge": side(1000000, 610.0, 0.0), "cost_ratio": 1.05,
                       "huge_cost_ratio": 1.17, "bytes_per_flow_budget": 256},
        "sharded": {"hardware_concurrency": 8, "byte_identical": True,
                    "runs": [run(1, 100.0, 1.0, 1.0, 1.0), run(2, 56.0, 1.79, 0.89, 1.96),
                             run(5, 32.0, 3.12, 0.62, 3.8)]},
    }


def chaos_doc() -> dict:
    return {
        "schema_version": 1, "bench": "chaos_sweep", "smoke": False,
        "campaign": {"schedules": 200, "seed": 1, "violations": 0, "task_errors": 0},
        "shrink_selftest": {"original_events": 6, "shrunk_events": 1, "probes": 13,
                            "shrunk_still_violates": True},
        "parallel_chaos": {"schedules": 8, "identical_across_workers": True},
        "monitor_overhead": {"overhead_frac": 0.02, "overhead_frac_raw": 0.02,
                             "noise_floor_frac": 0.03},
    }


def fairness_doc() -> dict:
    def cell(label: str, jain: float, share_a: float, share_b: float) -> dict:
        return {"label": label, "jain_video": jain, "share_a": share_a, "share_b": share_b,
                "share_tcp": 0.0, "base_protection": 0.998, "delay_p50_ms": 16.0,
                "delay_p95_ms": 17.1, "delay_p99_ms": 17.8, "ecn_marks": 1200,
                "video_goodputs_bps": [9.0e5, 9.1e5], "tcp_goodputs_bps": []}

    return {
        "schema_version": 1, "bench": "fairness_matrix", "label": "selftest", "smoke": True,
        "cells": [cell("smoke_mkc_vs_cubic", 0.61, 0.10, 0.90),
                  cell("smoke_mkc_vs_dcqcn", 0.57, 0.07, 0.93),
                  cell("smoke_mkc_rtt_diverse", 1.0, 0.50, 0.50)],
        "summary": {"cells": 3, "min_jain": 0.57, "min_base_protection": 0.998},
    }


CLEAN = {"micro_pipeline": pipeline_doc, "many_flows": manyflows_doc,
         "chaos_sweep": chaos_doc, "fairness_matrix": fairness_doc}


def single_core_sweep(doc: dict) -> dict:
    doc["hardware_threads"] = 1
    for e in doc["sweep_scaling"]:
        e.update(effective_threads=1, oversubscribed=e["threads"] > 1,
                 speedup=0.9 if e["threads"] > 1 else 1.0)
    return doc


def single_core_shards(doc: dict) -> dict:
    doc["sharded"]["hardware_concurrency"] = 1
    for e in doc["sharded"]["runs"]:
        e.update(effective_threads=1, speedup_vs_serial=0.93, per_worker_speedup=0.93)
    return doc


def drop_last_cell(doc: dict) -> dict:
    doc["cells"].pop()
    doc["summary"]["cells"] = len(doc["cells"])
    doc["summary"]["min_jain"] = min(c["jain_video"] for c in doc["cells"])
    return doc


# (bench, what the mutation injects, changes {path: value} or fn(doc) -> doc, exit status)
SELFTEST = [
    ("micro_pipeline", "nothing: a clean run passes", {}, 0),
    ("micro_pipeline", "a ~30% pkts/s regression", {"pipeline.data_pkts_per_sec": 280000.0}, 1),
    ("micro_pipeline", "an allocating hot path", {"alloc_probe.allocs_per_packet": 0.5}, 1),
    ("micro_pipeline", "a non-deterministic sweep",
     {"sweep_scaling[1].identical_to_serial": False}, 1),
    # The pre-fix symptom verbatim: more threads, *less* throughput.
    ("micro_pipeline", "a parallel sweep slower than serial",
     {"sweep_scaling[1].speedup": 0.72, "sweep_scaling[2].speedup": 0.64}, 1),
    ("micro_pipeline", "a slow oversubscribed entry (not gated)",
     {"sweep_scaling[3].speedup": 0.5}, 0),
    ("micro_pipeline", "a single-core box (scaling gate skipped)", single_core_sweep, 0),
    ("micro_pipeline", "a sweep slower than serial on a machine with 1.6 of 2 CPUs free",
     {"sweep_scaling[1].speedup": 0.6, "sweep_scaling[1].ceiling": 1.6}, 1),
    ("micro_pipeline", "a sweep at 0.7x with 1.6 of 2 CPUs free (floor scaled to 0.64x)",
     {"sweep_scaling[1].speedup": 0.7, "sweep_scaling[1].ceiling": 1.6}, 0),
    # PR 30's failing run: 0.73x at 2 threads, with a 2-thread ceiling of 1.09.
    ("micro_pipeline", "a sweep on a machine with no CPU to spare (unmeasurable)",
     {"sweep_scaling[1].speedup": 0.73, "sweep_scaling[1].ceiling": 1.09}, 0),
    ("micro_pipeline", "a telemetry overhead blowout", {"telemetry.overhead_frac": 0.2}, 1),
    ("micro_pipeline", "an overhead under a noise floor above the bound (unmeasurable)",
     {"telemetry.overhead_frac": 0.138, "telemetry.noise_floor_frac": 0.64}, 0),
    ("micro_pipeline", "a scaling entry without its ceiling",
     lambda doc: (doc["sweep_scaling"][1].pop("ceiling"), doc)[1], 2),
    ("micro_pipeline", "a null pkts/s", {"pipeline.data_pkts_per_sec": None}, 2),
    ("micro_pipeline", "a top-level array", lambda doc: [doc], 2),
    ("micro_pipeline", "an unknown bench name", {"bench": "micro_pipline"}, 2),
    ("many_flows", "nothing: a clean run passes", {}, 0),
    ("many_flows", "a superlinear per-packet cost", {"many_flows.cost_ratio": 2.1}, 1),
    ("many_flows", "a tier speedup collapse at max pending",
     {"scheduler_tiers[2].speedup": 1.4}, 1),
    ("many_flows", "a smoke run (tier floor relaxed 0.6x)",
     {"smoke": True, "scheduler_tiers[2].speedup": 2.2}, 0),
    ("many_flows", "a uniformly slow wheel (absolute backstop)",
     {"scheduler_tiers[2].heap_ev_per_sec": 0.4e6,
      "scheduler_tiers[2].wheel_ev_per_sec": 1.4e6, "scheduler_tiers[2].speedup": 3.5}, 1),
    ("many_flows", "an allocating steady state", {"many_flows.large.allocs_per_packet": 0.3}, 1),
    ("many_flows", "pool growth at 10^5 flows",
     {"many_flows.large.scheduler_wheel_capacity_growth": 98658}, 1),
    ("many_flows", "an under-scale 10^5 run", {"many_flows.large.flows": 10000}, 1),
    ("many_flows", "an under-scale 10^6 run", {"many_flows.huge.flows": 500000}, 1),
    ("many_flows", "a superlinear 10^6 per-packet cost", {"many_flows.huge_cost_ratio": 2.4}, 1),
    ("many_flows", "pool growth at 10^6 flows",
     {"many_flows.huge.scheduler_wheel_capacity_growth": 7543}, 1),
    ("many_flows", "bytes/flow over budget", {"many_flows.huge.bytes_per_flow": 412.0}, 1),
    ("many_flows", "64 B scheduler slots (a relocating callback with a vtable header)",
     {"many_flows.huge.scheduler_bytes_per_flow": 88.0}, 1),
    ("many_flows", "a shard fingerprint divergence", {"sharded.byte_identical": False}, 1),
    ("many_flows", "a sharded run slower than serial",
     {"sharded.runs[1].speedup_vs_serial": 0.55}, 1),
    ("many_flows", "a sharded run on a machine with no CPU to spare (unmeasurable)",
     {"sharded.runs[1].speedup_vs_serial": 0.7, "sharded.runs[1].ceiling": 1.1}, 0),
    ("many_flows", "a slow hw-clamped shard entry (not gated)",
     {"sharded.hardware_concurrency": 2, "sharded.runs[2].effective_threads": 2,
      "sharded.runs[2].speedup_vs_serial": 0.5}, 0),
    ("many_flows", "a single-core box (shard gate skipped)", single_core_shards, 0),
    ("chaos_sweep", "nothing: a clean run passes", {}, 0),
    ("chaos_sweep", "a campaign violation", {"campaign.violations": 1}, 1),
    ("chaos_sweep", "a non-replaying shrunk repro",
     {"shrink_selftest.shrunk_still_violates": False}, 1),
    ("chaos_sweep", "a faulted parallel divergence",
     {"parallel_chaos.identical_across_workers": False}, 1),
    ("chaos_sweep", "a monitor overhead blowout", {"monitor_overhead.overhead_frac": 0.15}, 1),
    ("chaos_sweep", "a monitor overhead under a noise floor above the bound (unmeasurable)",
     {"monitor_overhead.overhead_frac": 0.104, "monitor_overhead.noise_floor_frac": 0.49}, 0),
    ("fairness_matrix", "nothing: a clean run passes", {}, 0),
    ("fairness_matrix", "a base-layer protection collapse",
     {"cells[0].base_protection": 0.5, "summary.min_base_protection": 0.5}, 1),
    ("fairness_matrix", "a Jain index outside [0, 1]",
     {"cells[1].jain_video": 1.2, "summary.min_jain": 0.61}, 1),
    ("fairness_matrix", "class shares not summing to 1", {"cells[0].share_b": 0.70}, 1),
    ("fairness_matrix", "non-monotone delay percentiles", {"cells[2].delay_p95_ms": 12.0}, 1),
    ("fairness_matrix", "a missing matrix cell", drop_last_cell, 1),
    ("fairness_matrix", "a summary disagreeing with the cells", {"summary.min_jain": 0.99}, 1),
    ("fairness_matrix", "a Jain index given as a string", {"cells[0].jain_video": "0.9"}, 2),
]


def mutate(doc: dict, changes: Any) -> Any:
    if callable(changes):
        return changes(doc)
    for path, value in changes.items():
        *parents, leaf = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", path)]
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = value
    return doc


def selftest() -> int:
    """Every row's mutation of its clean document must exit with the row's status."""
    wrong = 0
    for bench, what, changes, want in SELFTEST:
        print(f"--- selftest: {bench} with {what} must exit {want}")
        got = judge(mutate(CLEAN[bench](), changes), pipeline_doc())
        if got != want:
            fail(f"selftest: {bench} with {what} exited {got}, expected {want}")
            wrong += 1
    if wrong:
        print(f"bench_compare: selftest FAILED ({wrong} of {len(SELFTEST)} rows)")
        return 1
    print(f"bench_compare: selftest PASS ({len(SELFTEST)} rows)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Judge bench JSONs against the gate's rule table "
        "(exit 0 = pass, 1 = a rule failed, 2 = bad input).")
    ap.add_argument("results", nargs="*",
                    help="bench JSONs, each judged by the rules for its 'bench' field")
    ap.add_argument("--baseline", help="committed BENCH_pipeline.json (micro_pipeline only)")
    ap.add_argument("--selftest", action="store_true",
                    help="check that every injected regression trips the gate")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.results:
        ap.error("give at least one bench JSON (or --selftest)")
    baseline = load(args.baseline) if args.baseline else None
    return max(judge(load(path), baseline) for path in args.results)


if __name__ == "__main__":
    sys.exit(main())
