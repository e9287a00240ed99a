"""Compare parent and change result sets, one row per workload and metric.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR [--claim disc-eval:wall_s ...]

Each directory holds the records that ``run.py --out`` wrote, one file per
run.  Runs pair up by workload and seed; make at least ten pairs per
workload, alternating which side runs first.  For every end-to-end metric
the table shows each side's median and quartiles and a verdict:

- a claimed metric (``--claim WORKLOAD:METRIC``) "holds" only when the change
  wins at least nine tenths of all pairs (ties count for neither side) and
  the medians differ by more than the parent's quartile spread;
- every other metric is "better", "within bound", "worse" (the change's
  median is worse than the parent's by more than the metric's bound) or
  "unresolved" (the parent's own quartile spread exceeds the bound and not
  every change run beats every parent run).

Bounds and directions come from BENCHMARK.json.  Exits 1 when a claim does
not hold or a metric is worse.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


def load(directory: str) -> dict:
    """(workload, seed) -> record, for every untraced record in the directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for rec in data if isinstance(data, list) else [data]:
            if not rec.get("trace"):
                out[(rec["workload"], rec["seed"])] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound: float, lower_is_better: bool, claimed: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    spread = p3 - p1
    if claimed:
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        if len(parent) < MIN_PAIRS:
            return f"claim unresolved: {len(parent)} pairs < {MIN_PAIRS}"
        ok = wins >= 0.9 * len(parent) and sign * (pm - cm) > spread
        return f"claim {'holds' if ok else 'NOT MET'}: wins {wins}/{len(parent)}"
    worse_by = sign * (cm - pm) / pm
    if spread / pm > bound:
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "WORSE"
    if sign * (pm - cm) > spread:
        return "better"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    claims = set(args.claim)
    status = 0
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<13} {'metric':<12} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} verdict")
    for workload in workloads:
        seeds = sorted(s for (w, s) in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        if len(seeds) < MIN_PAIRS:
            print(f"{workload}: only {len(seeds)} pairs; at least {MIN_PAIRS} are needed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [parent[(workload, s)]["metrics"][name] for s in seeds]
            cv = [change[(workload, s)]["metrics"][name] for s in seeds]
            claimed = f"{workload}:{name}" in claims
            text = verdict(pv, cv, metric["bound"], metric["better"] == "lower", claimed)
            if "NOT MET" in text or text == "WORSE":
                status = 1
            cells = []
            for values in (pv, cv):
                q1, qm, q3 = quartiles(values)
                cells.append(f"{qm:.4g} [{q1:.4g}, {q3:.4g}] {metric['unit']}")
            print(f"{workload:<13} {name:<12} {cells[0]:<32} {cells[1]:<32} {text}")
    for claim in claims:
        workload, _, name = claim.partition(":")
        if workload not in workloads or name not in [m["name"] for m in spec["end_to_end"]]:
            print(f"unknown claim {claim!r}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
