#!/usr/bin/env python3
"""Compare benchmark reports of two commits, refusing unlike inputs.

    python3 surfbench/compare.py --base .surfbench/reports/A*.json --new B/*.json

Each report (written by run.py under .surfbench/reports/) carries the
sha256 of its workload's generated input texts.  Some inputs are made
by calling surfclass itself (checked moves, refinement), so a change to
that code can change the inputs for the same seed.  Runs of one
workload and seed are compared only when their fingerprints agree; any
disagreement stops the comparison with exit status 2.

For each end-to-end metric the medians and quartiles of both sides are
printed with the change against the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    reports = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return reports


def fingerprint_conflicts(reports):
    seen, bad = {}, []
    for r in reports:
        key = (r["workload"], r["seed"])
        if seen.setdefault(key, r["fingerprint"]) != r["fingerprint"]:
            bad.append(key)
    return bad


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    workloads = {r["workload"] for r in base + new}
    if len(workloads) != 1:
        print(f"refusing: reports mix workloads {sorted(workloads)}", file=sys.stderr)
        return 2
    conflicts = fingerprint_conflicts(base + new)
    if conflicts:
        print(f"refusing: input fingerprints differ for (workload, seed) {conflicts}", file=sys.stderr)
        return 2
    limits = bounds()
    print(f"workload {workloads.pop()}: {len(base)} base runs, {len(new)} new runs")
    for name in base[0]["end_to_end"]:
        b = summary([r["end_to_end"][name]["value"] for r in base])
        n = summary([r["end_to_end"][name]["value"] for r in new])
        unit = base[0]["end_to_end"][name]["unit"]
        change = n[1] / b[1] - 1.0
        line = (f"{name:12s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}] {unit}  "
                f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}] {unit}  change {change:+.1%}")
        if name in limits:
            bound, better = limits[name]
            worse = change if better == "lower" else -change
            line += f"  bound {bound:.0%}: {'WORSE' if worse > bound else 'ok'}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
