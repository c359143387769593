#!/usr/bin/env python3
"""Spread and comparison of recorded perfbench results.

    python3 perfbench/compare.py spread RUNS.jsonl
    python3 perfbench/compare.py diff BASE.jsonl NEW.jsonl

The inputs are the JSON lines that run.py appends with ``--record``.

``spread`` prints, for each workload and metric, the median of the runs,
their quartiles, and the quartile distance as a share of the median beside
a third of the metric's bound from BENCHMARK.json; it exits 1 if a spread
reaches that third.  ``diff`` prints each side's median and quartiles, the
change as a share of the base median (positive is worse), and a verdict
against the bound; it also counts outputs whose bytes changed between runs
of the same workload and seed.  Both refuse records whose kernel backends
differ, since their timings do not measure the same code.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "BENCHMARK.json")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_specs():
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def refuse_mixed_backends(records):
    backends = sorted({r["env"]["backend"] for r in records})
    if len(backends) > 1:
        sys.stderr.write(f"compare: records come from different kernel "
                         f"backends {backends}; refusing to compare\n")
        sys.exit(1)


def by_metric(records):
    """{(workload, trace, metric): [values in record order]}"""
    out = {}
    for r in records:
        for name, m in r["metrics"].items():
            out.setdefault((r["env"]["workload"], r["env"]["trace"], name),
                           []).append(m["value"])
    return out


def keyed_outputs(record):
    """{(phase, stage, k): digest}: the k-th invocation of a stage in a phase.

    Runs of one seed give that invocation the same inputs, however many
    invocations each run fitted in.
    """
    seen = {}
    out = {}
    for phase, stage, digest in record["outputs"]:
        k = seen[phase, stage] = seen.get((phase, stage), -1) + 1
        out[phase, stage, k] = digest
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)


def spread(path):
    records = load(path)
    refuse_mixed_backends(records)
    specs = metric_specs()
    steady = True
    print(f"{'workload':18s} {'metric':40s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
    for (wl, trace, name), values in sorted(by_metric(records).items()):
        q1, med, q3 = quartiles(values)
        share = (q3 - q1) / med if med else 0.0
        bound = specs.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and share >= bound / 3:
            flag, steady = "  WIDE", False
        third = f"{bound / 3:8.3f}" if bound is not None else f"{'-':>8s}"
        print(f"{wl:18s} {name:40s} {len(values):3d} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {share:8.3f} {third}{flag}")
    return 0 if steady else 1


def diff(base_path, new_path):
    base, new = load(base_path), load(new_path)
    refuse_mixed_backends(base + new)
    specs = metric_specs()
    b, n = by_metric(base), by_metric(new)
    print(f"{'workload':18s} {'metric':40s} {'base median':>12s} "
          f"{'new median':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for key in sorted(set(b) & set(n)):
        wl, trace, name = key
        bq1, bmed, bq3 = quartiles(b[key])
        _, nmed, _ = quartiles(n[key])
        spec = specs.get(name, {})
        sign = 1.0 if spec.get("better", "lower") == "lower" else -1.0
        change = sign * (nmed - bmed) / bmed if bmed else 0.0
        bound = spec.get("bound")
        if bound is None:
            verdict = "no bound"
        elif bmed and (bq3 - bq1) / bmed > bound:
            verdict = "unresolved: base spread wider than bound"
        elif change > bound:
            verdict = "WORSE than bound"
        else:
            verdict = "within bound"
        bstr = f"{bound:6.2f}" if bound is not None else f"{'-':>6s}"
        print(f"{wl:18s} {name:40s} {bmed:12.6g} {nmed:12.6g} {change:8.3f} "
              f"{bstr}  {verdict}")
    changed = compared = 0
    outputs = {}
    for r in base:
        outputs.setdefault((r["env"]["workload"], r["env"]["seed"]),
                           keyed_outputs(r))
    for r in new:
        old = outputs.get((r["env"]["workload"], r["env"]["seed"]), {})
        for key, digest in keyed_outputs(r).items():
            if key in old:
                compared += 1
                changed += old[key] != digest
    print(f"outputs compared byte for byte: {compared}, changed: {changed}")
    return 0


def main(argv):
    if len(argv) == 2 and argv[0] == "spread":
        return spread(argv[1])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    sys.stderr.write(__doc__)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
