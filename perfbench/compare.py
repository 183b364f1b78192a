#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are each a directory of raw result files as run.py leaves them
in perfbench/results/ (one JSON object per run), or a single such file.
For every workload and end-to-end metric it prints each side's median and
interquartile range, the change of the medians, and a verdict against the
metric's bound in BENCHMARK.json:

  gain        over at least ten pairs, the new side won at least nine
              tenths (ties count for neither) and the medians differ by
              more than the old side's interquartile range
  ok          the new median is not worse than the old by more than the bound
  REGRESSION  it is worse by more than the bound
  unresolved  the old side's own spread exceeds the bound, and neither
              side beat the other in every run

Runs pair by seed where both sides ran the same seeds, otherwise in run
order.  Traced runs (per-layer metrics) are listed with medians only:
they have no bound.  Exit code 1 when any metric regressed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    runs = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        h = r["header"]
        runs.append({"workload": h["workload"], "trace": h["trace"],
                     "seed": h["seed"], "date": h["date"],
                     "metrics": {k: v["value"] for k, v in
                                 r["summary"]["metrics"].items()}})
    runs.sort(key=lambda r: r["date"])
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pairs(old, new):
    by_old = {r["seed"]: r for r in old}
    by_new = {r["seed"]: r for r in new}
    common = sorted(set(by_old) & set(by_new))
    if len(common) >= min(len(old), len(new)):
        return [(by_old[s], by_new[s]) for s in common]
    return list(zip(old, new))


def verdict(metric, spec, old, new):
    ov = [r["metrics"][metric] for r in old]
    nv = [r["metrics"][metric] for r in new]
    oq1, om, oq3 = quartiles(ov)
    nq1, nm, nq3 = quartiles(nv)
    lower = spec["better"] == "lower"
    worse = (nm - om) / om if lower else (om - nm) / om
    ps = [(a["metrics"][metric], b["metrics"][metric]) for a, b in pairs(old, new)]
    wins = sum(1 for a, b in ps if (b < a if lower else b > a))
    losses = sum(1 for a, b in ps if (b > a if lower else b < a))
    spread = (oq3 - oq1) / om if om else 0.0
    if len(ps) >= 10 and wins >= 0.9 * len(ps) and abs(nm - om) > (oq3 - oq1):
        v = "gain"
    elif worse > spec["bound"]:
        v = "REGRESSION"
    elif spread > spec["bound"] and wins < len(ps) and losses < len(ps):
        v = "unresolved"
    else:
        v = "ok"
    return (om, oq3 - oq1, nm, nq3 - nq1, -worse, f"{wins}/{len(ps)}", v)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    old, new = load(argv[1]), load(argv[2])
    regressed = False
    for w in [w["name"] for w in bench["workloads"]]:
        o = [r for r in old if r["workload"] == w and not r["trace"]]
        n = [r for r in new if r["workload"] == w and not r["trace"]]
        if o and n:
            print(f"\n{w}: {len(o)} old runs, {len(n)} new runs")
            print(f"{'metric':16} {'old median':>12} {'old IQR':>10} "
                  f"{'new median':>12} {'new IQR':>10} {'better':>8} "
                  f"{'wins':>6} {'bound':>6}  verdict")
            for name, spec in specs.items():
                om, oi, nm, ni, better, wins, v = verdict(name, spec, o, n)
                regressed |= v == "REGRESSION"
                print(f"{name:16} {om:12.4f} {oi:10.4f} {nm:12.4f} {ni:10.4f} "
                      f"{100 * better:7.1f}% {wins:>6} {spec['bound']:6.2f}  {v}")
        ot = [r for r in old if r["workload"] == w and r["trace"]]
        nt = [r for r in new if r["workload"] == w and r["trace"]]
        if ot and nt:
            print(f"\n{w} per layer: {len(ot)} old traced runs, {len(nt)} new")
            for name in nt[0]["metrics"]:
                om = statistics.median(r["metrics"][name] for r in ot)
                nm = statistics.median(r["metrics"][name] for r in nt)
                print(f"  {name:28} {om:14.4f} {nm:14.4f}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
