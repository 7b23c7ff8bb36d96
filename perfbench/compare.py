#!/usr/bin/env python3
"""Summarizes one run set of the SERD benchmark, or compares two.

    python3 perfbench/compare.py SET              # the spread SET measured
    python3 perfbench/compare.py PARENT CHANGE    # verdicts, change vs parent

A run set is a directory of run reports written by run.py (see --record),
or a list of report files joined with commas. Untraced reports give the
end-to-end metrics, traced ones the per-layer metrics.

One set: per workload and end-to-end metric, the median, quartiles and
spread (interquartile range over the median) against the metric's bound
in BENCHMARK.json.

Two sets: per workload and end-to-end metric, both medians and quartiles,
the pair wins of the change (runs paired by seed, or in seed order when
the sets share no seed) and a verdict:
  gain          the change wins at least 9 in 10 pairs and the medians
                differ by more than the parent's interquartile range;
  unresolved    the parent's spread exceeds the bound, and not every run
                of the change reads better than every run of the parent;
  worse         the change's median is worse by more than the bound;
  within bound  otherwise.
Then the per-layer deltas between the traced runs of the two sets.

Both modes check the work-identity counts: runs of one program (same
program_digest), workload, seed and trace flag must report equal counts.
The exit code is 1 when they differ, else 0.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_set(arg):
    if os.path.isdir(arg):
        paths = [p for p in sorted(glob.glob(os.path.join(arg, "*.json")))
                 if not p.endswith(".trace.json")]
    else:
        paths = arg.split(",")
    reports = []
    for path in paths:
        with open(path) as f:
            reports.append(json.load(f))
    return reports


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(reports, trace):
    out = {}
    for r in reports:
        if bool(r["trace"]) == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def values_of(reports, metric):
    return [r["metrics"][metric]["value"] for r in reports
            if metric in r["metrics"]]


def identity_mismatches(reports):
    """Groups of runs of one program, workload, seed and trace whose
    work-identity counts differ."""
    groups = {}
    for r in reports:
        key = (r.get("program_digest"), r["workload"], r["seed"], r["trace"])
        groups.setdefault(key, []).append(r["identity"])
    bad = []
    for key, identities in sorted(groups.items(), key=str):
        if any(i != identities[0] for i in identities[1:]):
            bad.append((key, identities))
    return bad


def fmt(v):
    return f"{v:.6g}"


def summarize(reports, spec):
    sets = by_workload(reports, trace=False)
    for workload in sorted(sets):
        runs = sets[workload]
        print(f"\n{workload}: {len(runs)} untraced runs")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = values_of(runs, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            note = ""
            if m["name"] != "setup_s":
                note = ("steady" if spread < m["bound"] / 3 else
                        "within bound" if spread <= m["bound"] else
                        "TOO NOISY")
            print(f"  {m['name']:<14} {fmt(med):>12} {fmt(q1):>12} "
                  f"{fmt(q3):>12} {spread:>8.4f} {m['bound']:>6} {note}")
    traced = by_workload(reports, trace=True)
    for workload in sorted(traced):
        runs = traced[workload]
        print(f"\n{workload}: {len(runs)} traced runs (medians)")
        for m in spec["per_layer"]:
            vals = values_of(runs, m["name"])
            if vals:
                print(f"  {m['name']:<32} {fmt(statistics.median(vals)):>12}"
                      f" {m['unit']}")


def pair_runs(p_runs, c_runs, metric):
    """(parent, change) values of runs with equal seeds; when the sets share
    no seed, the runs in seed order."""
    def value(r):
        return r["metrics"][metric]["value"]
    by_seed = {r["seed"]: value(r) for r in c_runs}
    pairs = [(value(r), by_seed[r["seed"]]) for r in p_runs
             if r["seed"] in by_seed]
    if pairs:
        return pairs
    def in_order(runs):
        return sorted(runs, key=lambda r: r["seed"])
    return [(value(p), value(c))
            for p, c in zip(in_order(p_runs), in_order(c_runs))]


def verdict(parent, change, pairs, metric):
    lower = metric["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    better = cm < pm if lower else cm > pm
    worse_by = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    if pairs and wins >= 0.9 * len(pairs) and better and \
            abs(cm - pm) > p3 - p1:
        return wins, "gain"
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    if pm and (p3 - p1) / pm > metric["bound"] and not all_better:
        return wins, "unresolved"
    if worse_by > metric["bound"]:
        return wins, "worse"
    return wins, "within bound"


def compare(parent_reports, change_reports, spec):
    parents = by_workload(parent_reports, trace=False)
    changes = by_workload(change_reports, trace=False)
    for workload in sorted(set(parents) & set(changes)):
        p_runs, c_runs = parents[workload], changes[workload]
        print(f"\n{workload}: parent {len(p_runs)} runs, change "
              f"{len(c_runs)} runs")
        print(f"  {'metric':<14} {'parent median [q1,q3]':>34} "
              f"{'change median [q1,q3]':>34} {'wins':>7}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            pv, cv = values_of(p_runs, name), values_of(c_runs, name)
            if not pv or not cv:
                continue
            pairs = pair_runs(p_runs, c_runs, name)
            wins, v = verdict(pv, cv, pairs, m)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"  {name:<14} {fmt(pm):>12} [{fmt(p1)},{fmt(p3)}]"
                  f"{'':>4} {fmt(cm):>12} [{fmt(c1)},{fmt(c3)}]"
                  f"{'':>4} {wins:>3}/{len(pairs):<3} {v}")
    p_traced = by_workload(parent_reports, trace=True)
    c_traced = by_workload(change_reports, trace=True)
    for workload in sorted(set(p_traced) & set(c_traced)):
        print(f"\n{workload}: per-layer, traced medians")
        for m in spec["per_layer"]:
            pv = values_of(p_traced[workload], m["name"])
            cv = values_of(c_traced[workload], m["name"])
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
            print(f"  {m['name']:<32} {fmt(pm):>12} -> {fmt(cm):>12} "
                  f"{rel:>8} {m['unit']}")
    # Work counts of the two programs, per matched workload, seed and trace.
    c_index = {(r["workload"], r["seed"], r["trace"]): r
               for r in change_reports}
    for r in parent_reports:
        other = c_index.get((r["workload"], r["seed"], r["trace"]))
        if other is None or other["identity"] == r["identity"]:
            continue
        diffs = {k: (r["identity"].get(k), other["identity"].get(k))
                 for k in set(r["identity"]) | set(other["identity"])
                 if r["identity"].get(k) != other["identity"].get(k)}
        print(f"\ncounts differ, {r['workload']} seed {r['seed']} trace "
              f"{r['trace']}: {diffs}")


def main():
    parser = argparse.ArgumentParser(
        description="Summarize one benchmark run set or compare two.")
    parser.add_argument("sets", nargs="+", metavar="SET")
    args = parser.parse_args()
    if len(args.sets) > 2:
        parser.error("give one run set, or a parent and a change set")
    spec = load_spec()
    sets = [load_set(s) for s in args.sets]
    if len(sets) == 1:
        summarize(sets[0], spec)
    else:
        compare(sets[0], sets[1], spec)
    bad = identity_mismatches([r for s in sets for r in s])
    for key, identities in bad:
        print(f"\nWORK COUNTS DIFFER for one program {key}: {identities}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
