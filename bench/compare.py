"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT_RESULTS.jsonl CHANGE_RESULTS.jsonl

Each file holds the records run.py appends to ``.bench_work/results.jsonl``
in a checkout of that commit.  Run both sides with the same ``--seconds`` and
the same seeds, at least ten, alternating which side runs first; a parent and
a change run of one workload and seed form a pair.  Untraced, full-size
records are compared; traced and ``--tiny`` records are skipped.

One row per workload x end-to-end metric gives each side's median and
quartiles over its runs, the share of pairs the change won (ties count for
neither), and a verdict:

* ``improved`` -- at least ten pairs, the change won at least nine tenths of
  them, and the medians differ, in the better direction, by more than the
  parent's interquartile distance;
* ``worse`` -- the change's median is worse than the parent's by more than the
  metric's bound, and the parent's spread (interquartile distance over median)
  is within the bound;
* ``unresolved`` -- the parent's spread is wider than the bound, unless every
  run of the change reads better than every run of the parent;
* ``no worse`` -- otherwise.

``yardstick_s`` times a fixed task to gauge the host's speed, so it gets no
verdict; a large delta there means the two sides ran on a host of different
speed, which ``pipeline_rel`` corrects for and the wall times do not.

Metrics with a bound of 0 (``error_rate``, ``count_nrmse``) repeat exactly for
one seed, so they are judged pair by pair: ``worse`` if any pair is worse,
``improved`` if some pair is better and none worse, ``no worse`` if every pair
is equal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from workloads import E2E_METRICS

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict[tuple[str, str], dict[int, list[float]]]:
    """(workload, metric) -> seed -> values, from untraced full-size records."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for line in path.read_text(encoding="ascii").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"] or record.get("tiny"):
            continue
        for name, value in record["metrics"].items():
            if name in E2E_METRICS and value is not None:
                out[(record["workload"], name)][record["seed"]].append(float(value))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: str, parent: dict[int, list[float]],
            change: dict[int, list[float]]) -> dict:
    _, better, bound = E2E_METRICS[metric]
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) > 0 is worse
    p_all = [v for vs in parent.values() for v in vs]
    c_all = [v for vs in change.values() for v in vs]
    p_q1, p_med, p_q3 = quartiles(p_all)
    c_q1, c_med, c_q3 = quartiles(c_all)
    pairs = [(p, c) for seed in parent.keys() & change.keys()
             for p, c in zip(parent[seed], change[seed])]
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    worse_by = sign * (c_med - p_med)
    worse_share = worse_by / abs(p_med) if p_med else (float("inf") if worse_by > 0 else 0.0)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) < 0 for c in c_all for p in p_all)
    if bound is None:
        result = "-"
    elif bound == 0:
        losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
        result = "worse" if losses else "improved" if wins else "no worse"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and -worse_by > p_q3 - p_q1):
        result = "improved"
    elif worse_share > bound and spread <= bound:
        result = "worse"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "no worse"
    return {"parent": (p_med, p_q1, p_q3, len(p_all)),
            "change": (c_med, c_q1, c_q3, len(c_all)),
            "pairs": len(pairs), "wins": wins,
            "delta": (c_med - p_med) / abs(p_med) if p_med else None,
            "verdict": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    keys = sorted(parent.keys() & change.keys(),
                  key=lambda k: (k[0], list(E2E_METRICS).index(k[1])))
    if not keys:
        print("error: no workload and metric in common", file=sys.stderr)
        return 1
    print(f"{'workload':20s} {'metric':15s} {'unit':5s} {'parent median [q1, q3] n':34s} "
          f"{'change median [q1, q3] n':34s} {'delta':>8s} {'won':>7s}  verdict")
    for workload, metric in keys:
        v = verdict(metric, parent[(workload, metric)], change[(workload, metric)])
        unit = E2E_METRICS[metric][0]
        sides = ["{:.4g} [{:.4g}, {:.4g}] n={}".format(*v[side]) for side in ("parent", "change")]
        delta = "n/a" if v["delta"] is None else f"{v['delta']:+.1%}"
        print(f"{workload:20s} {metric:15s} {unit:5s} {sides[0]:34s} {sides[1]:34s} "
              f"{delta:>8s} {v['wins']:>3d}/{v['pairs']:<3d}  {v['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
