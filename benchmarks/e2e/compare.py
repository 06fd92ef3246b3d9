"""``compare``: per-workload verdicts for two sets of untraced results.

Each set is a directory of result files written with ``--results DIR``.
Runs are paired in seed order, so two sets run with the same seeds pair
seed by seed.  For every end-to-end metric of ``BENCHMARK.json``:

* **regressed** — the change's median is worse than the parent's by more
  than the metric's bound;
* **improved** — at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither), and its median beats the parent's by
  more than the parent's own spread (the distance between its quartiles);
* **unresolved** — the parent's spread is wider than the bound, unless
  every run of the change reads better than every run of the parent;
* **unchanged** — otherwise.

A workload's verdict is its worst metric verdict in that order
(regressed, unresolved, improved, unchanged).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9
RANK = {"regressed": 0, "unresolved": 1, "improved": 2, "unchanged": 3}


def load_set(directory: str) -> Dict[str, Dict[int, Dict[str, float]]]:
    """``{workload: {seed: metrics}}`` of the correct untraced runs in a directory."""
    runs: Dict[str, Dict[int, Dict[str, float]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("trace") or not record.get("correct"):
            continue
        runs.setdefault(record["workload"], {})[record["seed"]] = record["metrics"]
    return runs


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(
    parent: List[float], change: List[float], bound: float, lower_is_better: bool
) -> Dict[str, object]:
    """Verdict for one metric; ``parent[i]`` pairs ``change[i]``."""
    sign = 1.0 if lower_is_better else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(med_p) if med_p else 0.0
    worse_by = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse_by > bound:
        label = "regressed"
    elif (
        pairs >= MIN_PAIRS
        and wins >= WIN_SHARE * pairs
        and sign * (med_p - med_c) > q3 - q1
    ):
        label = "improved"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "parent_median": med_p,
        "change_median": med_c,
        "parent_spread": spread,
        "worse_by": worse_by,
        "wins": wins,
        "pairs": pairs,
    }


def compare(parent_dir: str, change_dir: str, bench: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    parent, change = load_set(parent_dir), load_set(change_dir)
    report: Dict[str, Dict[str, object]] = {}
    for workload in sorted(set(parent) & set(change)):
        before = [parent[workload][s] for s in sorted(parent[workload])]
        after = [change[workload][s] for s in sorted(change[workload])]
        metrics = {
            m["name"]: verdict(
                [run[m["name"]] for run in before],
                [run[m["name"]] for run in after],
                m["bound"],
                m["better"] == "lower",
            )
            for m in bench["end_to_end"]
        }
        worst = min((m["verdict"] for m in metrics.values()), key=RANK.__getitem__)
        pairs = min(len(before), len(after))
        report[workload] = {"verdict": worst, "pairs": pairs, "metrics": metrics}
    return report


def main(argv, root: str) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    report = compare(argv[0], argv[1], bench)
    if not report:
        print("no workload has correct untraced runs in both sets", file=sys.stderr)
        return 2
    for workload, entry in report.items():
        note = "" if entry["pairs"] >= MIN_PAIRS else f" (only {entry['pairs']} pairs: no gain can be claimed)"
        print(f"{workload}: {entry['verdict']}{note}")
        for name, m in entry["metrics"].items():
            print(
                f"  {name:12s} {m['verdict']:10s} parent {m['parent_median']:.6g} "
                f"change {m['change_median']:.6g} worse_by {m['worse_by']:+.3%} "
                f"spread {m['parent_spread']:.3%} wins {m['wins']}/{m['pairs']}"
            )
    print(json.dumps(report))
    return 1 if any(e["verdict"] == "regressed" for e in report.values()) else 0
