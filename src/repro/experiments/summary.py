"""Headline-claim summary: the paper's "1.7-14.1x faster, 1.4-4.8x less error".

The abstract condenses the evaluation into two ranges: P-Tucker's speed-up
over the best competitor per speed experiment, and its error reduction over
the competitors per accuracy experiment.  This module computes the same kind
of summary from the rows the Figure 6/7 and Figure 11 experiments produce
(``python -m repro.experiments figure6`` and friends), so the headline
numbers of this reproduction can be compared against the paper's.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .harness import ExperimentResult


def _finite(value: object) -> Optional[float]:
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    if math.isnan(number) or math.isinf(number):
        return None
    return number


def _group_rows(
    rows: Iterable[Mapping[str, object]], group_keys: Sequence[str]
) -> Dict[tuple, List[Mapping[str, object]]]:
    groups: Dict[tuple, List[Mapping[str, object]]] = {}
    for row in rows:
        key = tuple(row.get(k) for k in group_keys)
        groups.setdefault(key, []).append(row)
    return groups


def speedup_summary(
    result: ExperimentResult,
    metric: str = "sec/iter",
    group_keys: Sequence[str] = ("sweep", "point"),
    target: str = "P-Tucker",
) -> Dict[str, float]:
    """Min/max speed-up of ``target`` over the best competitor per group.

    A group is one sweep point (Figure 6) or one dataset (Figure 7); within
    the group the competitor with the smallest metric value is the reference,
    and the ratio ``competitor / target`` is the speed-up.  Groups where the
    target did not finish are skipped; competitors that went O.O.M. are
    excluded from the comparison (as the paper does with its empty bars).
    """
    ratios: List[float] = []
    for _, rows in _group_rows(result.rows, group_keys).items():
        target_rows = [r for r in rows if r.get("algorithm") == target and not r.get("oom")]
        other_rows = [r for r in rows if r.get("algorithm") != target and not r.get("oom")]
        if not target_rows or not other_rows:
            continue
        target_value = _finite(target_rows[0].get(metric))
        other_values = [v for v in (_finite(r.get(metric)) for r in other_rows) if v is not None]
        if target_value is None or target_value <= 0 or not other_values:
            continue
        ratios.append(min(other_values) / target_value)
    if not ratios:
        return {"min": 1.0, "max": 1.0, "count": 0}
    return {"min": min(ratios), "max": max(ratios), "count": len(ratios)}


def accuracy_summary(
    result: ExperimentResult,
    metric: str = "test_rmse",
    group_keys: Sequence[str] = ("dataset",),
    target: str = "P-Tucker",
) -> Dict[str, float]:
    """Min/max error reduction of ``target`` versus the best competitor per group.

    The ratio reported is ``best competitor error / target error`` — values
    above 1 mean the target is more accurate, matching the paper's
    "1.4-4.8x less error" phrasing.
    """
    return speedup_summary(result, metric=metric, group_keys=group_keys, target=target)


def headline(
    speed_results: Sequence[ExperimentResult],
    accuracy_results: Sequence[ExperimentResult],
) -> Dict[str, Dict[str, float]]:
    """Combine several experiments into the abstract-style headline ranges."""
    speed_ratios: List[float] = []
    for result in speed_results:
        keys = ("sweep", "point") if any("sweep" in r for r in result.rows) else ("dataset",)
        summary = speedup_summary(result, group_keys=keys)
        if summary["count"]:
            speed_ratios.extend([summary["min"], summary["max"]])
    error_ratios: List[float] = []
    for result in accuracy_results:
        summary = accuracy_summary(result)
        if summary["count"]:
            error_ratios.extend([summary["min"], summary["max"]])
    return {
        "speedup": {
            "min": min(speed_ratios) if speed_ratios else 1.0,
            "max": max(speed_ratios) if speed_ratios else 1.0,
        },
        "error_reduction": {
            "min": min(error_ratios) if error_ratios else 1.0,
            "max": max(error_ratios) if error_ratios else 1.0,
        },
    }
