"""Timing and counting helpers shared by solvers, benchmarks and serving.

:class:`IterationTimer` records a fit's per-iteration wall times;
:class:`Counters` and :class:`LatencyWindow` are the one structured-stats
mechanism every serving component reports through — the LRU caches count
hits/misses/evictions in a :class:`Counters`, the micro-batcher counts
batch occupancy in another, and the server's request latencies accumulate
in a :class:`LatencyWindow` whose :meth:`~LatencyWindow.snapshot` yields
the p50/p99/mean milliseconds the ``/stats`` endpoint serves.  Components
never grow ad-hoc counter dicts of their own; they hold one of these and
expose its snapshot.
"""

from __future__ import annotations

import math
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List


@dataclass
class IterationTimer:
    """Per-iteration wall-clock times of an ALS run.

    The paper reports *average elapsed time per iteration* (Section IV-A3);
    :attr:`mean_seconds` is that number.
    """

    seconds: List[float] = field(default_factory=list)

    @contextmanager
    def iteration(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds.append(time.perf_counter() - start)

    @property
    def mean_seconds(self) -> float:
        if not self.seconds:
            return 0.0
        return float(sum(self.seconds) / len(self.seconds))

    @property
    def total_seconds(self) -> float:
        return float(sum(self.seconds))


@dataclass
class Counters:
    """Named monotonic event counters with a structured snapshot.

    The serving layer's shared counting mechanism: the LRU caches, the
    micro-batcher and the server all record their events here, and the
    ``/stats`` endpoint renders :meth:`snapshot` dictionaries — there is
    deliberately no second counter type anywhere in :mod:`repro.serve`.
    """

    values: Dict[str, int] = field(default_factory=dict)

    def add(self, label: str, amount: int = 1) -> None:
        """Add ``amount`` events under ``label``."""
        self.values[label] = self.values.get(label, 0) + int(amount)

    def get(self, label: str) -> int:
        """Current count of ``label`` (0 when never seen)."""
        return self.values.get(label, 0)

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` as a float, 0.0 on an empty denominator."""
        bottom = self.get(denominator)
        if bottom == 0:
            return 0.0
        return self.get(numerator) / bottom

    def snapshot(self) -> Dict[str, int]:
        """A JSON-ready copy of every counter."""
        return dict(self.values)


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Linear-interpolation percentile of an ascending-sorted list.

    Matches ``numpy.percentile``'s default (linear) method; kept
    dependency-free so stats snapshots never import numpy on the server's
    hot path.  Returns ``nan`` for an empty list.
    """
    if not sorted_values:
        return float("nan")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (len(sorted_values) - 1) * min(max(fraction, 0.0), 1.0)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(sorted_values[low])
    weight = rank - low
    return float(sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight)


@dataclass
class LatencyWindow:
    """A sliding window of request durations with percentile snapshots.

    Serving latency is long-tailed, so the window keeps the most recent
    ``maxlen`` samples (deque-backed, O(1) per record) rather than a lossy
    running mean; :meth:`snapshot` reports count/mean/p50/p99/max in
    milliseconds, which is what ``BENCH_serving.json`` and the server's
    ``/stats`` endpoint both publish.
    """

    maxlen: int = 4096
    total_count: int = 0
    total_seconds: float = 0.0
    samples: Deque[float] = field(default_factory=deque)

    def __post_init__(self) -> None:
        self.samples = deque(self.samples, maxlen=self.maxlen)

    def record(self, seconds: float) -> None:
        """Add one request duration in seconds."""
        self.samples.append(float(seconds))
        self.total_count += 1
        self.total_seconds += float(seconds)

    @contextmanager
    def measure(self) -> Iterator[None]:
        """Context manager recording the elapsed wall-clock time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(time.perf_counter() - start)

    def snapshot(self) -> Dict[str, float]:
        """JSON-ready latency summary (milliseconds) over the window."""
        window = sorted(self.samples)
        mean = (sum(window) / len(window)) if window else float("nan")
        return {
            "count": self.total_count,
            "window": len(window),
            "mean_ms": mean * 1e3 if window else float("nan"),
            "p50_ms": percentile(window, 0.50) * 1e3,
            "p90_ms": percentile(window, 0.90) * 1e3,
            "p99_ms": percentile(window, 0.99) * 1e3,
            "max_ms": window[-1] * 1e3 if window else float("nan"),
        }
