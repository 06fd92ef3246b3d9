"""Parallel-execution cost simulator for the thread-scalability experiments.

The paper's Figure 10 reports speed-up (Time_1 / Time_T) and memory versus the
number of OpenMP threads on a 20-core machine, and Section IV-D reports a 1.5x
gain of dynamic over naive (static) scheduling.  A pure-Python build cannot
reproduce those wall-clock numbers directly, so — per the substitution policy
in DESIGN.md — this simulator derives them from quantities the run *does*
produce:

* the measured serial per-entry update cost (seconds per observed entry),
* the per-row workload distribution |Ω^{(n)}_{i_n}| recorded by
  :class:`~repro.parallel.scheduler.RowScheduler`,
* the per-thread intermediate-memory footprint O(J^2) of Theorem 4.

The simulated parallel time of one iteration is the scheduling makespan over
those workloads scaled by the measured per-unit cost, plus a configurable
synchronisation overhead per mode.  This preserves exactly the effects the
paper attributes to its parallel design: near-linear speed-up while workloads
stay balanced, and the gap between static and dynamic scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..metrics.memory import BYTES_PER_FLOAT
from .scheduler import RowScheduler


@dataclass(frozen=True)
class ThreadRunEstimate:
    """Simulated execution of one configuration (thread count + policy)."""

    n_threads: int
    scheduling: str
    parallel_seconds: float
    serial_seconds: float
    speedup: float
    memory_bytes: float


class ParallelSimulator:
    """Estimates parallel times from a recorded serial run.

    Parameters
    ----------
    scheduler:
        The :class:`RowScheduler` of a serial solve
        (:meth:`RowScheduler.for_tensor`); it holds the per-row workload
        distribution of every factor update.
    serial_seconds:
        Measured wall-clock seconds of the serial work being parallelised
        (typically the mean per-iteration factor-update time).
    sync_overhead_seconds:
        Barrier/fork-join overhead charged once per recorded mode per
        iteration; keeps speed-up from being perfectly linear, as in the
        paper's measurements.
    rank:
        Tucker rank J used to size the per-thread intermediate memory.
    """

    def __init__(
        self,
        scheduler: RowScheduler,
        serial_seconds: float,
        sync_overhead_seconds: float = 0.0,
        rank: int = 10,
    ) -> None:
        if serial_seconds < 0:
            raise ValueError("serial_seconds must be non-negative")
        self.scheduler = scheduler
        self.serial_seconds = float(serial_seconds)
        self.sync_overhead_seconds = float(sync_overhead_seconds)
        self.rank = int(rank)

    # ------------------------------------------------------------------
    def _seconds_per_unit(self) -> float:
        total_cost = self.scheduler.serial_cost()
        if total_cost == 0.0:
            return 0.0
        return self.serial_seconds / total_cost

    def estimate(self, n_threads: int, scheduling: str = "") -> ThreadRunEstimate:
        """Simulate a run with ``n_threads`` under the given policy."""
        policy = scheduling or self.scheduler.scheduling
        unit = self._seconds_per_unit()
        makespan = self.scheduler.makespan(n_threads, policy)
        n_modes = len(self.scheduler.mode_workloads)
        parallel = makespan * unit + n_modes * self.sync_overhead_seconds
        serial = self.serial_seconds + n_modes * self.sync_overhead_seconds
        speedup = serial / parallel if parallel > 0 else 1.0
        memory = self.memory_bytes(n_threads)
        return ThreadRunEstimate(
            n_threads=int(n_threads),
            scheduling=policy,
            parallel_seconds=parallel,
            serial_seconds=serial,
            speedup=speedup,
            memory_bytes=memory,
        )

    def memory_bytes(self, n_threads: int) -> float:
        """Per-thread intermediate data of Theorem 4: O(T J^2)."""
        j = self.rank
        return float(n_threads) * (2 * j * j + 2 * j) * BYTES_PER_FLOAT

    def speedup_curve(
        self, thread_counts: Sequence[int], scheduling: str = ""
    ) -> Dict[int, ThreadRunEstimate]:
        """Estimates for every requested thread count (Figure 10)."""
        return {int(t): self.estimate(int(t), scheduling) for t in thread_counts}

    def scheduling_gain(self, n_threads: int) -> float:
        """Static-over-dynamic time ratio at ``n_threads`` (Section IV-D)."""
        dynamic = self.estimate(n_threads, "dynamic").parallel_seconds
        static = self.estimate(n_threads, "static").parallel_seconds
        if dynamic == 0.0:
            return 1.0
        return static / dynamic


def efficiency(estimates: Dict[int, ThreadRunEstimate]) -> Dict[int, float]:
    """Parallel efficiency (speed-up / threads) for a speed-up curve."""
    return {
        threads: est.speedup / threads if threads > 0 else 1.0
        for threads, est in estimates.items()
    }
