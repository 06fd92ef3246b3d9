"""Thread scheduling model used by the P-Tucker solvers.

The paper's implementation runs the row updates under OpenMP with dynamic
scheduling (Section III-D).  In this Python reproduction the numerical work
is vectorised globally, so a real thread pool would not change the results;
what Figure 10 measures — speed-up versus thread count and the benefit of
dynamic over static scheduling — is a property of how per-row workloads
distribute over threads.  :class:`RowScheduler` records the per-row workloads
of a run (:meth:`RowScheduler.for_tensor`) and answers "what would the
parallel time be with T threads under policy P", which the
parallel-scalability experiment then combines with the measured serial time
(see DESIGN.md, substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .partition import Partition, partition_rows


@dataclass
class RowScheduler:
    """Records row workloads and evaluates scheduling policies over them.

    Attributes
    ----------
    n_threads:
        Number of threads the run is configured with.
    scheduling:
        Policy used for the factor-matrix updates (paper default: dynamic).
    per_item_overhead:
        Fixed cost charged per row in addition to its |Ω_in| share; models the
        J³ solve that every row pays regardless of how many entries it has.
    """

    n_threads: int = 1
    scheduling: str = "dynamic"
    per_item_overhead: float = 1.0
    mode_workloads: List[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_tensor(cls, tensor, iterations: int) -> "RowScheduler":
        """The workloads of ``iterations`` full ALS iterations over ``tensor``.

        Each iteration updates every mode once, and a mode update's row
        workloads are the entry counts of the mode's non-empty rows — the
        same for every iteration, since the observed entries never change.
        """
        row_counts = [
            np.unique(tensor.indices[:, mode], return_counts=True)[1]
            for mode in range(tensor.order)
        ]
        scheduler = cls()
        for _ in range(iterations):
            for counts in row_counts:
                scheduler.record_mode(counts)
        return scheduler

    def record_mode(self, row_counts: Sequence[int]) -> None:
        """Record the |Ω^{(n)}_{i_n}| distribution of one factor update."""
        self.mode_workloads.append(np.asarray(row_counts, dtype=np.float64))

    # ------------------------------------------------------------------
    def _costs(self, workload: np.ndarray) -> np.ndarray:
        return workload + self.per_item_overhead

    def partition_mode(
        self, mode_position: int, n_threads: int = 0, scheduling: str = ""
    ) -> Partition:
        """Partition of one recorded mode under a policy/thread count."""
        workload = self.mode_workloads[mode_position]
        return partition_rows(
            self._costs(workload),
            n_threads or self.n_threads,
            scheduling or self.scheduling,
        )

    def makespan(self, n_threads: int = 0, scheduling: str = "") -> float:
        """Total parallel cost across all recorded modes (sum of makespans)."""
        total = 0.0
        for position in range(len(self.mode_workloads)):
            total += self.partition_mode(position, n_threads, scheduling).makespan()
        return total

    def serial_cost(self) -> float:
        """Total single-thread cost across all recorded modes."""
        return float(
            sum(self._costs(workload).sum() for workload in self.mode_workloads)
        )

    def speedup(self, n_threads: int, scheduling: str = "") -> float:
        """Predicted speed-up Time_1 / Time_T for the recorded workloads."""
        parallel = self.makespan(n_threads, scheduling)
        if parallel == 0.0:
            return 1.0
        return self.serial_cost() / parallel

    def speedup_curve(
        self, thread_counts: Sequence[int], scheduling: str = ""
    ) -> Dict[int, float]:
        """Speed-up for each requested thread count (Figure 10, left panel)."""
        return {int(t): self.speedup(int(t), scheduling) for t in thread_counts}

    def scheduling_comparison(self, n_threads: int) -> Dict[str, float]:
        """Makespan under each policy at a fixed thread count (Section IV-D)."""
        return {
            policy: self.makespan(n_threads, policy)
            for policy in ("static", "dynamic", "lpt")
        }
