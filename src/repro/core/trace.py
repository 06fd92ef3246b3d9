"""Convergence trace of an ALS run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class IterationRecord:
    """Statistics of one ALS iteration."""

    iteration: int
    reconstruction_error: float
    loss: float
    seconds: float
    core_nnz: Optional[int] = None


@dataclass
class ConvergenceTrace:
    """Ordered per-iteration records plus the convergence verdict."""

    records: List[IterationRecord] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""

    def add(self, record: IterationRecord) -> None:
        self.records.append(record)

    def record_iteration(self, record: IterationRecord, config) -> bool:
        """Append ``record`` and apply the stop rule; True when the run stops.

        The run has converged once ``config.min_iterations`` iterations are
        done and the relative error change drops below ``config.tolerance``;
        otherwise it stops at ``config.max_iterations``.  ``converged`` and
        ``stop_reason`` record the verdict.
        """
        self.add(record)
        if (
            record.iteration >= config.min_iterations
            and self.relative_change() < config.tolerance
        ):
            self.converged = True
            self.stop_reason = (
                f"relative error change below tolerance {config.tolerance}"
            )
        elif record.iteration >= config.max_iterations:
            self.stop_reason = f"reached max_iterations={config.max_iterations}"
        return self.converged or record.iteration >= config.max_iterations

    @property
    def n_iterations(self) -> int:
        return len(self.records)

    @property
    def errors(self) -> List[float]:
        """Reconstruction error per iteration (Eq. 5)."""
        return [r.reconstruction_error for r in self.records]

    @property
    def losses(self) -> List[float]:
        """Regularised loss per iteration (Eq. 6)."""
        return [r.loss for r in self.records]

    @property
    def iteration_seconds(self) -> List[float]:
        return [r.seconds for r in self.records]

    @property
    def mean_iteration_seconds(self) -> float:
        if not self.records:
            return 0.0
        return sum(self.iteration_seconds) / len(self.records)

    def relative_change(self) -> float:
        """Relative change of the reconstruction error over the last step."""
        if len(self.records) < 2:
            return float("inf")
        prev = self.records[-2].reconstruction_error
        last = self.records[-1].reconstruction_error
        if prev == 0.0:
            return 0.0
        return abs(prev - last) / prev
