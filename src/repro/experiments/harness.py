"""Common experiment harness: build solvers, run them, collect comparable rows.

Every figure/table module uses :func:`run_algorithms` to execute a set of
methods on one tensor under a shared configuration and get back one row per
method with the quantities the paper reports: mean seconds per iteration,
reconstruction error, test RMSE, peak intermediate memory and the O.O.M.
flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import SHot, TuckerAls, TuckerCsf, TuckerWopt
from ..core import PTucker, PTuckerApprox, PTuckerCache, PTuckerConfig, TuckerResult
from ..exceptions import OutOfMemoryError, ShapeError
from ..tensor.coo import SparseTensor

#: registry of every algorithm the experiments can run, keyed by display name
ALGORITHM_REGISTRY: Dict[str, Callable[[PTuckerConfig], object]] = {
    "P-Tucker": PTucker,
    "P-Tucker-Cache": PTuckerCache,
    "P-Tucker-Approx": PTuckerApprox,
    "Tucker-ALS": TuckerAls,
    "Tucker-wOpt": TuckerWopt,
    "Tucker-CSF": TuckerCsf,
    "S-HOT": SHot,
}

#: the competitor set of the paper's evaluation (Section IV-A2)
PAPER_COMPETITORS: Tuple[str, ...] = (
    "P-Tucker",
    "Tucker-wOpt",
    "Tucker-CSF",
    "S-HOT",
)


@dataclass
class RunOutcome:
    """The outcome of running one algorithm on one tensor."""

    algorithm: str
    result: Optional[TuckerResult] = None
    out_of_memory: bool = False
    error_message: str = ""
    seconds_per_iteration: float = float("nan")
    reconstruction_error: float = float("nan")
    test_rmse: float = float("nan")
    peak_memory_mb: float = float("nan")

    def as_row(self) -> Dict[str, object]:
        """Row dictionary for the report tables."""
        return {
            "algorithm": self.algorithm,
            "sec/iter": self.seconds_per_iteration,
            "recon_error": self.reconstruction_error,
            "test_rmse": self.test_rmse,
            "peak_mem_MB": self.peak_memory_mb,
            "oom": self.out_of_memory,
        }


def make_solver(name: str, config: PTuckerConfig):
    """Instantiate an algorithm from the registry by display name."""
    if name not in ALGORITHM_REGISTRY:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHM_REGISTRY)}"
        )
    return ALGORITHM_REGISTRY[name](config)


def run_algorithm(
    name: str,
    tensor: SparseTensor,
    config: PTuckerConfig,
    test_tensor: Optional[SparseTensor] = None,
) -> RunOutcome:
    """Run one algorithm, translating O.O.M. into a flagged outcome row."""
    outcome = RunOutcome(algorithm=name)
    solver = make_solver(name, config)
    try:
        result = solver.fit(tensor)
    except OutOfMemoryError as exc:
        outcome.out_of_memory = True
        outcome.error_message = str(exc)
        return outcome
    except (np.linalg.LinAlgError, ShapeError) as exc:
        outcome.error_message = str(exc)
        return outcome
    outcome.result = result
    outcome.seconds_per_iteration = result.trace.mean_iteration_seconds
    outcome.reconstruction_error = (
        result.trace.errors[-1] if result.trace.records else float("nan")
    )
    if test_tensor is not None:
        outcome.test_rmse = result.test_rmse(test_tensor)
    if result.memory is not None:
        outcome.peak_memory_mb = result.memory.peak_megabytes
    return outcome


def run_algorithms(
    names: Sequence[str],
    tensor: SparseTensor,
    config: PTuckerConfig,
    test_tensor: Optional[SparseTensor] = None,
) -> List[RunOutcome]:
    """Run several algorithms on the same tensor with the same configuration."""
    return [run_algorithm(name, tensor, config, test_tensor) for name in names]


@dataclass
class ExperimentResult:
    """Output of one experiment module: named rows plus free-form notes."""

    name: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_rows(self, rows: Sequence[Dict[str, object]]) -> None:
        self.rows.extend(rows)

    def add_note(self, note: str) -> None:
        self.notes.append(note)
