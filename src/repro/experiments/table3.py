"""Table III: time and memory complexity of every algorithm.

The paper's Table III states per-iteration time complexities and
intermediate-memory complexities.  This experiment verifies them empirically
on two axes this build can sweep cheaply:

* **time vs |Ω|** — P-Tucker's per-iteration time should grow near linearly
  with the number of observed entries (the N²|Ω|Jᴺ term dominates), while the
  dense Tucker-wOpt time should *not* depend on |Ω| (it is grid-bound).
* **memory vs rank / threads** — the measured peak intermediate data of each
  method is compared with the closed-form estimate of
  :class:`~repro.metrics.memory.MemoryModel`.

The result rows carry both the measured quantity and the model prediction,
so ``python -m repro.experiments table3`` prints measured-vs-expected side by
side.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core import PTuckerConfig
from ..data.synthetic import random_sparse_tensor
from ..metrics.memory import MemoryModel, TensorAttributes
from .harness import ExperimentResult, run_algorithm


def time_scaling_rows(
    nnz_values: Sequence[int] = (1000, 2000, 4000, 8000),
    dimensionality: int = 300,
    rank: int = 4,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Mean per-iteration time of P-Tucker as |Ω| grows (linear-in-|Ω| check)."""
    rows: List[Dict[str, object]] = []
    config = PTuckerConfig(ranks=(rank,) * 3, max_iterations=2, seed=seed)
    for nnz in nnz_values:
        tensor = random_sparse_tensor((dimensionality,) * 3, nnz, seed=seed + nnz)
        outcome = run_algorithm("P-Tucker", tensor, config)
        rows.append(
            {
                "algorithm": "P-Tucker",
                "nnz": nnz,
                "sec/iter": outcome.seconds_per_iteration,
            }
        )
    return rows


def memory_model_rows(
    dimensionality: int = 200,
    nnz: int = 4000,
    rank: int = 4,
    threads: int = 4,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Measured peak intermediate memory vs the Table III closed forms."""
    attrs = TensorAttributes(shape=(dimensionality,) * 3, ranks=(rank,) * 3, nnz=nnz)
    model = MemoryModel(threads=threads)
    tensor = random_sparse_tensor(attrs.shape, nnz, seed=seed)
    config = PTuckerConfig(ranks=(rank,) * 3, max_iterations=2, seed=seed)
    rows: List[Dict[str, object]] = []
    for name in ("P-Tucker", "P-Tucker-Cache", "Tucker-ALS", "S-HOT"):
        outcome = run_algorithm(name, tensor, config)
        measured = outcome.peak_memory_mb
        expected = model.estimate(name, attrs) / (1024.0 * 1024.0)
        rows.append(
            {
                "algorithm": name,
                "measured_MB": measured,
                "model_MB": expected,
            }
        )
    return rows


def run(seed: int = 0) -> ExperimentResult:
    """Regenerate the empirical checks behind Table III."""
    experiment = ExperimentResult(name="table3")
    experiment.add_rows(time_scaling_rows(seed=seed))
    experiment.add_rows(memory_model_rows(seed=seed))
    experiment.add_note(
        "Time rows: P-Tucker per-iteration time should scale near-linearly in |Ω|. "
        "Memory rows: measured peak intermediate data versus the Table III formulas."
    )
    return experiment
