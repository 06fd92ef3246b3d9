"""Figure 7: factorization speed on the real-world tensors.

The paper measures the average time per iteration of every method on
Yahoo-music, MovieLens, the sea-wave video and the 'Lena' image tensors.
This experiment runs the same comparison on the scaled-down stand-ins from
:func:`repro.data.workloads.realworld_standins` (see "Stand-ins for the
paper's setup" in docs/BENCHMARKS.md) and additionally includes
P-Tucker-Approx, which the paper plots alongside P-Tucker in this figure.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core import PTuckerConfig
from ..data.workloads import realworld_standins
from .harness import ExperimentResult, run_algorithms

FIGURE7_METHODS = (
    "P-Tucker",
    "P-Tucker-Approx",
    "Tucker-wOpt",
    "Tucker-CSF",
    "S-HOT",
)


def run(
    methods: Sequence[str] = FIGURE7_METHODS,
    scale: float = 0.25,
    max_iterations: int = 2,
    budget_mb: float = 256.0,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate the per-dataset speed comparison of Figure 7."""
    datasets = realworld_standins(scale=scale, seed=seed)
    experiment = ExperimentResult(name="figure7")
    for dataset_name, (tensor, ranks) in datasets.items():
        config = PTuckerConfig(
            ranks=ranks,
            max_iterations=max_iterations,
            seed=seed,
            memory_budget_bytes=int(budget_mb * 1024 * 1024),
        )
        outcomes = run_algorithms(methods, tensor, config)
        for outcome in outcomes:
            experiment.rows.append(
                {
                    "dataset": dataset_name,
                    "algorithm": outcome.algorithm,
                    "sec/iter": outcome.seconds_per_iteration,
                    "oom": outcome.out_of_memory,
                }
            )
    experiment.add_note(
        "Datasets are scaled-down synthetic stand-ins for the paper's real-world "
        "tensors; empty (oom) entries correspond to the paper's missing bars."
    )
    return experiment
