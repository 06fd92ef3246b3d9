"""Figure 8: P-Tucker versus P-Tucker-Cache (time and memory vs tensor order).

The cache variant trades memory (the |Ω| x |G| table Pres) for speed (O(1)
instead of O(N) work per (entry, core entry) pair).  The paper sweeps the
tensor order from 6 to 10 with I = 100, |Ω| = 10³, J = 3 and reports
(a) running time per iteration and (b) required memory for both variants.
This experiment runs the same sweep (with a slightly smaller default order
range so a pure-Python run stays quick) and reports both quantities.
``peak_mem_MB`` is the intermediate data the solver charges to its
:class:`~repro.metrics.memory.MemoryTracker` (the paper's accounting);
``traced_peak_MB`` is the ``tracemalloc`` allocation peak of a separate,
untimed fit, so the charged figure can be read against a measured one.
"""

from __future__ import annotations

from typing import Sequence

from ..core import PTuckerConfig
from ..data.synthetic import random_sparse_tensor
from ..metrics.memory import run_with_traced_peak
from .harness import ExperimentResult, make_solver, run_algorithm


def run(
    orders: Sequence[int] = (4, 5, 6, 7),
    dimensionality: int = 50,
    nnz: int = 800,
    rank: int = 3,
    max_iterations: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate the time/memory trade-off curves of Figure 8."""
    experiment = ExperimentResult(name="figure8")
    for order in orders:
        tensor = random_sparse_tensor(
            (dimensionality,) * order, nnz, seed=seed + order
        )
        config = PTuckerConfig(
            ranks=(rank,) * order, max_iterations=max_iterations, seed=seed
        )
        for algorithm in ("P-Tucker", "P-Tucker-Cache"):
            # The traced fit also warms the caches for the timed one.
            _, peak_bytes = run_with_traced_peak(
                lambda: make_solver(algorithm, config).fit(tensor)
            )
            outcome = run_algorithm(algorithm, tensor, config)
            experiment.rows.append(
                {
                    "order": order,
                    "algorithm": algorithm,
                    "sec/iter": outcome.seconds_per_iteration,
                    "peak_mem_MB": outcome.peak_memory_mb,
                    "traced_peak_MB": peak_bytes / (1024.0 * 1024.0),
                }
            )
    by_key = {(row["order"], row["algorithm"]): row for row in experiment.rows}
    top = max(orders)
    time_ratio = (
        by_key[(top, "P-Tucker-Cache")]["sec/iter"]
        / by_key[(top, "P-Tucker")]["sec/iter"]
    )
    experiment.add_note(
        "Reproduced: P-Tucker-Cache's memory grows with J^N while P-Tucker's "
        "charged memory stays flat (the paper: up to 29.5x less for P-Tucker "
        "at the largest order)."
    )
    experiment.add_note(
        "Not reproduced: the paper's P-Tucker-Cache up to 1.7x faster. Here its "
        f"sec/iter is {time_ratio:.1f}x P-Tucker's at order {top}: the contracted "
        "kernel contracts the core one mode at a time instead of forming the "
        "N-fold product per (entry, core cell) that the cache saves, while "
        "the cache still reads all |Omega| x |G| cells of Pres per mode."
    )
    return experiment
