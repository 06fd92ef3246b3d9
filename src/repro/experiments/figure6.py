"""Figure 6: data scalability of P-Tucker versus the competitors.

Four sweeps over synthetic tensors, one per panel:

* (a) tensor order N
* (b) tensor dimensionality I
* (c) number of observable entries |Ω|
* (d) tensor rank J

For every sweep point each method's mean time per iteration is measured; an
intermediate-memory budget models the paper's 512 GB machine so methods that
blow up (Tucker-wOpt on anything non-trivial) report O.O.M. instead of a
time, exactly as in the paper's plots.  Sizes are scaled down relative to the
paper (see "Stand-ins for the paper's setup" in docs/BENCHMARKS.md) but the
progression of each swept attribute is kept, so the curve shapes and the
method ordering are comparable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core import PTuckerConfig
from ..data.workloads import (
    Sweep,
    dimensionality_sweep,
    nnz_sweep,
    order_sweep,
    rank_sweep,
)
from .harness import ExperimentResult, run_algorithms

#: competitors shown in Figure 6 (P-Tucker is the default variant)
FIGURE6_METHODS = ("P-Tucker", "Tucker-wOpt", "Tucker-CSF", "S-HOT")

#: intermediate-data budget standing in for the paper's 512 GB machine; the
#: scaled-down tensors need a proportionally scaled-down budget for the same
#: O.O.M. pattern to emerge.
DEFAULT_BUDGET_MB = 256.0


def _run_sweep(
    sweep: Sweep,
    methods: Sequence[str],
    max_iterations: int,
    budget_mb: float,
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for workload in sweep.workloads:
        tensor = workload.build()
        config = PTuckerConfig(
            ranks=workload.ranks,
            max_iterations=max_iterations,
            seed=workload.seed,
            memory_budget_bytes=int(budget_mb * 1024 * 1024),
        )
        outcomes = run_algorithms(methods, tensor, config)
        for outcome in outcomes:
            rows.append(
                {
                    "sweep": sweep.attribute,
                    "point": workload.name,
                    "algorithm": outcome.algorithm,
                    "sec/iter": outcome.seconds_per_iteration,
                    "oom": outcome.out_of_memory,
                }
            )
    return rows


def run(
    panels: Optional[Sequence[str]] = None,
    methods: Sequence[str] = FIGURE6_METHODS,
    max_iterations: int = 2,
    budget_mb: float = DEFAULT_BUDGET_MB,
    small: bool = False,
) -> ExperimentResult:
    """Regenerate the Figure 6 scalability curves.

    ``panels`` selects a subset of {"order", "dimensionality", "nnz", "rank"};
    ``small=True`` shrinks every sweep for quick benchmark runs.
    """
    if small:
        sweeps = {
            "order": order_sweep(orders=(3, 4, 5), dimensionality=30, nnz=400),
            "dimensionality": dimensionality_sweep(dims=(50, 200, 800), rank=4),
            "nnz": nnz_sweep(nnzs=(500, 2000, 8000), dimensionality=5000, rank=4),
            "rank": rank_sweep(ranks=(3, 5, 7), dimensionality=1000, nnz=5000),
        }
    else:
        sweeps = {
            "order": order_sweep(),
            "dimensionality": dimensionality_sweep(),
            "nnz": nnz_sweep(),
            "rank": rank_sweep(),
        }
    selected = panels if panels else tuple(sweeps)

    experiment = ExperimentResult(name="figure6")
    for panel in selected:
        if panel not in sweeps:
            raise KeyError(f"unknown Figure 6 panel {panel!r}")
        experiment.add_rows(
            _run_sweep(sweeps[panel], methods, max_iterations, budget_mb)
        )
    experiment.add_note(
        "Each row is one (sweep point, algorithm) pair with the mean seconds per "
        "iteration; 'oom' marks runs that exceeded the intermediate-memory budget."
    )
    return experiment
