"""Scalability study: sweep tensor attributes and compare methods.

A scripted version of the paper's Figure 6 / Figure 10 experiments at a size
that runs in a couple of minutes on a laptop: it sweeps the number of
observed entries and the rank, prints the per-iteration time of each method,
and measures P-Tucker's thread scalability on this machine's cores.

Run with:  python examples/scalability_study.py
"""

from __future__ import annotations

from repro.core import PTuckerConfig
from repro.data import nnz_sweep, rank_sweep
from repro.experiments import figure10
from repro.experiments.harness import run_algorithms
from repro.experiments.report import render_table

METHODS = ("P-Tucker", "Tucker-CSF", "S-HOT")


def sweep_table(sweep, max_iterations: int = 2) -> None:
    rows = []
    for workload in sweep.workloads:
        tensor = workload.build()
        config = PTuckerConfig(
            ranks=workload.ranks, max_iterations=max_iterations, seed=workload.seed
        )
        for outcome in run_algorithms(METHODS, tensor, config):
            rows.append(
                {
                    "point": workload.name,
                    "algorithm": outcome.algorithm,
                    "sec/iter": outcome.seconds_per_iteration,
                }
            )
    print(render_table(rows, title=f"sweep over {sweep.attribute}"))
    print()


def thread_study() -> None:
    result = figure10.run(
        thread_counts=(1, 2, 4, 8, 16, 20), dimensionality=5000, nnz=50_000, seed=9
    )
    print(render_table(result.rows, title="measured thread scalability of P-Tucker"))
    for note in result.notes:
        print(f"note: {note}")


def main() -> None:
    sweep_table(nnz_sweep(nnzs=(2000, 8000, 32_000), dimensionality=20_000, rank=5))
    sweep_table(rank_sweep(ranks=(3, 5, 7, 9), dimensionality=5000, nnz=20_000))
    thread_study()


if __name__ == "__main__":
    main()
