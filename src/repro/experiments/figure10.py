"""Figure 10: parallel scalability with respect to the number of threads.

The paper reports near-linear speed-up of P-Tucker from 1 to 20 threads and
near-linear growth of its (small) memory footprint, plus a 1.5x gain of
dynamic over naive scheduling on MovieLens (Section IV-D).  Per the
substitution policy in DESIGN.md, this build measures a serial run, records
the per-row workload distribution, and derives the parallel times from the
scheduling simulator, which captures exactly the load-balancing effects the
figure is about.
"""

from __future__ import annotations

from typing import Sequence

from ..core import PTucker, PTuckerConfig
from ..data.synthetic import random_sparse_tensor
from ..parallel.scheduler import RowScheduler
from ..parallel.simulator import ParallelSimulator
from .harness import ExperimentResult


def run(
    thread_counts: Sequence[int] = (1, 2, 4, 8, 12, 16, 20),
    dimensionality: int = 3000,
    nnz: int = 30_000,
    rank: int = 5,
    max_iterations: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate the speed-up and memory curves of Figure 10."""
    tensor = random_sparse_tensor((dimensionality,) * 3, nnz, seed=seed)
    config = PTuckerConfig(ranks=(rank,) * 3, max_iterations=max_iterations, seed=seed)
    result = PTucker(config).fit(tensor)
    serial_seconds = result.trace.mean_iteration_seconds
    simulator = ParallelSimulator(
        RowScheduler.for_tensor(tensor, result.trace.n_iterations),
        serial_seconds=serial_seconds,
        sync_overhead_seconds=serial_seconds * 0.002,
        rank=rank,
    )

    experiment = ExperimentResult(name="figure10")
    for threads in thread_counts:
        estimate = simulator.estimate(threads, "dynamic")
        experiment.rows.append(
            {
                "threads": threads,
                "speedup": estimate.speedup,
                "parallel_sec/iter": estimate.parallel_seconds,
                "memory_MB": estimate.memory_bytes / (1024.0 * 1024.0),
            }
        )
    gain = simulator.scheduling_gain(max(thread_counts))
    experiment.add_note(
        f"Dynamic over static scheduling gain at T={max(thread_counts)}: "
        f"{gain:.2f}x (paper reports 1.5x on MovieLens)."
    )
    return experiment
