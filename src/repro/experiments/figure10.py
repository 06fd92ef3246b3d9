"""Figure 10: parallel scalability with respect to the number of threads.

The paper reports near-linear speed-up of P-Tucker from 1 to 20 threads and
near-linear growth of its (small) memory footprint, plus a 1.5x gain of
dynamic over naive scheduling on MovieLens (Section IV-D).  Every row here is
a measured fit on the ``threaded`` backend, its thread count set through
``REPRO_KERNEL_THREADS``.  Counts above ``os.cpu_count()`` are not run:
threads beyond the cores share them, so their times would show
oversubscription, not scaling.  The memory column is the ``tracemalloc``
allocation peak of a separate, untimed fit at the same count.
"""

from __future__ import annotations

import os
from typing import Sequence

from ..core import PTucker, PTuckerConfig
from ..data.synthetic import random_sparse_tensor
from ..kernels.backends.threaded import (
    CHUNKS_PER_WORKER,
    MIN_CHUNK_ENTRIES,
    THREADS_VARIABLE,
)
from ..metrics.memory import run_with_traced_peak
from .harness import ExperimentResult


def run(
    thread_counts: Sequence[int] = (1, 2, 4, 8, 12, 16, 20),
    dimensionality: int = 3000,
    nnz: int = 30_000,
    rank: int = 5,
    max_iterations: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    """Measure the speed-up and memory curves of Figure 10 on this host's cores.

    The 1-thread fit is always measured, as the speed-up's baseline; the
    caller's ``REPRO_KERNEL_THREADS`` is restored afterwards.
    """
    tensor = random_sparse_tensor((dimensionality,) * 3, nnz, seed=seed)
    config = PTuckerConfig(
        ranks=(rank,) * 3, max_iterations=max_iterations, seed=seed, backend="threaded"
    )
    cores = os.cpu_count() or 1
    measured = sorted({1, *(t for t in thread_counts if t <= cores)})
    skipped = sorted({t for t in thread_counts if t > cores})

    saved = os.environ.get(THREADS_VARIABLE)
    measurements = []
    try:
        for threads in measured:
            os.environ[THREADS_VARIABLE] = str(threads)
            # The traced fit also warms the thread pool for the timed one.
            _, peak_bytes = run_with_traced_peak(lambda: PTucker(config).fit(tensor))
            seconds = PTucker(config).fit(tensor).trace.mean_iteration_seconds
            measurements.append((threads, seconds, peak_bytes))
    finally:
        if saved is None:
            os.environ.pop(THREADS_VARIABLE, None)
        else:
            os.environ[THREADS_VARIABLE] = saved

    experiment = ExperimentResult(name="figure10")
    serial_seconds = measurements[0][1]
    for threads, seconds, peak_bytes in measurements:
        experiment.rows.append(
            {
                "threads": threads,
                "sec/iter": seconds,
                "speedup": serial_seconds / seconds,
                "traced_peak_MB": peak_bytes / (1024.0 * 1024.0),
            }
        )
    if skipped:
        experiment.add_note(
            f"Not measured: T = {', '.join(map(str, skipped))} exceed "
            f"os.cpu_count() = {cores}; oversubscribed threads are not scaling."
        )
    experiment.add_note(
        "Not reproduced: the paper's 1.5x gain of dynamic over static "
        "scheduling. The threaded backend has one chunking policy: "
        f"segment-aligned chunks, {CHUNKS_PER_WORKER} per worker, taken from "
        "a shared pool."
    )
    experiment.add_note(
        f"Chunks hold at least {MIN_CHUNK_ENTRIES} entries; on a small tensor "
        f"(here {nnz:,} entries) per-chunk dispatch can cost more than the "
        "overlap saves, so a speed-up below 1 is measured, not a fault."
    )
    return experiment
