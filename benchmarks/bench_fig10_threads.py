"""Benchmark regenerating Figure 10: measured thread scalability.

Every row is a real ``threaded`` fit at a thread count up to
``os.cpu_count()``.  Speed-ups depend on the host's cores, so only claims
that hold at any scale are asserted.
"""

import os

from repro.experiments import figure10
from repro.experiments.report import render_table


def test_fig10_thread_scalability(benchmark):
    """Speed-up and traced memory versus the number of threads (measured)."""
    thread_counts = (1, 2, 4, 8, 16, 20)
    result = benchmark.pedantic(
        lambda: figure10.run(
            thread_counts=thread_counts,
            dimensionality=2000,
            nnz=20_000,
            max_iterations=1,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(result.rows, title="Figure 10 - speed-up and memory vs threads"))
    for note in result.notes:
        print(f"note: {note}")

    cores = os.cpu_count() or 1
    measured = [row["threads"] for row in result.rows]
    assert measured == sorted({1, *(t for t in thread_counts if t <= cores)})
    skipped = [t for t in thread_counts if t > cores]
    if skipped:
        assert any(f"T = {', '.join(map(str, skipped))}" in n for n in result.notes)
    assert result.rows[0]["speedup"] == 1.0
    assert all(row["sec/iter"] > 0 and row["traced_peak_MB"] > 0 for row in result.rows)
