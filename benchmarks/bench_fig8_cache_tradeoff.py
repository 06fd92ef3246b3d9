"""Benchmark regenerating Figure 8: P-Tucker vs P-Tucker-Cache time/memory trade-off."""

import pytest

from repro.core import PTucker, PTuckerCache, PTuckerConfig
from repro.data import random_sparse_tensor
from repro.experiments import figure8
from repro.experiments.report import render_table


def test_fig8_order_sweep(benchmark):
    """Time and peak intermediate memory of both variants across tensor orders."""
    result = benchmark.pedantic(
        lambda: figure8.run(orders=(4, 5, 6), dimensionality=40, nnz=600, max_iterations=1),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(result.rows, title="Figure 8 - P-Tucker vs P-Tucker-Cache"))
    for note in result.notes:
        print(f"note: {note}")
    for column in ("peak_mem_MB", "traced_peak_MB"):
        cache_memory = [
            row[column] for row in result.rows if row["algorithm"] == "P-Tucker-Cache"
        ]
        base_memory = [
            row[column] for row in result.rows if row["algorithm"] == "P-Tucker"
        ]
        assert all(c > b for c, b in zip(cache_memory, base_memory)), column


@pytest.mark.parametrize("solver_cls", [PTucker, PTuckerCache])
def test_fig8_variant_iteration_cost(benchmark, solver_cls):
    """Direct per-fit timing of the two variants on a fixed higher-order tensor."""
    tensor = random_sparse_tensor((40,) * 5, nnz=600, seed=4)
    config = PTuckerConfig(ranks=(3,), max_iterations=1, seed=0)
    result = benchmark(lambda: solver_cls(config).fit(tensor))
    assert result.trace.n_iterations == 1
