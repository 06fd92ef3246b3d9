"""Ablations: Tucker rank and L2 regularization strength.

Two design knobs the paper's setup fixes (see "Stand-ins for the paper's
setup" in docs/BENCHMARKS.md):

* the rank J controls the capacity/cost trade-off (the J^N term of Table III),
* the regularization λ (paper default 0.01) controls over-fitting on sparse
  observations.

Both are swept on a planted tensor with a held-out split.
"""

import numpy as np

from repro.core import PTucker, PTuckerConfig
from repro.data import planted_tucker_tensor
from repro.experiments.report import render_table


def _split_problem():
    planted = planted_tucker_tensor(
        shape=(120, 100, 40), ranks=(4, 4, 4), nnz=15_000, noise_level=0.05, seed=2
    )
    rng = np.random.default_rng(3)
    return planted.tensor.split(0.9, rng=rng)


def test_ablation_rank(benchmark):
    """Sweep the Tucker rank: cost should grow with J, RMSE should bottom out near the planted rank."""

    def run():
        train, test = _split_problem()
        rows = []
        for rank in (2, 4, 6, 8):
            config = PTuckerConfig(ranks=(rank,) * 3, max_iterations=5, seed=0)
            result = PTucker(config).fit(train)
            rows.append(
                {
                    "rank": rank,
                    "sec/iter": result.trace.mean_iteration_seconds,
                    "train_error": result.trace.errors[-1],
                    "test_rmse": result.test_rmse(test),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="Ablation - Tucker rank"))
    by_rank = {row["rank"]: row for row in rows}
    assert by_rank[8]["sec/iter"] > by_rank[2]["sec/iter"]
    assert by_rank[4]["test_rmse"] < by_rank[2]["test_rmse"]


def test_ablation_regularization(benchmark):
    """Sweep λ: extreme values must hurt the held-out RMSE relative to moderate ones."""

    def run():
        train, test = _split_problem()
        rows = []
        for lam in (0.0, 0.01, 1.0, 100.0):
            config = PTuckerConfig(
                ranks=(4, 4, 4), max_iterations=5, seed=0, regularization=lam
            )
            result = PTucker(config).fit(train)
            rows.append(
                {
                    "lambda": lam,
                    "train_error": result.trace.errors[-1],
                    "test_rmse": result.test_rmse(test),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="Ablation - regularization strength"))
    by_lambda = {row["lambda"]: row for row in rows}
    # The paper's default (0.01) must beat a heavily over-regularised model.
    assert by_lambda[0.01]["test_rmse"] < by_lambda[100.0]["test_rmse"]
