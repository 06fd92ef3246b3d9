"""Ablation: scheduling policy for the parallel row updates (Section IV-D).

The paper reports that dynamic scheduling makes P-Tucker 1.5x faster than a
naive (static) work distribution on MovieLens.  This ablation measures the
makespan of static, dynamic and LPT scheduling over the row-workload
distribution of a real run, for several thread counts.
"""

from repro.core import PTucker, PTuckerConfig
from repro.data import generate_movielens_like
from repro.experiments.report import render_table
from repro.parallel import ParallelSimulator, RowScheduler


def test_ablation_scheduling_policies(benchmark):
    """Compare static / dynamic / LPT scheduling makespans on a MovieLens-style run."""

    def run():
        dataset = generate_movielens_like(
            n_users=300, n_movies=120, n_years=10, n_hours=24, n_ratings=15_000, seed=0
        )
        config = PTuckerConfig(ranks=(6, 6, 4, 4), max_iterations=1, seed=0)
        result = PTucker(config).fit(dataset.tensor)
        simulator = ParallelSimulator(
            RowScheduler.for_tensor(dataset.tensor, result.trace.n_iterations),
            serial_seconds=result.trace.mean_iteration_seconds,
            rank=6,
        )
        rows = []
        for threads in (4, 8, 16, 20):
            for policy in ("static", "dynamic", "lpt"):
                estimate = simulator.estimate(threads, policy)
                rows.append(
                    {
                        "threads": threads,
                        "policy": policy,
                        "sec/iter": estimate.parallel_seconds,
                        "speedup": estimate.speedup,
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="Ablation - scheduling policy vs threads"))
    by_key = {(row["threads"], row["policy"]): row["sec/iter"] for row in rows}
    for threads in (4, 8, 16, 20):
        assert by_key[(threads, "dynamic")] <= by_key[(threads, "static")] + 1e-12
