"""Benchmark: serving-layer top-K and predict latency/throughput.

Measures the repository's serving hot paths (see :mod:`repro.serve.bench`):
batched vs. unbatched rank-space top-K at serving item counts (with a
bitwise identity check between the two), the naive per-entry predict loop
those paths replace, cold vs. warm projection-cache latency, and batched
point predictions.

Run as a pytest benchmark (small grid) or as a script::

    PYTHONPATH=src python benchmarks/bench_serving.py [--small] [-o OUT]

which writes ``BENCH_serving.json`` (the full default grid, including the
items=200k/rank=256 cell where batch-1024 top-K runs about 9-12x faster
per query than the unbatched per-query loop; ``--small`` smoke runs write
``BENCH_serving_small.json`` instead so they never clobber the committed
full-grid record).  Column glossary: ``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

import pytest

from repro.experiments.report import render_table
from repro.serve.bench import (
    DEFAULT_GRID,
    SMALL_GRID,
    run_serving_bench,
    write_payload,
)


@pytest.mark.slow
def test_serving_bench_small_grid(benchmark):
    """Batched top-K matches the unbatched loop bitwise and beats naive."""
    payload = benchmark.pedantic(
        lambda: run_serving_bench(
            grid=SMALL_GRID,
            workload_queries=256,
            unbatched_queries=32,
            repeats=1,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        render_table(
            payload["rows"], title="Serving - batched vs unbatched vs naive"
        )
    )
    for row in payload["rows"]:
        # The identity contract: batching is a pure throughput lever, it
        # can never change a returned item or score.
        if "matches_unbatched" in row:
            assert row["matches_unbatched"] is True, row
        # Every serving path beats the naive per-entry predict loop by an
        # order of magnitude, even on the smoke grid's tiny item modes.
        assert row["speedup_vs_naive"] > 10.0, row
    for row in payload["projection_cache"]:
        assert row["cache_hit_rate"] >= 0.5, row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the serving layer's top-K and predict hot paths."
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="run the reduced smoke grid instead of the full default grid "
        "(which includes the items=200k/rank=256 acceptance cell)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run a single tiny cell with a reduced workload (CI smoke: "
        "proves the bench pipeline executes in seconds; never overwrites "
        "the committed record)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="where to write the JSON payload (default: repo-root "
        "BENCH_serving.json, or BENCH_serving_small.json with --small)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="timing repeats per pass"
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=1024,
        help="workload size per cell for the batched passes",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        grid = SMALL_GRID[:1]
        args.repeats = 1
        args.queries = min(args.queries, 128)
        unbatched = 16
    else:
        grid = SMALL_GRID if args.small else DEFAULT_GRID
        unbatched = 64
    output = args.output
    if output is None:
        # Smoke/small runs get their own file so the committed full-grid
        # record is never overwritten by reduced-grid data.
        if args.smoke:
            filename = "BENCH_serving_smoke.json"
        elif args.small:
            filename = "BENCH_serving_small.json"
        else:
            filename = "BENCH_serving.json"
        output = os.path.join(os.path.dirname(__file__), "..", filename)
    payload = run_serving_bench(
        grid=grid,
        workload_queries=args.queries,
        unbatched_queries=min(unbatched, args.queries),
        repeats=args.repeats,
    )
    path = write_payload(payload, os.path.normpath(output))
    print(
        render_table(
            payload["rows"], title="Serving - batched vs unbatched vs naive"
        )
    )
    print(
        render_table(
            payload["projection_cache"], title="Serving - projection cache"
        )
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
