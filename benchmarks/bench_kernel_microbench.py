"""Microbenchmark: seed Kronecker kernel vs. contraction kernel backends.

Unlike the figure/table benchmarks, this one measures the repository's own
perf trajectory: one sweep with the seed Kronecker kernel (frozen as
``repro.kernels.microbench.kron_update_factor_mode``) against
``update_factor_mode``'s contraction kernel under every available
execution backend (``numpy``, ``threaded``, ``procpool``)
across an (nnz, rank, order) grid, with a brute-force accuracy check on
the contracted result.

Run as a pytest benchmark (small grid) or as a script::

    PYTHONPATH=src python benchmarks/bench_kernel_microbench.py [--small] [-o OUT]

which writes ``BENCH_kernels.json`` (the full default grid; ``--small``
smoke runs write ``BENCH_kernels_small.json`` instead so they never clobber
the committed full-grid record).  ``benchmarks/run_benchmarks.py`` and
``python -m repro.experiments bench-kernels`` wrap the same runner.
"""

from __future__ import annotations

import argparse
import os
import sys

import pytest

from repro.experiments.report import render_table
from repro.kernels.backends import available_backends
from repro.kernels.microbench import (
    DEFAULT_GRID,
    SMALL_GRID,
    run_microbench,
    write_payload,
)


@pytest.mark.slow
def test_kernel_microbench_small_grid(benchmark):
    """Contracted kernel beats the seed kernel on every small-grid cell."""
    payload = benchmark.pedantic(
        lambda: run_microbench(grid=SMALL_GRID, repeats=2),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(payload["rows"], title="Kernel microbench - kron vs contracted"))
    assert payload["max_abs_error_vs_brute_force"] <= 1e-8
    for row in payload["rows"]:
        # The out-of-core contract: streamed shards reproduce the in-core
        # sweep bit for bit at matched block boundaries.
        assert row["sharded_equals_incore"] is True
        # Slack below 1.0 keeps the regression signal without making the
        # assertion flaky when a tiny cell hits scheduler noise on a loaded
        # machine; real regressions show up as order-of-magnitude drops.
        assert row["speedup"] > 0.8, f"contracted kernel regressed on {row}"
        # The recorded selection is the measured argmin, so it can never
        # name a backend that timed slower than another candidate.
        times = {
            name: row.get(
                "seconds_contracted" if name == "numpy" else f"seconds_{name}"
            )
            for name in payload["backends"]
        }
        assert times[row["backend_selected"]] == min(times.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the seed vs. contraction row-update kernels."
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="run the reduced smoke grid instead of the full default grid "
        "(which includes the nnz=100k acceptance cell)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run a single tiny cell with one repeat (CI smoke: proves the "
        "whole bench pipeline executes in seconds; never overwrites the "
        "committed record)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="where to write the JSON payload (default: repo-root "
        "BENCH_kernels.json, or BENCH_kernels_small.json with --small)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per cell (best-of)"
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        default=None,
        choices=available_backends(),
        help="execution backends to time (default: all registered)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        grid = SMALL_GRID[:1]
        args.repeats = 1
    else:
        grid = SMALL_GRID if args.small else DEFAULT_GRID
    output = args.output
    if output is None:
        # Smoke/small runs get their own file so the committed full-grid
        # record is never overwritten by reduced-grid data.
        if args.smoke:
            filename = "BENCH_kernels_smoke.json"
        elif args.small:
            filename = "BENCH_kernels_small.json"
        else:
            filename = "BENCH_kernels.json"
        output = os.path.join(os.path.dirname(__file__), "..", filename)
    payload = run_microbench(grid=grid, repeats=args.repeats, backends=args.backends)
    path = write_payload(payload, os.path.normpath(output))
    print(render_table(payload["rows"], title="Kernel microbench - kron vs contracted"))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
