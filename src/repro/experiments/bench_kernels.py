"""Kernel microbenchmark experiment: ``python -m repro.experiments bench-kernels``.

Not one of the paper's figures — this experiment records the repository's own
perf trajectory.  It runs the seed Kronecker kernel against the
contraction-ordered kernel of :mod:`repro.kernels` under every available
execution backend (``numpy``, ``threaded``, ``procpool``) on
the same small default (nnz, rank, order) grid as
``benchmarks/run_benchmarks.py`` — including the nnz=100k cell the perf gate
tracks — and writes ``BENCH_kernels.json`` into the current working
directory, so re-running it from the repo root refreshes the committed
record rather than degrading it to a smoke payload.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

from ..kernels.microbench import DEFAULT_GRID, run_microbench, write_payload
from .harness import ExperimentResult

NAME = "bench-kernels"
OUTPUT_FILENAME = "BENCH_kernels.json"


def run(
    grid: Optional[Sequence[Dict[str, int]]] = None,
    repeats: int = 3,
    output: Optional[str] = OUTPUT_FILENAME,
    backends: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Time the kron kernel vs. the contracted-kernel backends per cell."""
    payload = run_microbench(
        grid=DEFAULT_GRID if grid is None else grid,
        repeats=repeats,
        backends=backends,
    )
    result = ExperimentResult(name=NAME)
    result.add_rows(payload["rows"])
    result.add_note(
        "speedup = seed Kronecker kernel time / contraction kernel time "
        "(numpy backend) for one update_factor_mode sweep of mode 0"
    )
    result.add_note(
        "backends timed: "
        + ", ".join(payload["backends"])
        + "; backend_selected = argmin of measured per-backend times"
    )
    result.add_note(
        "max |error| vs brute force: "
        f"{payload['max_abs_error_vs_brute_force']:.3e}"
    )
    result.add_note(
        "peak_rss_mb_* / peak_traced_mb_* = peak memory one mode-0 sweep "
        "adds (cold-subprocess RSS growth / tracemalloc): incore includes "
        "the ModeContext's nnz-sized sorted copies, sharded streams "
        "mmap'd shards at the same block size (see docs/BENCHMARKS.md)"
    )
    result.add_note(
        "ingest columns: seconds_parse_text vs seconds_parse_text_loop = "
        "vectorized reader vs the frozen seed per-line parser on the same "
        "counts-precision text file; seconds_build_streaming covers the "
        "whole text->store external-memory build at a fixed chunk size "
        "with peak_*_mb_build_* bounded by the chunk, and "
        "streaming_build_equals_incore asserts the store is bitwise-"
        "identical to ShardStore.build (see docs/BENCHMARKS.md)"
    )
    if output:
        path = write_payload(payload, os.path.abspath(output))
        result.add_note(f"wrote {path}")
    return result
