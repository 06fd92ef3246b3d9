"""Benchmark environment honesty: one shared hardware/runtime snapshot.

Every benchmark artifact this repository commits (``BENCH_kernels.json``,
``BENCH_serving.json``) embeds the dictionary returned by
:func:`bench_environment`, so a reader can always tell *what machine* a
number was recorded on.  The crucial field is ``single_cpu_caveat``: CI
containers expose one CPU, which makes the ``threaded``/``procpool`` parallel
columns and any QPS figure degenerate — a 1-CPU artifact must never be
mistaken for a multicore result, and with this flag it cannot be, because
the caveat travels inside the file instead of living in a doc footnote.

:func:`blas_thread_count` lives here (re-exported by
:mod:`repro.kernels.microbench` for compatibility) because BLAS threading
changes what a fair per-backend or per-batch-size comparison means.
"""

from __future__ import annotations

import os
import platform
from typing import Dict, Optional

import numpy as np

#: Thread-count variables of the BLAS builds NumPy ships with.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_thread_count() -> Optional[int]:
    """Best-effort number of BLAS threads numpy will use.

    Tries ``threadpoolctl`` (authoritative) first, then the conventional
    environment variables; recorded per benchmark run because BLAS
    threading changes what a fair per-backend comparison means.
    """
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        pass
    else:
        counts = [
            info.get("num_threads")
            for info in threadpool_info()
            if info.get("user_api") == "blas"
        ]
        counts = [c for c in counts if c]
        if counts:
            return int(max(counts))
    for variable in BLAS_THREAD_VARIABLES:
        value = os.environ.get(variable)
        if value and value.isdigit():
            return int(value)
    return None


def bench_environment() -> Dict[str, object]:
    """The environment block every ``BENCH_*.json`` artifact embeds.

    ``single_cpu_caveat`` is True when the container exposes one CPU (or
    the BLAS is pinned to one thread): every wall-clock figure in the
    artifact then reflects serialized execution, and parallel-backend or
    throughput columns understate multicore hardware.
    """
    cpu_count = os.cpu_count()
    blas_threads = blas_thread_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        "blas_threads": blas_threads,
        "single_cpu_caveat": bool(
            (cpu_count or 1) <= 1 or (blas_threads is not None and blas_threads <= 1)
        ),
    }
