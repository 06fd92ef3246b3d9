"""Shared-memory threaded backend: segment-aligned chunks on a thread pool.

P-Tucker's Section III-B row-independence result makes this safe: the
rows of one mode never share state, so a mode-sorted entry block can be
split *at segment boundaries* and each chunk's contraction and row solves
(:func:`~repro.kernels.solve.solve_segments`) can run concurrently — every
chunk returns its own rows, and the rows it leaves partial, in segment
order.  Unlike the ``procpool`` backend (worker processes that must be
sent the factors per sweep and the entries per chunk), the threads share
the caller's arrays directly; the heavy operations inside a chunk — the
leading GEMM of the progressive contraction, the batched ``matmul`` Gram
reductions and LAPACK's batched solves — all release the GIL, so chunks
genuinely overlap on multicore hosts.  Every row is solved on its own, so
the chunked rows are bitwise equal to the serial ones.  With a single
worker there is nothing to overlap and per-chunk dispatch is pure
overhead (measured ~10% at nnz=100k), so the backend degrades to the
exact serial path — the autotuner then sees two equal candidates instead
of a regression.

The pool is a process-global singleton reused across sweeps (threads are
cheap to keep idle, expensive to respawn per mode update).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..contraction import make_delta_contractor
from ..solve import solve_segments
from .base import KernelBackend, RowSolverKernel

#: Chunks smaller than this many entries are not worth a task dispatch.
MIN_CHUNK_ENTRIES = 8_192

#: Upper bound on chunks per block: enough tasks for dynamic balance over
#: skewed segment lengths without flooding the queue.
CHUNKS_PER_WORKER = 4

#: Environment variable that overrides the worker count (default: CPU count).
THREADS_VARIABLE = "REPRO_KERNEL_THREADS"

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def shared_pool(n_workers: int) -> ThreadPoolExecutor:
    """The process-global executor, regrown if more workers are requested.

    A superseded smaller pool is *not* shut down — another backend instance
    may still be mapping work onto it; it simply stops being handed out and
    is reclaimed once its in-flight chunks finish and references drop.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS < n_workers:
            _POOL = ThreadPoolExecutor(
                max_workers=n_workers, thread_name_prefix="repro-kernel"
            )
            _POOL_WORKERS = n_workers
        return _POOL


def env_workers(variable: str) -> int:
    """Worker count: environment variable ``variable``, else the CPU count.

    A value that is not an integer is ignored; the count is at least 1.
    """
    env = os.environ.get(variable, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def default_workers() -> int:
    """Worker count: ``REPRO_KERNEL_THREADS`` env override, else CPU count."""
    return env_workers(THREADS_VARIABLE)


def chunk_boundaries(
    starts: np.ndarray, n_entries: int, n_chunks: int
) -> np.ndarray:
    """Segment-aligned chunk edges (as indices into ``starts``).

    Targets equal entry counts per chunk, then snaps every edge to the
    nearest following segment boundary so no row's entries are ever split
    across chunks.  Returns the sorted, deduplicated edge positions into
    ``starts``, always beginning at 0 and ending at ``len(starts)``.
    """
    n_segments = starts.shape[0]
    if n_chunks <= 1 or n_segments <= 1:
        return np.asarray([0, n_segments], dtype=np.int64)
    targets = (np.arange(1, n_chunks, dtype=np.int64) * n_entries) // n_chunks
    edges = np.searchsorted(starts, targets, side="left")
    edges = np.unique(np.concatenate(([0], edges, [n_segments])))
    return edges.astype(np.int64)


class ChunkSpan(NamedTuple):
    """One segment-aligned chunk of a block, with its share of ``[lo, hi)``.

    ``entry_lo:entry_hi`` are the chunk's entries in the block, ``starts``
    its chunk-local segment starts and ``lo:hi`` the chunk-local range of
    its segments that the caller asked to have solved.
    """

    entry_lo: int
    entry_hi: int
    starts: np.ndarray
    lo: int
    hi: int


def chunk_spans(
    starts: np.ndarray, n_entries: int, edges: np.ndarray, lo: int, hi: int
) -> List[ChunkSpan]:
    """The chunks between consecutive ``edges`` (see :func:`chunk_boundaries`)."""
    n_segments = starts.shape[0]
    spans = []
    for chunk in range(edges.shape[0] - 1):
        seg_lo, seg_hi = int(edges[chunk]), int(edges[chunk + 1])
        entry_lo = int(starts[seg_lo])
        entry_hi = int(starts[seg_hi]) if seg_hi < n_segments else n_entries
        spans.append(
            ChunkSpan(
                entry_lo,
                entry_hi,
                starts[seg_lo:seg_hi] - entry_lo,
                min(max(lo, seg_lo), seg_hi) - seg_lo,
                min(max(hi, seg_lo), seg_hi) - seg_lo,
            )
        )
    return spans


def concatenate_chunk_results(parts) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join per-chunk ``(rows, B, c)`` in chunk order.

    Chunks are consecutive, so the joined rows are those of ``[lo, hi)``
    and the joined ``(B, c)`` those of the segments outside it.
    """
    return tuple(
        np.concatenate([part[k] for part in parts], axis=0) for k in range(3)
    )


class ThreadedBackend(KernelBackend):
    """Kernel backend running segment-aligned chunks on shared-memory threads."""

    name = "threaded"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        min_chunk_entries: int = MIN_CHUNK_ENTRIES,
    ) -> None:
        self._n_workers = None if n_workers is None else max(1, int(n_workers))
        self.min_chunk_entries = int(min_chunk_entries)

    @property
    def n_workers(self) -> int:
        """Explicit worker count, else the current environment default.

        Resolved per access (not at construction) so setting
        ``REPRO_KERNEL_THREADS`` after import — as the verify recipe
        suggests on constrained hosts — affects the registered instance.
        """
        if self._n_workers is not None:
            return self._n_workers
        return default_workers()

    # ------------------------------------------------------------------
    def _n_chunks(self, n_entries: int, n_segments: int) -> int:
        if self.n_workers <= 1:
            # One worker cannot overlap chunks; splitting would only pay
            # per-chunk dispatch overhead, so degrade to the serial path.
            return 1
        by_size = n_entries // self.min_chunk_entries
        cap = max(self.n_workers * CHUNKS_PER_WORKER, 1)
        return max(1, min(by_size, cap, n_segments))

    def make_row_solver(
        self,
        factors: Sequence[np.ndarray],
        core: np.ndarray,
        mode: int,
        regularization: float,
        expected_entries: int,
    ) -> RowSolverKernel:
        contractor = make_delta_contractor(factors, core, mode, expected_entries)

        def solver(
            indices_block: np.ndarray,
            values_block: np.ndarray,
            starts: np.ndarray,
            lo: int,
            hi: int,
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            n_entries = indices_block.shape[0]
            n_chunks = self._n_chunks(n_entries, starts.shape[0])
            if n_chunks <= 1:
                return solve_segments(
                    contractor(indices_block), values_block, starts,
                    regularization, lo, hi,
                )

            def work(span: ChunkSpan) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
                return solve_segments(
                    contractor(indices_block[span.entry_lo : span.entry_hi]),
                    values_block[span.entry_lo : span.entry_hi],
                    span.starts,
                    regularization,
                    span.lo,
                    span.hi,
                )

            edges = chunk_boundaries(starts, n_entries, n_chunks)
            pool = shared_pool(self.n_workers)
            # list() drains the iterator so worker exceptions propagate here.
            parts = list(pool.map(work, chunk_spans(starts, n_entries, edges, lo, hi)))
            return concatenate_chunk_results(parts)

        return solver
