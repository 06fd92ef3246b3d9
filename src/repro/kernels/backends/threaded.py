"""Shared-memory threaded backend: segment-aligned chunks on a thread pool.

P-Tucker's Section III-B row-independence result makes this safe: the
normal equations of different rows never share state, so a mode-sorted
entry block can be split *at segment boundaries* and each chunk's
contraction + ``reduceat`` pass can run concurrently — every chunk owns a
disjoint slice of the output ``(B, c)`` stacks, so workers write without
locks.  Unlike the ``procpool`` backend (worker processes that must be
sent the factors per sweep and the entries per chunk), the threads share
the caller's arrays directly; the heavy operations inside a chunk — the
leading GEMM of the progressive contraction, the batched ``matmul`` Gram
reductions and LAPACK's batched solves — all release the GIL, so chunks
genuinely overlap
on multicore hosts.  With a single worker there is nothing to overlap and
per-chunk dispatch is pure overhead (measured ~10% at nnz=100k), so the
backend degrades to the exact serial path — the autotuner then sees two
equal candidates instead of a regression.

The pool is a process-global singleton reused across sweeps (threads are
cheap to keep idle, expensive to respawn per mode update).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence, Tuple

import numpy as np

from ..contraction import make_delta_contractor
from ..segments import normal_equations_sorted
from ..solve import solve_rows
from .base import KernelBackend, NormalEquationsKernel

#: Chunks smaller than this many entries are not worth a task dispatch.
MIN_CHUNK_ENTRIES = 8_192

#: Upper bound on chunks per block: enough tasks for dynamic balance over
#: skewed segment lengths without flooding the queue.
CHUNKS_PER_WORKER = 4

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


def default_workers() -> int:
    """Worker count: ``REPRO_KERNEL_THREADS`` env override, else CPU count."""
    env = os.environ.get("REPRO_KERNEL_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


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

    def make_normal_equations_kernel(
        self,
        factors: Sequence[np.ndarray],
        core: np.ndarray,
        mode: int,
        expected_entries: int,
    ) -> NormalEquationsKernel:
        contractor = make_delta_contractor(factors, core, mode, expected_entries)
        rank = int(np.asarray(core).shape[mode if np.asarray(core).ndim > 1 else 0])

        def kernel(
            indices_block: np.ndarray,
            values_block: np.ndarray,
            starts: np.ndarray,
        ) -> Tuple[np.ndarray, np.ndarray]:
            n_entries = indices_block.shape[0]
            n_segments = starts.shape[0]
            n_chunks = self._n_chunks(n_entries, n_segments)
            if n_chunks <= 1:
                deltas = contractor(indices_block)
                return normal_equations_sorted(deltas, values_block, starts)

            edges = chunk_boundaries(starts, n_entries, n_chunks)
            b_matrices = np.empty((n_segments, rank, rank), dtype=np.float64)
            c_vectors = np.empty((n_segments, rank), dtype=np.float64)

            def work(chunk: int) -> None:
                seg_lo, seg_hi = edges[chunk], edges[chunk + 1]
                entry_lo = int(starts[seg_lo])
                entry_hi = (
                    int(starts[seg_hi]) if seg_hi < n_segments else n_entries
                )
                deltas = contractor(indices_block[entry_lo:entry_hi])
                local_starts = starts[seg_lo:seg_hi] - entry_lo
                partial_b, partial_c = normal_equations_sorted(
                    deltas, values_block[entry_lo:entry_hi], local_starts
                )
                b_matrices[seg_lo:seg_hi] = partial_b
                c_vectors[seg_lo:seg_hi] = partial_c

            pool = shared_pool(self.n_workers)
            # list() drains the iterator so worker exceptions propagate here.
            list(pool.map(work, range(edges.shape[0] - 1)))
            return b_matrices, c_vectors

        return kernel

    # ------------------------------------------------------------------
    def solve_rows(
        self,
        b_matrices: np.ndarray,
        c_vectors: np.ndarray,
        regularization: float,
    ) -> np.ndarray:
        n_rows = b_matrices.shape[0]
        n_chunks = 1
        if self.n_workers > 1:
            n_chunks = max(1, min(n_rows // self.min_chunk_entries, self.n_workers))
        if n_chunks <= 1:
            return solve_rows(b_matrices, c_vectors, regularization)
        edges = np.linspace(0, n_rows, n_chunks + 1).astype(np.int64)
        pool = shared_pool(self.n_workers)
        parts = list(
            pool.map(
                lambda chunk: solve_rows(
                    b_matrices[edges[chunk] : edges[chunk + 1]],
                    c_vectors[edges[chunk] : edges[chunk + 1]],
                    regularization,
                ),
                range(n_chunks),
            )
        )
        return np.concatenate(parts, axis=0)
