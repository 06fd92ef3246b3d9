"""Intermediate-data memory accounting (Definition 7 and Table III).

The paper defines *intermediate data* as the memory an algorithm needs while
updating factor matrices, excluding the tensor, core and factors themselves,
and compares methods by that quantity (Table III).  Competitors that exceed
the machine's 512 GB show up as "O.O.M." in Figures 6, 7 and 11.

This module provides two pieces:

* :class:`MemoryModel` — closed-form intermediate-data estimates for every
  algorithm in Table III, given the tensor attributes.  These are the
  formulas of the paper evaluated in bytes (8-byte floats).
* :class:`MemoryTracker` — a runtime accountant that solvers report their
  actual intermediate allocations to.  It records the peak and can enforce a
  budget, raising :class:`~repro.exceptions.OutOfMemoryError` exactly where
  the real implementation would have died.

:func:`run_with_traced_peak` measures instead of charging: the allocation
peak of a call under ``tracemalloc``.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import OutOfMemoryError

BYTES_PER_FLOAT = 8


def _prod(values: Sequence[int]) -> float:
    out = 1.0
    for v in values:
        out *= float(v)
    return out


@dataclass(frozen=True)
class TensorAttributes:
    """The attributes Table III expresses complexities in."""

    shape: Sequence[int]
    ranks: Sequence[int]
    nnz: int

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def max_dim(self) -> float:
        return float(max(self.shape))

    @property
    def max_rank(self) -> float:
        return float(max(self.ranks))

    @property
    def core_size(self) -> float:
        return _prod(self.ranks)


class MemoryModel:
    """Closed-form intermediate-data estimates for each algorithm (Table III).

    All estimates are returned in bytes assuming 8-byte floats.  ``threads``
    matters only for P-Tucker, whose intermediate data are per-thread
    (Theorem 4: O(T·J²)).
    """

    def __init__(self, threads: int = 1) -> None:
        if threads < 1:
            raise ValueError("threads must be at least 1")
        self.threads = int(threads)

    def p_tucker(self, attrs: TensorAttributes) -> float:
        """O(T J^2): per-thread row-update workspace (Theorem 4)."""
        j = attrs.max_rank
        return self.threads * (2 * j * j + 2 * j) * BYTES_PER_FLOAT

    def p_tucker_cache(self, attrs: TensorAttributes) -> float:
        """O(|Ω| J^N): the cache table Pres (Theorem 6)."""
        return attrs.nnz * attrs.core_size * BYTES_PER_FLOAT

    def p_tucker_approx(self, attrs: TensorAttributes) -> float:
        """O(J^N): per-entry partial errors R(β) over the core (Theorem 8)."""
        return attrs.core_size * 2 * BYTES_PER_FLOAT

    def tucker_als(self, attrs: TensorAttributes) -> float:
        """O(I J^{N-1}): the dense unfolded intermediate Y_(n) of Algorithm 1."""
        j = attrs.max_rank
        return attrs.max_dim * j ** (attrs.order - 1) * BYTES_PER_FLOAT

    def tucker_wopt(self, attrs: TensorAttributes) -> float:
        """O(I^{N-1} J): dense gradient intermediates over the full grid."""
        return attrs.max_dim ** (attrs.order - 1) * attrs.max_rank * BYTES_PER_FLOAT

    def tucker_csf(self, attrs: TensorAttributes) -> float:
        """O(I J^{N-1}): CSF accelerates TTMc but still materialises Y_(n)."""
        j = attrs.max_rank
        return attrs.max_dim * j ** (attrs.order - 1) * BYTES_PER_FLOAT

    def s_hot(self, attrs: TensorAttributes) -> float:
        """O(J^{N-1} x J^{N-1}): the on-the-fly Gram matrix, no dense Y_(n)."""
        j = attrs.max_rank
        width = j ** (attrs.order - 1)
        return width * width * BYTES_PER_FLOAT

    def estimate(self, algorithm: str, attrs: TensorAttributes) -> float:
        """Dispatch by algorithm name (case-insensitive, hyphens ignored)."""
        key = algorithm.lower().replace("-", "_").replace(" ", "_")
        table = {
            "p_tucker": self.p_tucker,
            "ptucker": self.p_tucker,
            "p_tucker_cache": self.p_tucker_cache,
            "p_tucker_approx": self.p_tucker_approx,
            "tucker_als": self.tucker_als,
            "hooi": self.tucker_als,
            "tucker_wopt": self.tucker_wopt,
            "tucker_csf": self.tucker_csf,
            "s_hot": self.s_hot,
            "s_hotscan": self.s_hot,
        }
        if key not in table:
            raise KeyError(f"unknown algorithm {algorithm!r}")
        return table[key](attrs)


@dataclass
class MemoryTracker:
    """Runtime accountant for intermediate-data allocations.

    Solvers call :meth:`allocate` when they create an intermediate array and
    :meth:`release` when it goes away; ``peak_bytes`` then records the high
    watermark of intermediate data.  When ``budget_bytes`` is set, exceeding
    it raises :class:`OutOfMemoryError`, which lets the experiments reproduce
    the paper's O.O.M. outcomes deterministically.
    """

    budget_bytes: Optional[int] = None
    current_bytes: int = 0
    peak_bytes: int = 0
    allocations: Dict[str, int] = field(default_factory=dict)

    def allocate(self, n_bytes: float, what: str = "intermediate") -> None:
        """Record an allocation of ``n_bytes`` (fractional values are rounded up)."""
        n = int(np.ceil(float(n_bytes)))
        if n < 0:
            raise ValueError("cannot allocate a negative number of bytes")
        self.current_bytes += n
        self.allocations[what] = self.allocations.get(what, 0) + n
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        if self.budget_bytes is not None and self.current_bytes > self.budget_bytes:
            raise OutOfMemoryError(self.current_bytes, self.budget_bytes, what)

    def allocate_array(self, shape: Sequence[int], what: str = "intermediate") -> None:
        """Record an allocation for a float64 array of the given shape."""
        self.allocate(_prod(shape) * BYTES_PER_FLOAT, what)

    def release(self, n_bytes: float, what: str = "intermediate") -> None:
        """Record the release of previously allocated bytes."""
        n = int(np.ceil(float(n_bytes)))
        self.current_bytes = max(0, self.current_bytes - n)
        if what in self.allocations:
            self.allocations[what] = max(0, self.allocations[what] - n)

    def release_all(self) -> None:
        """Drop every recorded allocation (end of an update phase)."""
        self.current_bytes = 0
        self.allocations.clear()

    @property
    def peak_megabytes(self) -> float:
        """Peak intermediate data in MB, the unit used by Figure 8(b)."""
        return self.peak_bytes / (1024.0 * 1024.0)


def run_with_traced_peak(fn: Callable[[], object]) -> Tuple[object, float]:
    """Run ``fn`` under ``tracemalloc`` and return its allocation peak in bytes.

    numpy reports its buffer allocations to tracemalloc, so the peak covers
    every array the call materialises (but not memory-mapped file pages —
    those are page cache, not intermediate data).  Do not time inside
    ``fn``; tracing slows allocation.
    """
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, float(max(0, peak - before))
