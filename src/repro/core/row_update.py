"""The row-wise update kernel of P-Tucker (Eqs. 9-12, Algorithm 3 lines 5-15).

For a mode ``n`` and every observed entry α = (i_1, ..., i_N), the kernel
computes the length-J_n vector

    δ_α[j] = Σ_{β ∈ G, j_n = j} G_β · Π_{k ≠ n} a^(k)_{i_k j_k}

and then, for every row index ``i_n``, the normal-equation pieces

    B_{i_n} = Σ_{α ∈ Ω^{(n)}_{i_n}} δ_α δ_αᵀ        (Eq. 10)
    c_{i_n} = Σ_{α ∈ Ω^{(n)}_{i_n}} X_α δ_α          (Eq. 11)

and the new row  a^{(n)}_{i_n,:} = c_{i_n} (B_{i_n} + λ I)^{-1}   (Eq. 9).

The paper's C implementation walks the entries of Ω row by row inside an
OpenMP loop; here the same computation is expressed with NumPy batch
operations routed through :mod:`repro.kernels`: δ for all entries of a mode
comes from the progressive core contraction of
:func:`~repro.kernels.contraction.make_delta_contractor`, and
:func:`~repro.kernels.solve.solve_segments` turns one block's δ into the
rows the block holds completely.  A row with ``k = |Ω^{(n)}_{i_n}| < J_n``
entries — most rows of a sparse tensor — is solved in its dual form
``a = Dᵀ(DDᵀ + λI_k)⁻¹x`` (D the row's ``k × J_n`` δ vectors, x its
values), the same minimiser by the push-through identity at
``O(k²·J + k³)`` instead of ``O(k·J² + J³)``; a row with ``k ≥ J_n``
entries goes through the normal equations above, reduced as
segment-sorted bucketed GEMMs
(:func:`~repro.kernels.segments.normal_equations_sorted`, never an
``(m, J, J)`` outer-product temporary), and batched
``numpy.linalg.solve`` calls.  Only a row split across blocks carries
its ``(B, c)`` to the end of the sweep.  The execution strategy is
pluggable through the ``backend=`` knob (:mod:`repro.kernels.backends`);
under ``procpool`` the rows are solved in the worker that contracted
them.  The result is the paper's update up to floating-point rounding
(tests compare it against a brute-force per-row solve of Eq. 9).

Every update reads its entries from an *entry source*: an object exposing
``nnz``, ``mode_segmentation(mode)`` and ``read_mode_block(mode, start,
stop)``.  The in-RAM tensor is one (:class:`InMemorySource`, whose blocks
are views of its :class:`ModeContext` arrays), and so are the on-disk
:class:`~repro.shards.store.ShardStore` and the delta-log
:class:`~repro.updates.union.UnionEntrySource`.  There is one block loop
and one read path: because every source yields the same data at the same
block boundaries, a streamed update is bitwise-equal to the in-core one.

The seed kernel — a running Kronecker product against the unfolded core plus
``np.add.at`` scatter accumulation — is frozen in
:mod:`repro.kernels.microbench` as the baseline the microbenchmarks time
the contraction path against; the library itself has this one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..columns import IndexColumns, index_dtypes_for_shape
from ..kernels import (  # noqa: F401 - re-exported for downstream callers
    make_delta_contractor,
    normal_equations_sorted,
    resolve_backend,
    solve_rows,
    solve_segments,
)
from ..kernels.backends import BackendSpec
from ..metrics.memory import BYTES_PER_FLOAT, MemoryTracker
from ..tensor.coo import SparseTensor


@dataclass
class ModeContext:
    """Entry ordering and row segmentation of one mode, reused across iterations.

    Attributes
    ----------
    mode:
        The mode index n.
    perm:
        Permutation that sorts observed entries by their mode-n index.
    sorted_indices / sorted_values:
        The tensor's entries in that order.  ``sorted_indices`` is a
        narrow columnar :class:`~repro.columns.IndexColumns` block, one
        column per mode in the dtype its dimension admits; it supports the
        2-D access patterns the kernels use.
    row_ids:
        The distinct mode-n indices that actually have observed entries
        (rows with an empty Ω^{(n)}_{i_n} keep their current factor values,
        exactly like the paper's implementation which never visits them).
    row_starts:
        Start offset of each row's segment inside the sorted entry arrays.
    row_counts:
        |Ω^{(n)}_{i_n}| per listed row.
    """

    mode: int
    perm: np.ndarray
    sorted_indices: IndexColumns
    sorted_values: np.ndarray
    row_ids: np.ndarray
    row_starts: np.ndarray
    row_counts: np.ndarray


def build_mode_context(tensor: SparseTensor, mode: int) -> ModeContext:
    """Precompute the per-mode entry ordering and row segments.

    The sorted indices are kept as narrow per-mode columns
    (:class:`~repro.columns.IndexColumns`), the layout a shard store
    holds on disk — 3-8x fewer index bytes resident per mode than an int64
    matrix at typical dimensions, with every downstream kernel consuming
    the columns directly.
    """
    perm = tensor.sort_by_mode(mode)
    sorted_indices = IndexColumns(
        [
            np.ascontiguousarray(tensor.indices[perm, k], dtype=dtype)
            for k, dtype in enumerate(index_dtypes_for_shape(tensor.shape))
        ]
    )
    sorted_values = tensor.values[perm]
    row_ids, row_starts, row_counts = np.unique(
        sorted_indices.column(mode), return_index=True, return_counts=True
    )
    return ModeContext(
        mode=mode,
        perm=perm,
        sorted_indices=sorted_indices,
        sorted_values=sorted_values,
        row_ids=row_ids.astype(np.int64),
        row_starts=row_starts.astype(np.int64),
        row_counts=row_counts.astype(np.int64),
    )


class InMemorySource:
    """An in-RAM tensor as an entry source, built once from its mode contexts.

    Speaks the protocol :class:`~repro.shards.store.ShardStore` speaks
    (``nnz``, ``mode_segmentation``, ``read_mode_block``); every block it
    returns is a view of a context's sorted arrays, never a copy.
    :meth:`sort_permutation` additionally maps sorted positions back to
    the tensor's original entry order, which the cache variant's δ
    provider indexes.
    """

    def __init__(self, tensor: SparseTensor, contexts: Sequence[ModeContext]) -> None:
        self.tensor = tensor
        self.contexts: Dict[int, ModeContext] = {ctx.mode: ctx for ctx in contexts}

    @classmethod
    def build(
        cls,
        tensor: SparseTensor,
        modes: Optional[Sequence[int]] = None,
    ) -> "InMemorySource":
        """Sort ``tensor`` once per mode (every mode unless ``modes`` is given)."""
        modes = range(tensor.order) if modes is None else modes
        contexts = [build_mode_context(tensor, mode) for mode in modes]
        return cls(tensor, contexts)

    @property
    def nnz(self) -> int:
        return self.tensor.nnz

    @property
    def order(self) -> int:
        return self.tensor.order

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.tensor.shape

    def mode_segmentation(self, mode: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        ctx = self.contexts[mode]
        return ctx.row_ids, ctx.row_starts, ctx.row_counts

    def read_mode_block(self, mode: int, start: int, stop: int):
        ctx = self.contexts[mode]
        return ctx.sorted_indices[start:stop], ctx.sorted_values[start:stop]

    def sort_permutation(self, mode: int) -> np.ndarray:
        """Original entry position of each mode-sorted entry."""
        return self.contexts[mode].perm


def row_solving_sweep(
    source,
    factors: Sequence[np.ndarray],
    core: np.ndarray,
    mode: int,
    regularization: float,
    block_size: int,
    row_starts: np.ndarray,
    row_counts: np.ndarray,
    kernel_backend,
    deltas_for=None,
    blocks: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """New values of every listed row, solved block by block (Eq. 9).

    Entries are row-sorted, so each row is one contiguous run of entries.
    A block solves the rows whose run it holds completely (a run shorter
    than the rank in its ``k × k`` dual form, see
    :func:`~repro.kernels.solve.solve_segments`); a run split by a block
    boundary comes back as per-block ``(B, c)`` partial sums, which are
    added (``0 + B₁ + B₂ + …``, in block order) and solved once after the
    last block.  Only those straddling rows ever hold a J×J matrix beyond
    their block; no ``(n_rows, J, J)`` array exists.

    ``blocks`` restricts the sweep to those block numbers of the global
    ``block_size`` grid (ascending; every block when omitted).  A row
    whose run the visited blocks cover completely gets exactly the bytes
    the full sweep gives it; the other rows' values are meaningless.
    """
    n_entries = int(source.nnz)
    n_rows = row_starts.shape[0]
    rank = factors[mode].shape[1]
    row_ends = row_starts + row_counts
    new_rows = np.empty((n_rows, rank), dtype=np.float64)
    # Partial (B, c) sums of rows split across blocks, by listed position.
    pending: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    solver = None
    if deltas_for is None:
        # Entry-independent kernel state (precontraction tables, thread
        # pools, worker broadcasts) is built once per sweep and shared by
        # every block below.
        solver = kernel_backend.make_row_solver(
            factors, core, mode, regularization, n_entries
        )
    if blocks is None:
        blocks = range(-(-n_entries // block_size))
    for block in blocks:
        start = block * block_size
        stop = min(start + block_size, n_entries)
        indices_block, values_block = source.read_mode_block(mode, start, stop)
        # The rows overlapping this block, their block-local run starts,
        # and the range [lo, hi) of them whose runs lie wholly inside it.
        first = int(np.searchsorted(row_starts, start, side="right")) - 1
        last = int(np.searchsorted(row_starts, stop, side="left"))
        local_starts = np.maximum(row_starts[first:last] - start, 0)
        lo = 0 if row_starts[first] >= start else 1
        hi = max(lo, last - first - (1 if row_ends[last - 1] > stop else 0))
        if solver is not None:
            rows, partial_b, partial_c = solver(
                indices_block, values_block, local_starts, lo, hi
            )
        else:
            # The provider (cache variant) supplies δ.
            rows, partial_b, partial_c = solve_segments(
                deltas_for(start, stop), values_block, local_starts,
                regularization, lo, hi,
            )
        new_rows[first + lo : first + hi] = rows
        split = list(range(first, first + lo)) + list(range(first + hi, last))
        for row, b_part, c_part in zip(split, partial_b, partial_c):
            b_sum, c_sum = pending.setdefault(
                row, (np.zeros((rank, rank)), np.zeros(rank))
            )
            b_sum += b_part
            c_sum += c_part

    if pending:
        b_sums, c_sums = zip(*pending.values())
        new_rows[list(pending)] = kernel_backend.solve_rows(
            np.stack(b_sums), np.stack(c_sums), regularization
        )
    return new_rows


def update_factor_mode(
    source,
    factors: List[np.ndarray],
    core: np.ndarray,
    mode: int,
    regularization: float,
    block_size: int = 200_000,
    memory: Optional[MemoryTracker] = None,
    delta_provider=None,
    backend: BackendSpec = "numpy",
) -> np.ndarray:
    """Update every row of factor matrix ``A^(mode)`` in place and return it.

    ``source`` is the entry source the mode-sorted entries are read from:
    an :class:`InMemorySource`, a :class:`~repro.shards.store.ShardStore`,
    or anything else with ``nnz``, ``mode_segmentation(mode)`` and
    ``read_mode_block(mode, start, stop)``.  A plain
    :class:`~repro.tensor.coo.SparseTensor` is accepted too and sorted for
    this one mode.  Blocks may be plain ``(m, N)`` index matrices or narrow
    columnar :class:`~repro.columns.IndexColumns` (what a format-v2 store
    returns); every backend consumes both without widening.  Every source
    yields the same data at the same ``block_size`` boundaries, so the
    update is bitwise-equal whichever one it reads.

    ``delta_provider`` allows the cache variant to substitute its own δ
    computation: it is called as ``delta_provider(entry_positions, mode)``
    where ``entry_positions`` are positions into the tensor's original entry
    ordering, and must return the ``(m, J_mode)`` δ block.  When omitted the
    deltas are computed from the core and factor matrices directly
    (the default P-Tucker path).  A ``delta_provider`` needs an in-RAM
    source, since it indexes the tensor's original entry ordering.

    ``backend`` selects the execution strategy of the kernel: a
    registered backend name (``"numpy"``, ``"threaded"``, ``"procpool"``)
    or a :class:`~repro.kernels.backends.KernelBackend` instance.  All backends
    compute the same values up to floating-point associativity.  With a
    ``delta_provider`` the backend still runs the reduction and solve, but
    δ comes from the provider.
    """
    if source is None:
        raise ValueError("provide an entry source or a SparseTensor")
    if isinstance(source, SparseTensor):
        source = InMemorySource.build(source, modes=(mode,))
    if delta_provider is not None and not isinstance(source, InMemorySource):
        raise ValueError(
            "a streamed entry source cannot be combined with delta_provider"
        )
    row_ids, row_starts, row_counts = source.mode_segmentation(mode)
    kernel_backend = resolve_backend(backend)
    factor = factors[mode]
    rank = factor.shape[1]
    if row_ids.shape[0] == 0:
        return factor

    deltas_for = None
    if delta_provider is not None:
        positions = source.sort_permutation(mode)

        def deltas_for(start: int, stop: int) -> np.ndarray:
            return delta_provider(positions[start:stop], mode)

    if memory is not None:
        # Per-thread workspace of the paper: B, its inverse, c and δ (Theorem 4).
        memory.allocate((2 * rank * rank + 2 * rank) * BYTES_PER_FLOAT, "row-update")

    new_rows = row_solving_sweep(
        source, factors, core, mode, regularization, block_size,
        row_starts, row_counts, kernel_backend, deltas_for,
    )
    factor[row_ids] = new_rows

    if memory is not None:
        memory.release((2 * rank * rank + 2 * rank) * BYTES_PER_FLOAT, "row-update")
    return factor


def brute_force_row_update(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    core: np.ndarray,
    mode: int,
    row: int,
    regularization: float,
) -> np.ndarray:
    """Reference implementation of Eq. (9) for a single row (tests only).

    Walks the observed entries of Ω^{(mode)}_{row} one by one, builds δ, B and
    c exactly as written in the paper, and solves the J×J system.  Slow but
    transparently faithful to Algorithm 3; the vectorised kernel is checked
    against it.
    """
    rank = np.asarray(core).shape[mode]
    b_matrix = np.zeros((rank, rank))
    c_vector = np.zeros(rank)
    core_arr = np.asarray(core)
    for entry_idx in range(tensor.nnz):
        index = tensor.indices[entry_idx]
        if index[mode] != row:
            continue
        delta = np.zeros(rank)
        for beta in np.ndindex(*core_arr.shape):
            weight = core_arr[beta]
            for k in range(tensor.order):
                if k == mode:
                    continue
                weight *= factors[k][index[k], beta[k]]
            delta[beta[mode]] += weight
        b_matrix += np.outer(delta, delta)
        c_vector += tensor.values[entry_idx] * delta
    system = b_matrix + regularization * np.eye(rank)
    return np.linalg.solve(system, c_vector)
