"""Sparse tensor operations shared by the solvers.

These are the observed-entry counterparts of the dense operations in
:mod:`repro.tensor.dense`:

* :func:`sparse_unfold_columns` — the column index each observed entry maps to
  under mode-n matricization (Eq. 1 of the paper, 0-based).
* :func:`sparse_ttm_chain` — the tensor-times-matrix chain
  ``X ×_{k≠n} A^(k)T`` evaluated sparsely, producing the mode-n unfolding
  ``Y_(n)`` needed by HOOI-style baselines.
* :func:`sparse_gram_chain` — the same chain reduced on the fly to the small
  Gram matrix ``Y_(n)^T Y_(n)`` without materialising ``Y_(n)`` (the S-HOT
  strategy).
* :func:`factor_rows_product` — the per-entry element-wise product of factor
  rows over a subset of modes, the building block of the row-update kernel
  and of sparse reconstruction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..exceptions import ShapeError
from ..kernels import block_segment_starts, make_value_contractor, segment_sum
from .coo import SparseTensor
from .validation import check_mode


def sparse_unfold_columns(tensor: SparseTensor, mode: int) -> np.ndarray:
    """Column index of each observed entry in the mode-``mode`` unfolding.

    Matches :func:`repro.tensor.dense.unfold`: the remaining modes are ordered
    ascending and vary fastest-first (Fortran order), which is the 0-based
    equivalent of Eq. (1).
    """
    mode = check_mode(mode, tensor.order)
    other = [m for m in range(tensor.order) if m != mode]
    cols = np.zeros(tensor.nnz, dtype=np.int64)
    stride = 1
    for m in other:
        cols += tensor.indices[:, m] * stride
        stride *= tensor.shape[m]
    return cols


def factor_rows_product(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    skip: int = -1,
    entry_rows: Optional[Union[np.ndarray, slice]] = None,
) -> np.ndarray:
    """Row-wise Khatri-Rao style product of factor rows for observed entries.

    For every observed entry α = (i_1, ..., i_N) (or the subset selected by
    ``entry_rows`` — an index array or a slice, the latter avoiding an index
    copy), compute the Kronecker product over modes k ≠ ``skip`` of
    the rows ``A^(k)[i_k, :]``.  The result has shape
    ``(n_entries, prod_{k≠skip} J_k)`` with the *last* non-skipped mode varying
    fastest, matching ``core.reshape(...)`` in C order used by the solvers.

    With ``skip=-1`` all modes are included, which yields the per-entry
    weights needed for sparse reconstruction.
    """
    if len(factors) != tensor.order:
        raise ShapeError(
            f"expected {tensor.order} factor matrices, got {len(factors)}"
        )
    idx = tensor.indices if entry_rows is None else tensor.indices[entry_rows]
    n_entries = idx.shape[0]
    included = [k for k in range(tensor.order) if k != skip]
    out = np.ones((n_entries, 1), dtype=np.float64)
    for k in included:
        rows = np.asarray(factors[k])[idx[:, k]]
        # out: (n, P), rows: (n, J_k) -> (n, P * J_k) with J_k varying fastest
        out = (out[:, :, None] * rows[:, None, :]).reshape(n_entries, -1)
    return out


def sparse_reconstruct(
    tensor: SparseTensor,
    core: np.ndarray,
    factors: Sequence[np.ndarray],
    entry_rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Model prediction (Eq. 4) at each observed entry of ``tensor``.

    Returns a 1-D array aligned with ``tensor.values`` (or the selected
    subset).  This evaluates ``sum_β G_β Π_k a^(k)_{i_k j_k}`` by contracting
    the core against the gathered factor rows mode by mode
    (:func:`repro.kernels.contraction.contract_value_block`), so neither a
    dense reconstruction nor the full ``(nnz, |G|)`` Kronecker weight matrix
    is ever materialised; the contractor tiles the entries itself.
    """
    if len(factors) != tensor.order:
        raise ShapeError(
            f"expected {tensor.order} factor matrices, got {len(factors)}"
        )
    idx = tensor.indices if entry_rows is None else tensor.indices[entry_rows]
    return make_value_contractor(factors, core, idx.shape[0])(idx)


def sparse_ttm_chain(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
) -> np.ndarray:
    """Evaluate ``Y_(n) = (X ×_{k≠n} A^(k)T)_(n)`` from the sparse entries.

    Missing entries are treated as zeros — this is the semantics of the
    HOOI-style baselines (Algorithm 1), *not* of P-Tucker.  The result is a
    dense ``(I_n, prod_{k≠n} J_k)`` matrix.
    """
    mode = check_mode(mode, tensor.order)
    if len(factors) != tensor.order:
        raise ShapeError(
            f"expected {tensor.order} factor matrices, got {len(factors)}"
        )
    i_n = tensor.shape[mode]
    other = [k for k in range(tensor.order) if k != mode]
    width = int(
        np.prod([np.asarray(factors[k]).shape[1] for k in other], dtype=np.int64)
    )
    out = np.zeros((i_n, width), dtype=np.float64)
    if tensor.nnz == 0:
        return out
    # Sort by the output row once, then reduce each row's entries as one
    # contiguous segment instead of scatter-adding entry by entry.
    perm = tensor.sort_by_mode(mode)
    weights = factor_rows_product(tensor, factors, skip=mode, entry_rows=perm)
    starts, row_ids = block_segment_starts(tensor.indices[perm, mode])
    out[row_ids] = segment_sum(tensor.values[perm, None] * weights, starts)
    return out


def sparse_gram_chain(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    block_size: int = 65536,
) -> np.ndarray:
    """Accumulate ``Y_(n)^T Y_(n)`` on the fly without materialising ``Y_(n)``.

    This is the "on-the-fly computation" idea of S-HOT: the leading singular
    vectors of ``Y_(n)`` are recovered from the small
    ``(prod J_k, prod J_k)`` Gram matrix, so the ``I_n x prod J_k`` matrix
    never has to exist in memory at once.  Rows of ``Y_(n)`` are produced in
    blocks of mode-n slices and immediately reduced.
    """
    mode = check_mode(mode, tensor.order)
    perm = tensor.sort_by_mode(mode)
    val_sorted = tensor.values[perm]
    mode_idx = tensor.indices[perm, mode]
    other = [k for k in range(tensor.order) if k != mode]
    width = int(np.prod([np.asarray(factors[k]).shape[1] for k in other], dtype=np.int64))
    gram = np.zeros((width, width), dtype=np.float64)

    n_entries = mode_idx.shape[0]
    start = 0
    while start < n_entries:
        stop = min(start + block_size, n_entries)
        # extend the block to a slice boundary so a row of Y is never split
        while stop < n_entries and mode_idx[stop] == mode_idx[stop - 1]:
            stop += 1
        block_rows = np.arange(start, stop)
        weights = factor_rows_product(
            tensor, factors, skip=mode, entry_rows=perm[block_rows]
        )
        # Entries are mode-sorted, so each Y row is one contiguous run.
        starts, _ = block_segment_starts(mode_idx[block_rows])
        y_block = segment_sum(val_sorted[block_rows, None] * weights, starts)
        gram += y_block.T @ y_block
        start = stop
    return gram


def mode_lengths_product(shape: Sequence[int], skip: int = -1) -> int:
    """Product of mode lengths, optionally excluding one mode."""
    dims: List[int] = [int(s) for i, s in enumerate(shape) if i != skip]
    return int(np.prod(dims, dtype=np.int64)) if dims else 1
