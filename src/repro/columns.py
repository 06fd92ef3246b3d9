"""Narrow-dtype columnar index blocks shared by every layer.

Every hot path of this reproduction is memory-bandwidth-bound over
nnz-scaled index streams, yet an ``(nnz, N)`` int64 index matrix spends
8 bytes per index even when a mode's dimension fits in one.  This module is
the single home of the fix:

* :func:`index_dtype_for_dim` / :func:`index_dtypes_for_shape` — the
  narrowest unsigned dtype a mode dimension admits (``uint8`` / ``uint16``
  / ``uint32``, with an ``int64`` fallback for dimensions beyond 2**32).
  Every writer and every in-RAM mode context uses exactly these dtypes.
* :class:`IndexColumns` — a columnar ``(nnz, N)`` integer block: one 1-D
  array per mode, each in its own dtype.  It supports exactly the access
  patterns the kernels use on a 2-D index array (``block[:, k]``,
  ``block[lo:hi]``, ``block.shape``), returning **views of the narrow
  columns — never an upcast copy** — so the contraction kernels, the
  segment reductions and every registered backend consume 1-4 byte
  indices end to end.  NumPy's fancy indexing accepts unsigned index
  arrays directly, and integer arithmetic against an int64 accumulator
  promotes value-exactly, so all downstream float64 math is bitwise
  identical to an int64 index matrix.

``np.asarray(block)`` (via ``__array__``) materialises the conventional
int64 matrix for cold paths that genuinely need one (building a
:class:`~repro.tensor.coo.SparseTensor`, hashing entry bytes); hot paths
must use :func:`as_index_block`, which passes an :class:`IndexColumns`
through untouched.

This module sits at the bottom of the import graph (NumPy and
:mod:`repro.exceptions` only) because both the tensor layer and the
kernel layer — which must not import each other — build on it.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from .exceptions import ShapeError

#: Narrow candidates, in width order.  ``int64`` (not ``uint64``) is the
#: fallback so the widest columns stay directly interoperable with every
#: consumer that predates this module.
_NARROW_CANDIDATES = (np.uint8, np.uint16, np.uint32)


def index_dtype_for_dim(dim: int) -> np.dtype:
    """The narrowest unsigned dtype that can hold indices ``0 .. dim-1``.

    Boundaries are inclusive on the dimension: ``dim=256`` still fits
    ``uint8`` (largest index 255), ``dim=257`` needs ``uint16``;
    ``dim=2**32`` fits ``uint32``, anything larger falls back to
    ``int64``.
    """
    largest = int(dim) - 1
    for candidate in _NARROW_CANDIDATES:
        if largest <= int(np.iinfo(candidate).max):
            return np.dtype(candidate)
    return np.dtype(np.int64)


def index_dtype_for_max(largest_index: int) -> np.dtype:
    """The narrowest dtype admitting ``largest_index`` (spill-run helper)."""
    return index_dtype_for_dim(int(largest_index) + 1)


def index_dtypes_for_shape(shape: Sequence[int]) -> Tuple[np.dtype, ...]:
    """Per-mode index dtypes of a tensor shape."""
    return tuple(index_dtype_for_dim(int(dim)) for dim in shape)


class IndexColumns:
    """A columnar ``(nnz, N)`` integer index block: one 1-D array per mode.

    Supports the 2-D access patterns the kernels use — ``block[:, k]``
    (the mode-``k`` column, a zero-copy view), ``block[lo:hi]`` (a
    row-range of column views), ``block[rows]`` with an integer array
    (a per-column gather), ``block.shape`` / ``block.ndim`` / ``len`` —
    while each column keeps its own narrow dtype.  ``np.asarray(block)``
    yields the conventional int64 matrix for cold interop paths.
    """

    __slots__ = ("columns",)

    ndim = 2

    def __init__(self, columns: Sequence[np.ndarray]) -> None:
        columns = tuple(np.asarray(column) for column in columns)
        if not columns:
            raise ShapeError("IndexColumns needs at least one column")
        length = columns[0].shape[0]
        for column in columns:
            if column.ndim != 1:
                raise ShapeError("index columns must be 1-D arrays")
            if column.shape[0] != length:
                raise ShapeError("index columns must have equal lengths")
            if column.dtype.kind not in "iu":
                raise ShapeError(
                    f"index columns must be integer arrays, got {column.dtype}"
                )
        self.columns = columns

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_entries, order)`` — matches the 2-D matrix it replaces."""
        return (self.columns[0].shape[0], len(self.columns))

    @property
    def dtypes(self) -> Tuple[np.dtype, ...]:
        """Per-column dtypes."""
        return tuple(column.dtype for column in self.columns)

    @property
    def nbytes(self) -> int:
        """Total bytes across all columns."""
        return sum(int(column.nbytes) for column in self.columns)

    def __len__(self) -> int:
        return self.columns[0].shape[0]

    def column(self, k: int) -> np.ndarray:
        """The mode-``k`` index column (a view, in its narrow dtype)."""
        return self.columns[k]

    def __getitem__(self, key):
        if isinstance(key, tuple):
            if len(key) != 2:
                raise ShapeError("IndexColumns supports 2-D indexing only")
            rows, col = key
            column = self.columns[int(col)]
            if isinstance(rows, slice) and rows == slice(None):
                return column
            return column[rows]
        if isinstance(key, (int, np.integer)):
            return np.asarray(
                [int(column[key]) for column in self.columns], dtype=np.int64
            )
        # Row range (slice -> views) or row gather (array -> narrow copies).
        return IndexColumns([column[key] for column in self.columns])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """Materialise the conventional 2-D matrix (cold interop only)."""
        return self.to_matrix(np.int64 if dtype is None else dtype)

    def to_matrix(self, dtype=np.int64) -> np.ndarray:
        """The ``(nnz, order)`` matrix with all columns widened to ``dtype``."""
        n, order = self.shape
        out = np.empty((n, order), dtype=dtype)
        for k, column in enumerate(self.columns):
            out[:, k] = column
        return out

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        dtypes = ",".join(str(d) for d in self.dtypes)
        return f"IndexColumns(shape={self.shape}, dtypes=[{dtypes}])"


IndexBlock = Union[np.ndarray, IndexColumns]


def as_index_block(indices: IndexBlock) -> IndexBlock:
    """Normalise a kernel input block without widening narrow columns.

    An :class:`IndexColumns` passes through untouched (``np.asarray``
    would silently materialise the int64 matrix and defeat the narrow
    path); anything else becomes an ndarray.
    """
    if isinstance(indices, IndexColumns):
        return indices
    return np.asarray(indices)
