"""Coordinate-format (COO) sparse tensors.

:class:`SparseTensor` is the central data structure of the library: every
solver in :mod:`repro.core` and :mod:`repro.baselines` consumes a sparse
tensor whose observed entries are stored as an ``(nnz, order)`` index array
plus an ``(nnz,)`` value array — exactly the (index, value) list the paper's
C implementation reads from disk.

Only *observed* entries are stored.  Missing entries are not zeros; they are
unknown, and the whole point of P-Tucker is to fit the model to the observed
set Ω only.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ShapeError
from .validation import check_indices, check_shape, check_values


class SparseTensor:
    """A sparse N-way tensor holding only its observed entries.

    Parameters
    ----------
    indices:
        Integer array of shape ``(nnz, order)``; row ``k`` holds the mode
        indices of the ``k``-th observed entry.
    values:
        Float array of shape ``(nnz,)`` with the observed values.
    shape:
        Mode lengths ``(I_1, ..., I_N)``.

    Notes
    -----
    Duplicate indices are allowed at construction but can be merged with
    :meth:`deduplicate`.  Entries are stored in the order given; sorting by a
    mode is available through :meth:`sort_by_mode` and is used by the
    row-update kernel to build per-row segments Ω_in.
    """

    __slots__ = ("indices", "values", "shape", "_mode_sorted_cache")

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        shape: Sequence[int],
    ) -> None:
        self.shape: Tuple[int, ...] = check_shape(shape)
        self.indices = check_indices(indices, self.shape)
        self.values = check_values(values, self.indices.shape[0])
        self._mode_sorted_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of modes N."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of observed entries |Ω|."""
        return int(self.values.shape[0])

    @property
    def density(self) -> float:
        """Fraction of cells that are observed."""
        total = float(np.prod(np.asarray(self.shape, dtype=np.float64)))
        return self.nnz / total if total > 0 else 0.0

    def norm(self) -> float:
        """Frobenius norm over the observed entries (Definition 1 restricted to Ω)."""
        return float(np.linalg.norm(self.values))

    def __len__(self) -> int:
        return self.nnz

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"SparseTensor(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.2e})"
        )

    def __iter__(self) -> Iterator[Tuple[Tuple[int, ...], float]]:
        for row, val in zip(self.indices, self.values):
            yield tuple(int(i) for i in row), float(val)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_entries(
        cls,
        entries: Sequence[Tuple[Sequence[int], float]],
        shape: Sequence[int],
    ) -> "SparseTensor":
        """Build a tensor from an iterable of ``(index_tuple, value)`` pairs."""
        entries = list(entries)
        if entries:
            indices = np.asarray([list(idx) for idx, _ in entries], dtype=np.int64)
            values = np.asarray([val for _, val in entries], dtype=np.float64)
        else:
            indices = np.empty((0, len(shape)), dtype=np.int64)
            values = np.empty((0,), dtype=np.float64)
        return cls(indices, values, shape)

    @classmethod
    def from_dense(
        cls, array: np.ndarray, keep_zeros: bool = False
    ) -> "SparseTensor":
        """Build a sparse tensor from a dense array.

        By default only non-zero cells become observed entries; with
        ``keep_zeros=True`` every cell is treated as observed.
        """
        arr = np.asarray(array, dtype=np.float64)
        if keep_zeros:
            grid = np.indices(arr.shape).reshape(arr.ndim, -1).T
            return cls(grid, arr.reshape(-1), arr.shape)
        mask = arr != 0
        idx = np.argwhere(mask)
        return cls(idx, arr[mask], arr.shape)

    def copy(self) -> "SparseTensor":
        """Return a deep copy of this tensor."""
        return SparseTensor(self.indices.copy(), self.values.copy(), self.shape)

    def with_values(self, values: np.ndarray) -> "SparseTensor":
        """Return a tensor with the same index pattern but new values."""
        return SparseTensor(self.indices.copy(), values, self.shape)

    # ------------------------------------------------------------------
    # Dense conversion and element access
    # ------------------------------------------------------------------
    def to_dense(self, fill_value: float = 0.0) -> np.ndarray:
        """Materialise the tensor as a dense array (missing cells = ``fill_value``).

        Intended for small tensors (tests and the dense baselines); the number
        of cells is checked to avoid accidental huge allocations.
        """
        n_cells = int(np.prod(np.asarray(self.shape, dtype=np.float64)))
        if n_cells > 50_000_000:
            raise ShapeError(
                f"refusing to densify a tensor with {n_cells} cells; "
                "use the sparse interfaces instead"
            )
        dense = np.full(self.shape, fill_value, dtype=np.float64)
        if self.nnz:
            dense[tuple(self.indices.T)] = self.values
        return dense

    def get(self, index: Sequence[int], default: float = 0.0) -> float:
        """Return the value at ``index`` or ``default`` if it is not observed."""
        target = np.asarray(index, dtype=np.int64)
        if target.shape != (self.order,):
            raise ShapeError(
                f"index must have {self.order} components, got {len(index)}"
            )
        mask = np.all(self.indices == target[None, :], axis=1)
        hits = np.nonzero(mask)[0]
        if hits.size == 0:
            return default
        return float(self.values[hits[-1]])

    # ------------------------------------------------------------------
    # Reorganisation
    # ------------------------------------------------------------------
    def deduplicate(self, how: str = "last") -> "SparseTensor":
        """Merge duplicate indices.

        ``how`` may be ``"last"`` (keep the last occurrence, matching
        dict-like overwrite semantics), ``"first"``, ``"sum"`` or ``"mean"``.
        """
        if self.nnz == 0:
            return self.copy()
        keys = self.linear_indices()
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        unique_keys, first_pos, counts = np.unique(
            sorted_keys, return_index=True, return_counts=True
        )
        if how == "sum" or how == "mean":
            sums = np.add.reduceat(self.values[order], first_pos)
            vals = sums / counts if how == "mean" else sums
            rows = order[first_pos]
        elif how == "first":
            rows = order[first_pos]
            vals = self.values[rows]
        elif how == "last":
            last_pos = first_pos + counts - 1
            rows = order[last_pos]
            vals = self.values[rows]
        else:
            raise ValueError(f"unknown deduplication mode {how!r}")
        return SparseTensor(self.indices[rows], vals, self.shape)

    def linear_indices(self) -> np.ndarray:
        """Row-major linear index of each observed entry (useful as a dict key)."""
        if self.nnz == 0:
            return np.empty((0,), dtype=np.int64)
        return np.ravel_multi_index(tuple(self.indices.T), self.shape).astype(np.int64)

    def sort_by_mode(self, mode: int) -> np.ndarray:
        """Return a permutation sorting entries by their ``mode`` index.

        The permutation is cached per mode; the row-update kernel calls this
        once per mode per iteration.
        """
        if mode not in self._mode_sorted_cache:
            self._mode_sorted_cache[mode] = np.argsort(
                self.indices[:, mode], kind="stable"
            )
        return self._mode_sorted_cache[mode]

    def clear_caches(self) -> None:
        """Drop derived caches (the per-mode sort permutations).

        A fully warmed cache holds one int64 permutation per mode —
        O(order · nnz) bytes on top of the entries themselves.  Callers
        that are done sorting, or that must keep peak memory bounded while
        touching every mode in turn, can release it explicitly; the
        permutations are recomputed on demand, bit-identically, by
        :meth:`sort_by_mode`.
        """
        self._mode_sorted_cache.clear()

    def mode_slice(self, mode: int, index: int) -> "SparseTensor":
        """Return the sub-tensor of entries whose ``mode`` index equals ``index``.

        This is Ω_in^{(n)} from the paper, kept as a sparse tensor with the
        original shape.
        """
        mask = self.indices[:, mode] == int(index)
        return SparseTensor(self.indices[mask], self.values[mask], self.shape)

    def counts_along_mode(self, mode: int) -> np.ndarray:
        """Number of observed entries per slice of ``mode`` (|Ω_in| for every in)."""
        return np.bincount(self.indices[:, mode], minlength=self.shape[mode]).astype(
            np.int64
        )

    def permute_modes(self, perm: Sequence[int]) -> "SparseTensor":
        """Return a tensor with modes reordered according to ``perm``."""
        perm = list(perm)
        if sorted(perm) != list(range(self.order)):
            raise ShapeError(f"{perm} is not a permutation of modes 0..{self.order - 1}")
        new_shape = tuple(self.shape[p] for p in perm)
        return SparseTensor(self.indices[:, perm], self.values.copy(), new_shape)

    # ------------------------------------------------------------------
    # Splitting and transformation
    # ------------------------------------------------------------------
    def split(
        self,
        train_fraction: float = 0.9,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple["SparseTensor", "SparseTensor"]:
        """Randomly split observed entries into train and test tensors.

        The paper uses 90 % of observed entries for training and 10 % for
        measuring test RMSE (Section IV-A1).
        """
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be strictly between 0 and 1")
        rng = np.random.default_rng() if rng is None else rng
        perm = rng.permutation(self.nnz)
        cut = int(round(train_fraction * self.nnz))
        cut = min(max(cut, 1), self.nnz - 1) if self.nnz >= 2 else self.nnz
        train_rows, test_rows = perm[:cut], perm[cut:]
        train = SparseTensor(self.indices[train_rows], self.values[train_rows], self.shape)
        test = SparseTensor(self.indices[test_rows], self.values[test_rows], self.shape)
        return train, test

    def normalize_values(self) -> Tuple["SparseTensor", float, float]:
        """Scale values into [0, 1] as the paper does for real-world tensors.

        Returns the normalised tensor together with the original minimum and
        range so predictions can be mapped back.
        """
        if self.nnz == 0:
            return self.copy(), 0.0, 1.0
        lo = float(self.values.min())
        span = float(self.values.max() - lo)
        if span == 0.0:
            return self.with_values(np.zeros_like(self.values)), lo, 1.0
        return self.with_values((self.values - lo) / span), lo, span

    # ------------------------------------------------------------------
    # Equality (mainly for tests)
    # ------------------------------------------------------------------
    def allclose(self, other: "SparseTensor", atol: float = 1e-10) -> bool:
        """True when both tensors store the same entries with close values."""
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        mine = {tuple(i): v for i, v in zip(map(tuple, self.indices), self.values)}
        theirs = {tuple(i): v for i, v in zip(map(tuple, other.indices), other.values)}
        if mine.keys() != theirs.keys():
            return False
        return all(abs(mine[k] - theirs[k]) <= atol for k in mine)
