"""Low-rank factor diffs: versioned checkpoint states as R@C updates.

Successive factor states along a fit differ in whole rows — ALS rewrites
every row with observed entries and never a row without.  The difference
``new - old`` is therefore exactly
expressible as the product ``R @ C`` of a one-hot row-selection matrix
``R`` (shape ``(I, r)``, column ``j`` selecting changed row ``rows[j]``)
and the compact matrix ``C = new[rows] - old[rows]`` (shape ``(r, J)``)
— the classic low-rank update form, with the **rank** ``r`` *inferred*
as the number of rows whose bytes changed.

Storage and reconstruction deliberately avoid the additive form:
``old + R@C`` would round.  A diff stores the changed rows' replacement
values and reconstruction assigns them (``result[rows] = values``), which
copies bits — :func:`apply_factor_diff` over :func:`factor_diff` is a
**bitwise** round-trip for every float, including NaN payloads and
signed zeros.  Row change detection is likewise bytewise, so a row going
from ``0.0`` to ``-0.0`` is captured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ShapeError


def _changed_rows(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Indices of rows whose *bytes* differ (catches -0.0 and NaN bits)."""
    if old.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    a = np.ascontiguousarray(old).view(np.uint8).reshape(old.shape[0], -1)
    b = np.ascontiguousarray(new).view(np.uint8).reshape(new.shape[0], -1)
    return np.nonzero((a != b).any(axis=1))[0].astype(np.int64)


@dataclass(frozen=True)
class LowRankDiff:
    """One factor's change, stored at its inferred rank.

    ``rows`` are the changed row indices (sorted, int64) and ``values``
    their replacement rows ``new[rows]`` — the ``C`` of the update once
    shifted, selected by the one-hot ``R`` of :meth:`selection_matrix`.
    """

    rows: np.ndarray
    values: np.ndarray
    n_rows: int

    @property
    def rank(self) -> int:
        """The inferred update rank: how many rows changed."""
        return int(self.rows.shape[0])

    def selection_matrix(self) -> np.ndarray:
        """The one-hot ``R`` with ``R[rows[j], j] = 1`` (shape ``(I, r)``).

        Exists to make the R@C algebra inspectable:
        ``new == old + R @ (values - old[rows])`` up to float rounding;
        the stored representation applies the same update by row
        assignment instead, which is exact.
        """
        selection = np.zeros((self.n_rows, self.rank), dtype=np.float64)
        selection[self.rows, np.arange(self.rank)] = 1.0
        return selection


def factor_diff(old: np.ndarray, new: np.ndarray) -> LowRankDiff:
    """Infer the low-rank diff taking ``old`` to ``new``."""
    old = np.asarray(old, dtype=np.float64)
    new = np.asarray(new, dtype=np.float64)
    if old.shape != new.shape or old.ndim != 2:
        raise ShapeError(
            f"factor_diff needs two equal-shape 2-D factors, got "
            f"{old.shape} and {new.shape}"
        )
    rows = _changed_rows(old, new)
    return LowRankDiff(
        rows=rows,
        values=np.ascontiguousarray(new[rows], dtype=np.float64),
        n_rows=int(old.shape[0]),
    )


def apply_factor_diff(old: np.ndarray, diff: LowRankDiff) -> np.ndarray:
    """Reconstruct ``new`` from ``old`` and a diff — bitwise-exact."""
    old = np.asarray(old, dtype=np.float64)
    if old.ndim != 2 or old.shape[0] != diff.n_rows:
        raise ShapeError(
            f"diff was taken over a ({diff.n_rows}, ...) factor, got "
            f"{old.shape}"
        )
    if diff.rank and diff.values.shape[1] != old.shape[1]:
        raise ShapeError(
            f"diff rows have width {diff.values.shape[1]}, factor has "
            f"{old.shape[1]} columns"
        )
    result = np.array(old, dtype=np.float64, copy=True)
    if diff.rank:
        result[diff.rows] = diff.values
    return result
