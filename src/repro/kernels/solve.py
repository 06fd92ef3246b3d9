"""Per-row ridge solves (Eq. 9), in the primal or the dual form.

Row ``i`` of mode ``n`` minimises ``‖x − D a‖² + λ‖a‖²`` over the ``k``
δ vectors (rows of ``D``, ``k × J``) and values ``x`` of its entries.  The
paper solves the ``J × J`` normal equations ``(DᵀD + λI) a = Dᵀx``: the
reduction costs ``O(k·J²)`` and the solve ``O(J³)``.  By the push-through
identity ``(DᵀD + λI)⁻¹Dᵀ = Dᵀ(DDᵀ + λI)⁻¹`` the same minimiser is
``a = Dᵀ(DDᵀ + λI_k)⁻¹x``, a ``k × k`` system costing ``O(k²·J + k³)``.
In a sparse tensor most rows hold fewer entries than the rank, so
:func:`solve_segments` solves every complete row with ``k < J`` in that
dual form (``a = δ·x / (δᵀδ + λ)`` when ``k = 1``) and only rows with
``k ≥ J`` through the normal equations and :func:`solve_rows`.  The rule
is fixed: it is the cheaper form for every ``k``.

Every row is solved on its own — its Gram, its factorisation and its
product are batched by length but never mixed with another row's — so a
row's bytes do not depend on which rows share its block, bucket, thread
chunk or worker process.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .segments import (
    equal_length_block,
    equal_length_gram,
    length_groups,
    normal_equations_sorted,
    segment_counts,
)

#: The ridge used when λ = 0, keeping rank-deficient rows finite.
ZERO_REGULARIZATION_RIDGE = 1e-12


def _ridge(regularization: float) -> float:
    return regularization if regularization > 0 else ZERO_REGULARIZATION_RIDGE


def _solve_systems(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``systems[i] · x = rhs[i]`` for a stack of square systems.

    The batched solve factorises every system on its own; when one is
    exactly singular the stack is re-solved one system at a time, so only
    the systems that still fail fall back to least squares.
    """
    n_rows, size, _ = systems.shape
    try:
        return np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        solutions = np.empty((n_rows, size))
        for row in range(n_rows):
            try:
                solutions[row] = np.linalg.solve(systems[row], rhs[row])
            except np.linalg.LinAlgError:
                solutions[row] = np.linalg.lstsq(
                    systems[row], rhs[row], rcond=None
                )[0]
        return solutions


def solve_rows(
    b_matrices: np.ndarray, c_vectors: np.ndarray, regularization: float
) -> np.ndarray:
    """Solve ``(B + λ I) aᵀ = c`` for every row at once (Eq. 9).

    ``B + λI`` is symmetric positive definite for λ > 0 (B is a Gram matrix),
    so the batched solve is well posed; a tiny ridge is added in the λ = 0
    corner case to keep the solve finite when a row is rank deficient.

    Each row's answer is independent of the batch it arrives in: the
    batched solve factorises every system on its own, and when one system
    is exactly singular the batch is re-solved row by row, so only the
    rows that still fail fall back to least squares.  Chunked solves
    (threads, worker processes, per-block solves) therefore agree bit for
    bit with one batch over all rows.
    """
    rank = b_matrices.shape[1]
    systems = b_matrices + _ridge(regularization) * np.eye(rank)[None, :, :]
    return _solve_systems(systems, c_vectors)


def solve_segments(
    deltas: np.ndarray,
    values: np.ndarray,
    starts: np.ndarray,
    regularization: float,
    lo: int,
    hi: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor rows of segments ``[lo, hi)``; ``(B, c)`` of the others.

    ``deltas``/``values`` are one block's row-sorted entries with segment
    boundaries at ``starts`` (first element 0).  Returns ``(rows, B, c)``:
    the solved rows of the complete segments ``[lo, hi)``, in segment
    order, and the normal equations of the segments outside that range —
    the at most two rows a block boundary leaves partial, whose sums the
    caller finishes — byte-identical to :func:`normal_equations_sorted`'s.

    A segment of ``k < J`` entries is solved in the dual,
    ``a = Dᵀ(DDᵀ + λI_k)⁻¹x`` (``δ·x / (δᵀδ + λ)`` for ``k = 1``); a
    segment of ``k ≥ J`` entries through its Gram and :func:`solve_rows`.
    Both forms keep the λ = 0 ridge and the singular-system fallback.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    rank = deltas.shape[1]
    n_entries, n_segments = deltas.shape[0], starts.shape[0]
    inside_begin = starts[lo] if lo < n_segments else n_entries
    inside_end = starts[hi] if hi < n_segments else n_entries
    # The prefix [0, lo) and the suffix [hi, n) reduce on their own; a
    # segment's sums do not depend on the segments reduced beside it.
    b_prefix, c_prefix = normal_equations_sorted(
        deltas[:inside_begin], values[:inside_begin], starts[:lo]
    )
    b_suffix, c_suffix = normal_equations_sorted(
        deltas[inside_end:], values[inside_end:], starts[hi:] - inside_end
    )

    inside_starts = starts[lo:hi]
    rows = np.empty((inside_starts.shape[0], rank), dtype=np.float64)
    ridge = _ridge(regularization)
    long_rows, long_b, long_c = [], [], []
    counts = segment_counts(inside_starts, inside_end)
    for segments, count in length_groups(counts):
        block, block_values = equal_length_block(
            deltas, values, inside_starts[segments], count
        )
        if count >= rank:
            # Reduced now, solved below in one batch with every long row.
            b_part, c_part = equal_length_gram(block, block_values)
            long_rows.append(segments)
            long_b.append(b_part)
            long_c.append(c_part)
        elif count == 1:
            delta = block[:, 0, :]
            scale = block_values[:, 0] / (
                np.einsum("ij,ij->i", delta, delta) + ridge
            )
            rows[segments] = delta * scale[:, None]
        else:
            systems = np.matmul(block, block.transpose(0, 2, 1))
            systems += ridge * np.eye(count)[None, :, :]
            alpha = _solve_systems(systems, block_values)
            rows[segments] = np.matmul(alpha[:, None, :], block)[:, 0, :]
    if long_rows:
        # ``+ 0.0`` turns a -0.0 into +0.0 exactly as the straddling rows'
        # zero-started sums do.
        rows[np.concatenate(long_rows)] = solve_rows(
            np.concatenate(long_b),
            np.concatenate(long_c) + 0.0,
            regularization,
        )
    return (
        rows,
        np.concatenate((b_prefix, b_suffix)),
        np.concatenate((c_prefix, c_suffix)),
    )
