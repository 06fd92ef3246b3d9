"""Batched per-row ridge solves (Eq. 9)."""

from __future__ import annotations

import numpy as np


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
    n_rows, rank, _ = b_matrices.shape
    ridge = regularization if regularization > 0 else 1e-12
    systems = b_matrices + ridge * np.eye(rank)[None, :, :]
    rhs = c_vectors[:, :, None]
    try:
        solutions = np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError:
        solutions = np.empty((n_rows, rank, 1))
        for row in range(n_rows):
            try:
                solutions[row] = np.linalg.solve(systems[row], rhs[row])
            except np.linalg.LinAlgError:
                solutions[row, :, 0] = np.linalg.lstsq(
                    systems[row], c_vectors[row], rcond=None
                )[0]
    return solutions[:, :, 0]
