"""Core-tensor utilities: initialisation, the final orthogonalisation
(Algorithm 2 lines 8-11) by CholeskyQR2 with a Householder QR fallback, and a
sparse view of the core used by P-Tucker-Approx.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ShapeError
from ..tensor.dense import mode_product


def initialize_factors(
    shape: Sequence[int],
    ranks: Sequence[int],
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """Random factor matrices with entries in [0, 1) (Algorithm 2 line 1)."""
    if len(shape) != len(ranks):
        raise ShapeError("need one rank per mode")
    return [rng.uniform(0.0, 1.0, size=(dim, rank)) for dim, rank in zip(shape, ranks)]


def initialize_core(ranks: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Random core tensor with entries in [0, 1) (Algorithm 2 line 1)."""
    return rng.uniform(0.0, 1.0, size=tuple(int(r) for r in ranks))


#: Largest ``‖QᵀQ − I‖_max`` a CholeskyQR2 factor may show; above it the
#: factor is orthogonalised again by Householder QR.  CholeskyQR2 reaches
#: round-off level (≈1e-15) for κ(A) ≲ 1e8, so the bound only trips on
#: factors near rank deficiency, where the Gram's Cholesky loses accuracy.
ORTHOGONALITY_TOLERANCE = 1e-12


def cholesky_qr2(matrix: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``A = QR`` by CholeskyQR2, or ``None`` where the result cannot be trusted.

    Each of the two passes takes ``R_k`` from the Cholesky factor of the
    current Gram and applies ``R_k⁻¹`` as one GEMM against the J×J inverse;
    the returned ``R = R₂R₁`` is upper triangular with a positive diagonal
    (Fukaya, Nakatsukasa, Yanagisawa and Yamamoto, 2014).  ``None`` when the
    Cholesky factorization fails, the result is not finite, or ``Q`` misses
    :data:`ORTHOGONALITY_TOLERANCE`.
    """
    q_matrix = np.asarray(matrix, dtype=np.float64)
    r_matrix = np.eye(q_matrix.shape[1])
    try:
        for _ in range(2):
            r_step = np.linalg.cholesky(q_matrix.T @ q_matrix).T
            q_matrix = q_matrix @ np.linalg.inv(r_step)
            r_matrix = r_step @ r_matrix
    except np.linalg.LinAlgError:
        return None
    # A NaN or an infinity in Q makes the defect NaN or infinite.
    defect = np.abs(q_matrix.T @ q_matrix - np.eye(q_matrix.shape[1])).max()
    if not (defect <= ORTHOGONALITY_TOLERANCE and np.isfinite(r_matrix).all()):
        return None
    return q_matrix, r_matrix


def orthogonalize(
    factors: Sequence[np.ndarray], core: np.ndarray
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Orthogonalise every factor and push the R factors into the core.

    Implements Eq. (7) and Eq. (8): ``A^(n) = Q^(n) R^(n)`` with ``Q`` kept as
    the new factor and the core updated as ``G ← G ×_n R^(n)`` so the
    reconstruction — and therefore the reconstruction error — is unchanged.
    Each factor is factorized by :func:`cholesky_qr2`, and by Householder QR
    (``np.linalg.qr``) where that returns ``None``.  Under one BLAS setup
    the result is a pure function of the input bytes.  A factor with fewer
    rows than columns raises :class:`~repro.exceptions.ShapeError`: its QR
    would shrink the core.
    """
    new_factors: List[np.ndarray] = []
    new_core = np.asarray(core, dtype=np.float64).copy()
    for mode, factor in enumerate(factors):
        factor = np.asarray(factor, dtype=np.float64)
        rows, rank = factor.shape
        if rows < rank:
            raise ShapeError(
                f"factor {mode} has {rows} rows and rank {rank}; orthogonalisation "
                "needs at least as many rows as columns"
            )
        q_and_r = cholesky_qr2(factor)
        q_matrix, r_matrix = q_and_r if q_and_r is not None else np.linalg.qr(factor)
        new_factors.append(q_matrix)
        new_core = mode_product(new_core, r_matrix, mode)
    return new_factors, new_core


@dataclass
class SparseCore:
    """Sparse representation of the core tensor used by P-Tucker-Approx.

    Only the surviving (index, value) pairs are stored once entries start
    being truncated, so the per-iteration cost of the δ computation scales
    with the number of *remaining* core entries |G| (Theorem 7).
    """

    shape: Tuple[int, ...]
    indices: np.ndarray
    values: np.ndarray

    @classmethod
    def from_dense(cls, core: np.ndarray) -> "SparseCore":
        core = np.asarray(core, dtype=np.float64)
        idx = np.argwhere(core != 0.0)
        return cls(shape=core.shape, indices=idx, values=core[tuple(idx.T)] if idx.size else np.empty(0))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        if self.indices.size:
            dense[tuple(self.indices.T)] = self.values
        return dense

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def drop(self, positions: np.ndarray) -> "SparseCore":
        """Return a copy without the entries at the given positions."""
        keep = np.ones(self.nnz, dtype=bool)
        keep[np.asarray(positions, dtype=np.int64)] = False
        return SparseCore(self.shape, self.indices[keep], self.values[keep])
