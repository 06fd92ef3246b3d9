"""Shared base class for the HOOI-style Tucker baselines.

Tucker-ALS (Algorithm 1), Tucker-CSF and S-HOT all follow the higher-order
orthogonal iteration (HOOI) template: for each mode, form
``Y = X ×_{k≠n} A^(k)T`` treating missing entries as zeros, take the leading
left singular vectors of ``Y_(n)`` as the new factor, and finally compute the
core as ``X ×_1 A^(1)T ... ×_N A^(N)T``.  The three baselines differ only in
*how* they compute ``Y_(n)`` (dense, CSF-accelerated, or on the fly) and in
how much intermediate memory that takes — which is exactly the axis the paper
compares them on.

Subclasses implement :meth:`_factor_update_matrix` and
:meth:`_intermediate_bytes`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import PTuckerConfig
from ..core.result import TuckerResult
from ..core.trace import ConvergenceTrace, IterationRecord
from ..metrics.errors import reconstruction_error, regularized_loss
from ..metrics.memory import MemoryTracker
from ..metrics.timing import IterationTimer
from ..tensor.coo import SparseTensor
from ..tensor.operations import factor_rows_product


def leading_left_singular_vectors(
    matrix: Optional[np.ndarray],
    gram: Optional[np.ndarray],
    rank: int,
    producer=None,
) -> np.ndarray:
    """Leading left singular vectors of ``Y_(n)``.

    Either ``matrix`` (``Y_(n)`` itself) or ``gram`` (``Y_(n)^T Y_(n)``)
    must be given.  With only the Gram matrix, the right singular vectors V
    and singular values σ come from its eigendecomposition and the left
    vectors are recovered as ``U = Y V σ^{-1}`` through ``producer``, a
    callable mapping ``V_scaled`` to ``Y @ V_scaled`` without materialising
    ``Y`` (the S-HOT strategy).
    """
    if matrix is not None:
        u_matrix, _, _ = np.linalg.svd(matrix, full_matrices=False)
        return u_matrix[:, :rank]
    if gram is None or producer is None:
        raise ValueError("need either the matrix or (gram, producer)")
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(-eigenvalues)
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    eigenvectors = eigenvectors[:, order]
    top_values = eigenvalues[:rank]
    top_vectors = eigenvectors[:, :rank]
    sigma = np.sqrt(top_values)
    sigma[sigma < 1e-12] = 1.0
    return producer(top_vectors / sigma[None, :])


class HooiBaseline:
    """Template for baselines built on higher-order orthogonal iteration."""

    name = "HOOI"
    #: whether the method's predictions treat missing entries as zeros
    zero_fill = True

    def __init__(self, config: Optional[PTuckerConfig] = None) -> None:
        self.config = config if config is not None else PTuckerConfig()

    # ------------------------------------------------------------------
    def _initial_factors(
        self, tensor: SparseTensor, ranks: Sequence[int], rng: np.random.Generator
    ) -> List[np.ndarray]:
        """Random orthonormal starting factors (HOOI needs orthonormal columns)."""
        factors = []
        for dim, rank in zip(tensor.shape, ranks):
            matrix = rng.standard_normal((dim, rank))
            q_matrix, _ = np.linalg.qr(matrix)
            factors.append(q_matrix)
        return factors

    def _factor_update_matrix(
        self,
        tensor: SparseTensor,
        factors: List[np.ndarray],
        mode: int,
        rank: int,
        memory: Optional[MemoryTracker],
    ) -> np.ndarray:
        """Return the new factor matrix for ``mode`` (the HOOI SVD step)."""
        raise NotImplementedError

    def _intermediate_bytes(
        self, tensor: SparseTensor, ranks: Sequence[int], mode: int
    ) -> float:
        """Intermediate-data bytes this method needs to update one mode."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _core_from_factors(
        self, tensor: SparseTensor, factors: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Core tensor ``X ×_1 A^(1)T ... ×_N A^(N)T`` over the observed entries.

        With zero-filled semantics the missing cells contribute nothing to the
        projection, so the core is a sum over observed entries of
        ``X_α · ⊗_k A^(k)[i_k, :]``.
        """
        ranks = tuple(int(np.asarray(f).shape[1]) for f in factors)
        weights = factor_rows_product(tensor, list(factors), skip=-1)
        flat = weights.T @ tensor.values
        return flat.reshape(ranks)

    # ------------------------------------------------------------------
    def fit(self, tensor: SparseTensor) -> TuckerResult:
        """Run HOOI until the reconstruction error converges."""
        config = self.config
        ranks = config.resolve_ranks(tensor.order)
        rng = np.random.default_rng(config.seed)
        factors = self._initial_factors(tensor, ranks, rng)

        memory = (
            MemoryTracker(budget_bytes=config.memory_budget_bytes)
            if config.track_memory
            else None
        )
        trace = ConvergenceTrace()
        timer = IterationTimer()
        core = self._core_from_factors(tensor, factors)

        for iteration in range(1, config.max_iterations + 1):
            with timer.iteration():
                for mode in range(tensor.order):
                    if memory is not None:
                        memory.allocate(
                            self._intermediate_bytes(tensor, ranks, mode),
                            f"{self.name}-mode-{mode}",
                        )
                    factors[mode] = self._factor_update_matrix(
                        tensor, factors, mode, ranks[mode], memory
                    )
                    if memory is not None:
                        memory.release(
                            self._intermediate_bytes(tensor, ranks, mode),
                            f"{self.name}-mode-{mode}",
                        )
                core = self._core_from_factors(tensor, factors)
                error = reconstruction_error(tensor, core, factors)
                loss = regularized_loss(tensor, core, factors, config.regularization)

            if trace.record_iteration(
                IterationRecord(
                    iteration=iteration,
                    reconstruction_error=error,
                    loss=loss,
                    seconds=timer.seconds[-1],
                    core_nnz=int(np.count_nonzero(core)),
                ),
                config,
            ):
                break

        return TuckerResult(
            core=core,
            factors=list(factors),
            trace=trace,
            memory=memory,
            algorithm=self.name,
        )
