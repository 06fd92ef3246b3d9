"""Tucker-wOpt: weighted-optimisation Tucker factorization on observed entries.

The accuracy-focused baseline (Filipovic & Jukic, 2015) as the paper uses it:
the loss is the same observed-entry objective as P-Tucker's Eq. (6) (without
the L2 penalty in the original formulation), but the optimisation runs a
gradient method over *dense* intermediates.  Each gradient evaluation builds
the dense weighted residual tensor ``W * (X - G ×_1 A^(1) ... ×_N A^(N))``
(W is the observation indicator), whose size is the full I^N grid — the
O(I^{N-1} J)-and-worse memory profile of Table III that makes the method run
out of memory on every large tensor in Figures 6, 7 and 11.

The optimiser here is gradient descent with backtracking line search on the
factors and core jointly, which preserves the method's defining properties:
accuracy comparable to P-Tucker on small tensors, dense-grid memory use, and
per-iteration cost proportional to I^N.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import PTuckerConfig
from ..core.result import TuckerResult
from ..core.trace import ConvergenceTrace, IterationRecord
from ..metrics.errors import reconstruction_error, regularized_loss
from ..metrics.memory import BYTES_PER_FLOAT, MemoryTracker
from ..metrics.timing import IterationTimer
from ..tensor.coo import SparseTensor
from ..tensor.dense import mode_product, tucker_reconstruct, unfold


class TuckerWopt:
    """Gradient-based Tucker factorization over the observed entries."""

    name = "Tucker-wOpt"
    zero_fill = False

    def __init__(self, config: Optional[PTuckerConfig] = None) -> None:
        self.config = config if config is not None else PTuckerConfig()

    # ------------------------------------------------------------------
    def _dense_bytes(self, tensor: SparseTensor) -> float:
        """Size of one dense I_1 x ... x I_N intermediate."""
        cells = 1.0
        for dim in tensor.shape:
            cells *= float(dim)
        return cells * BYTES_PER_FLOAT

    def _gradients(
        self,
        weight: np.ndarray,
        dense_x: np.ndarray,
        core: np.ndarray,
        factors: List[np.ndarray],
    ) -> Tuple[np.ndarray, List[np.ndarray], float]:
        """Gradient of the observed-entry squared error w.r.t. core and factors."""
        model = tucker_reconstruct(core, factors)
        residual = weight * (model - dense_x)
        loss = float(np.sum(residual * (model - dense_x)))

        factor_grads: List[np.ndarray] = []
        for mode, factor in enumerate(factors):
            others = [
                f if k != mode else np.eye(f.shape[1])
                for k, f in enumerate(factors)
            ]
            projected = core
            for k, f in enumerate(factors):
                if k == mode:
                    continue
                projected = mode_product(projected, f, k)
            grad = 2.0 * unfold(residual, mode) @ unfold(projected, mode).T
            factor_grads.append(grad)

        core_grad = residual
        for mode, factor in enumerate(factors):
            core_grad = mode_product(core_grad, factor.T, mode)
        core_grad = 2.0 * core_grad
        return core_grad, factor_grads, loss

    # ------------------------------------------------------------------
    def fit(self, tensor: SparseTensor) -> TuckerResult:
        """Fit the model with gradient descent over dense intermediates."""
        config = self.config
        ranks = config.resolve_ranks(tensor.order)
        rng = np.random.default_rng(config.seed)

        memory = (
            MemoryTracker(budget_bytes=config.memory_budget_bytes)
            if config.track_memory
            else None
        )
        # The dense observation mask, the dense data tensor and the dense
        # residual are the defining intermediates of this method; account for
        # them before allocating so a tight budget reproduces the O.O.M.
        if memory is not None:
            memory.allocate(3.0 * self._dense_bytes(tensor), "dense-intermediates")

        dense_x = tensor.to_dense()
        weight = np.zeros(tensor.shape, dtype=np.float64)
        if tensor.nnz:
            weight[tuple(tensor.indices.T)] = 1.0

        factors = [
            rng.uniform(0.0, 1.0, size=(dim, rank))
            for dim, rank in zip(tensor.shape, ranks)
        ]
        core = rng.uniform(0.0, 1.0, size=ranks)

        trace = ConvergenceTrace()
        timer = IterationTimer()
        step = 1.0

        for iteration in range(1, config.max_iterations + 1):
            with timer.iteration():
                core_grad, factor_grads, current_loss = self._gradients(
                    weight, dense_x, core, factors
                )
                # Backtracking line search on the joint step.
                improved = False
                for _ in range(20):
                    new_core = core - step * core_grad
                    new_factors = [
                        f - step * g for f, g in zip(factors, factor_grads)
                    ]
                    model = tucker_reconstruct(new_core, new_factors)
                    new_loss = float(np.sum(weight * (model - dense_x) ** 2))
                    if new_loss < current_loss:
                        improved = True
                        break
                    step *= 0.5
                if improved:
                    core, factors = new_core, new_factors
                    step *= 1.2
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

        if memory is not None:
            memory.release(3.0 * self._dense_bytes(tensor), "dense-intermediates")

        return TuckerResult(
            core=core,
            factors=factors,
            trace=trace,
            memory=memory,
            algorithm=self.name,
        )
