"""CP-ALS on observed entries: the CP-decomposition reference.

The paper positions Tucker factorization as a generalisation of
CANDECOMP/PARAFAC (Section II-C) and cites row-wise ALS CP methods (CDTF /
SALS) as the closest prior work.  This module implements the sparse,
observed-entries-only CP-ALS with the same row-wise update structure as
P-Tucker, which makes it both a useful library feature (CP completion) and
the natural ablation: P-Tucker restricted to a super-diagonal core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..core.config import PTuckerConfig
from ..core.result import TuckerResult
from ..core.trace import ConvergenceTrace, IterationRecord
from ..metrics.errors import reconstruction_error, regularized_loss
from ..metrics.timing import IterationTimer
from ..tensor.coo import SparseTensor


def _khatri_rao_rows(
    factors: Sequence[np.ndarray], indices: np.ndarray, skip: int
) -> np.ndarray:
    """Element-wise product of the other factors' rows for each observed entry.

    For CP the "delta" of entry α in mode n is simply
    ``Π_{k≠n} a^(k)[i_k, :]`` (component-wise), a length-R vector.
    """
    n_entries = indices.shape[0]
    rank = factors[0].shape[1]
    out = np.ones((n_entries, rank), dtype=np.float64)
    for k, factor in enumerate(factors):
        if k == skip:
            continue
        out *= np.asarray(factor)[indices[:, k]]
    return out


class CpAls:
    """Sparse CP-ALS with row-wise updates over observed entries only."""

    name = "CP-ALS"
    zero_fill = False

    def __init__(self, config: Optional[PTuckerConfig] = None) -> None:
        self.config = config if config is not None else PTuckerConfig()

    # ------------------------------------------------------------------
    def _cp_core(self, rank: int, order: int, weights: np.ndarray) -> np.ndarray:
        """Super-diagonal Tucker core carrying the CP component weights."""
        core = np.zeros((rank,) * order, dtype=np.float64)
        idx = np.arange(rank)
        core[tuple(idx for _ in range(order))] = weights
        return core

    def fit(self, tensor: SparseTensor) -> TuckerResult:
        """Fit a rank-R CP model; the result is returned in Tucker form."""
        config = self.config
        ranks = config.resolve_ranks(tensor.order)
        rank = ranks[0]
        if any(r != rank for r in ranks):
            raise ValueError("CP requires the same rank for every mode")
        rng = np.random.default_rng(config.seed)
        factors: List[np.ndarray] = [
            rng.uniform(0.0, 1.0, size=(dim, rank)) for dim in tensor.shape
        ]
        weights = np.ones(rank, dtype=np.float64)

        trace = ConvergenceTrace()
        timer = IterationTimer()

        for iteration in range(1, config.max_iterations + 1):
            with timer.iteration():
                for mode in range(tensor.order):
                    deltas = _khatri_rao_rows(factors, tensor.indices, mode)
                    deltas = deltas * weights[None, :]
                    mode_rows = tensor.indices[:, mode]
                    dim = tensor.shape[mode]
                    gram = np.zeros((dim, rank, rank))
                    rhs = np.zeros((dim, rank))
                    np.add.at(gram, mode_rows, deltas[:, :, None] * deltas[:, None, :])
                    np.add.at(rhs, mode_rows, tensor.values[:, None] * deltas)
                    systems = gram + config.regularization * np.eye(rank)[None, :, :]
                    factors[mode] = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
                    # Re-normalise columns into the weight vector to keep factors
                    # bounded.  The solved factor absorbs 1/lambda (its deltas already
                    # carry the old weights), so the new weights are old * norm.
                    norms = np.linalg.norm(factors[mode], axis=0)
                    norms[norms < 1e-12] = 1.0
                    factors[mode] /= norms[None, :]
                    weights = weights * norms

                core = self._cp_core(rank, tensor.order, weights)
                error = reconstruction_error(tensor, core, factors)
                loss = regularized_loss(tensor, core, factors, config.regularization)

            if trace.record_iteration(
                IterationRecord(
                    iteration=iteration,
                    reconstruction_error=error,
                    loss=loss,
                    seconds=timer.seconds[-1],
                    core_nnz=rank,
                ),
                config,
            ):
                break

        core = self._cp_core(rank, tensor.order, weights)
        return TuckerResult(
            core=core,
            factors=factors,
            trace=trace,
            memory=None,
            algorithm=self.name,
        )
