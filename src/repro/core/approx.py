"""P-Tucker-Approx: truncating "noisy" core entries (Algorithm 4).

The variant's intuition (Section III-C): some core entries contribute more to
the reconstruction error than they explain, so removing them each iteration
both shrinks |G| (speeding up later iterations, Theorem 7) and barely hurts —
or even helps — accuracy.  An entry β is scored by its *partial
reconstruction error* R(β) (Eq. 13): the change in the squared-error sum when
β's contribution is removed from the model.  The top-p fraction by R(β) is
zeroed every iteration.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tensor.coo import SparseTensor
from ..tensor.operations import factor_rows_product
from .config import PTuckerConfig
from .ptucker import PTucker


def partial_reconstruction_errors(
    tensor: SparseTensor,
    core: np.ndarray,
    factors: Sequence[np.ndarray],
    block_size: int = 100_000,
) -> np.ndarray:
    """R(β) for every core entry (Eq. 13), flattened in C order.

    For each observed entry α let ``w_αβ = Π_k a^(k)_{i_k j_k}`` (the weight of
    core cell β at α), ``ŷ_α = Σ_β G_β w_αβ`` the model value, and
    ``r_α = X_α - ŷ_α`` the residual.  Eq. (13) is the difference between the
    squared error with β and without β:

        R(β) = Σ_α [ (X_α - ŷ_α)² - (X_α - ŷ_α + G_β w_αβ)² ]
             = Σ_α  G_β w_αβ ( -G_β w_αβ - 2 r_α )

    which matches the paper's expanded form with c = G_β w_αβ:
    ``c (-2 X_α + c + 2 (ŷ_α - c)) = c (-c - 2 r_α)``.  A large positive R(β)
    means the model has *more* error with β than without it — removing the
    entry reduces the squared-error sum — which is exactly the "noisy"
    criterion.  The computation is blocked over observed entries so the
    |Ω| x |G| weight matrix never has to exist at once.
    """
    core_flat = np.asarray(core, dtype=np.float64).reshape(-1)
    totals = np.zeros(core_flat.shape[0], dtype=np.float64)
    n_entries = tensor.nnz
    for start in range(0, n_entries, block_size):
        rows = np.arange(start, min(start + block_size, n_entries))
        weights = factor_rows_product(tensor, list(factors), skip=-1, entry_rows=rows)
        predictions = weights @ core_flat
        residual = tensor.values[rows] - predictions
        contribution = weights * core_flat[None, :]
        totals += np.sum(
            contribution * (-contribution - 2.0 * residual[:, None]), axis=0
        )
    return totals


def truncate_noisy_entries(
    tensor: SparseTensor,
    core: np.ndarray,
    factors: Sequence[np.ndarray],
    truncation_rate: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Zero the top-``truncation_rate`` fraction of core entries by R(β).

    Returns the truncated core and the flat positions that were removed.
    Already-zero entries are not counted against the budget, so repeated
    truncation keeps shrinking the set of *remaining* non-zeros, as in
    Algorithm 4 applied once per iteration.
    """
    core = np.asarray(core, dtype=np.float64).copy()
    flat = core.reshape(-1)
    nonzero_positions = np.nonzero(flat != 0.0)[0]
    if nonzero_positions.size == 0:
        return core, np.empty(0, dtype=np.int64)
    n_remove = int(np.floor(truncation_rate * nonzero_positions.size))
    if n_remove == 0:
        return core, np.empty(0, dtype=np.int64)
    scores = partial_reconstruction_errors(tensor, core, factors)
    candidate_scores = scores[nonzero_positions]
    worst = np.argsort(-candidate_scores, kind="stable")[:n_remove]
    removed = nonzero_positions[worst]
    flat[removed] = 0.0
    return core, removed


class PTuckerApprox(PTucker):
    """P-Tucker with per-iteration truncation of noisy core entries."""

    name = "P-Tucker-Approx"

    def __init__(self, config: Optional[PTuckerConfig] = None) -> None:
        super().__init__(config)
        self.removed_per_iteration: List[int] = []

    def _variant_parameters(self) -> Optional[Dict[str, Any]]:
        return {"name": self.name, "truncation_rate": self.config.truncation_rate}

    def _after_iteration(
        self,
        tensor: SparseTensor,
        factors: List[np.ndarray],
        core: np.ndarray,
        iteration: int,
    ) -> np.ndarray:
        truncated, removed = truncate_noisy_entries(
            tensor, core, factors, self.config.truncation_rate
        )
        self.removed_per_iteration.append(int(removed.size))
        return truncated
