"""Accuracy metrics used in the paper's evaluation.

* :func:`reconstruction_error` — Eq. (5): the root of the summed squared
  residuals over the observed entries Ω (the paper reports this on the
  training set).
* :func:`test_rmse` — root mean square error of the predictions on a held-out
  set of observed entries (Figure 11, right panel).
* :func:`regularized_loss` — the full objective of Eq. (6), used by the
  convergence tests (Theorem 2 asserts it is monotonically non-increasing).
* :func:`error_and_loss` — Eqs. (5) and (6) from a single residual pass, so
  a solver iteration reconstructs the observed entries exactly once.
* :func:`error_and_loss_stream` — the same metrics over a *stream* of
  entry blocks, so an out-of-core fit never materialises the residual
  vector (the sharded executor feeds it shard-store blocks).
* :func:`fit` — the conventional "fit" score ``1 - ||residual|| / ||X||``.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from ..kernels import make_value_contractor
from ..tensor.coo import SparseTensor
from ..tensor.operations import sparse_reconstruct

#: Entries per residual block of the in-core metric; a stream chunked the
#: same way accumulates its squared residuals over identical block
#: boundaries, so the in-core and streamed metrics agree bit for bit.
RECONSTRUCT_BLOCK_SIZE = 262_144


def residuals(
    tensor: SparseTensor, core: np.ndarray, factors: Sequence[np.ndarray]
) -> np.ndarray:
    """Observed value minus model prediction at every observed entry."""
    predictions = sparse_reconstruct(tensor, core, factors)
    return tensor.values - predictions


def reconstruction_error(
    tensor: SparseTensor, core: np.ndarray, factors: Sequence[np.ndarray]
) -> float:
    """Reconstruction error of Eq. (5): sqrt of the sum of squared residuals."""
    return error_and_loss(tensor, core, factors, 0.0)[0]


def test_rmse(
    tensor: SparseTensor, core: np.ndarray, factors: Sequence[np.ndarray]
) -> float:
    """Root mean square error of predictions over the entries of ``tensor``."""
    if tensor.nnz == 0:
        return 0.0
    res = residuals(tensor, core, factors)
    return float(np.sqrt(np.mean(res * res)))


def regularized_loss(
    tensor: SparseTensor,
    core: np.ndarray,
    factors: Sequence[np.ndarray],
    regularization: float,
) -> float:
    """The sparse Tucker objective of Eq. (6): squared error + L2 penalty."""
    return error_and_loss(tensor, core, factors, regularization)[1]


def error_and_loss(
    tensor: SparseTensor,
    core: np.ndarray,
    factors: Sequence[np.ndarray],
    regularization: float,
) -> Tuple[float, float]:
    """Reconstruction error (Eq. 5) and regularised loss (Eq. 6) together.

    Both metrics are derived from one residual evaluation, halving the
    per-iteration reconstruction cost compared to evaluating them
    separately.  This is the single implementation of the objective
    (:func:`reconstruction_error` and :func:`regularized_loss` are thin
    wrappers, and the streamed variant below shares the accumulation), so
    the in-core and out-of-core fits report bitwise-identical metrics for
    the same entry order.
    """

    def blocks() -> Iterable[Tuple[np.ndarray, np.ndarray]]:
        for start in range(0, tensor.nnz, RECONSTRUCT_BLOCK_SIZE):
            stop = min(start + RECONSTRUCT_BLOCK_SIZE, tensor.nnz)
            yield tensor.indices[start:stop], tensor.values[start:stop]

    return error_and_loss_stream(
        blocks(), core, factors, regularization, expected_entries=tensor.nnz
    )


def error_and_loss_stream(
    blocks: Iterable[Tuple[np.ndarray, np.ndarray]],
    core: np.ndarray,
    factors: Sequence[np.ndarray],
    regularization: float,
    expected_entries: int,
) -> Tuple[float, float]:
    """Eqs. (5) and (6) over a stream of ``(indices, values)`` entry blocks.

    ``blocks`` yields chunks of observed entries (any partition into
    consecutive blocks works; :data:`RECONSTRUCT_BLOCK_SIZE` chunks match
    the in-core metric bit for bit).  Squared residuals are accumulated
    per block, so only one block is ever resident — this is the metric the
    sharded executor evaluates from memory-mapped shards.
    ``expected_entries`` sizes the contraction plan exactly as the in-core
    path does (it must be the total entry count of the stream).
    """
    contractor = make_value_contractor(factors, core, expected_entries)
    squared = 0.0
    for indices_block, values_block in blocks:
        # The contractor consumes narrow columnar blocks directly; forcing
        # ndarray here would widen every streamed block to int64.
        res = np.asarray(values_block, dtype=np.float64) - contractor(
            indices_block
        )
        squared += float(np.sum(res * res))
    penalty = (
        sum(float(np.sum(np.square(f))) for f in factors) if regularization else 0.0
    )
    return float(np.sqrt(squared)), squared + regularization * penalty


def fit(
    tensor: SparseTensor, core: np.ndarray, factors: Sequence[np.ndarray]
) -> float:
    """Fit score ``1 - ||X - X̂||_Ω / ||X||_Ω`` (1 is a perfect reconstruction)."""
    denom = tensor.norm()
    if denom == 0.0:
        return 1.0
    return 1.0 - reconstruction_error(tensor, core, factors) / denom


def rmse_of_values(observed: np.ndarray, predicted: np.ndarray) -> float:
    """Plain RMSE between two aligned value arrays."""
    observed = np.asarray(observed, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if observed.shape != predicted.shape:
        raise ValueError("observed and predicted arrays must have the same shape")
    if observed.size == 0:
        return 0.0
    diff = observed - predicted
    return float(np.sqrt(np.mean(diff * diff)))
