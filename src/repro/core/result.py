"""Result object returned by every Tucker solver in the library."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.errors import reconstruction_error, test_rmse
from ..metrics.memory import MemoryTracker
from ..tensor.coo import SparseTensor
from ..tensor.dense import tucker_reconstruct
from ..tensor.operations import sparse_reconstruct
from .trace import ConvergenceTrace


@dataclass
class TuckerResult:
    """Factor matrices, core tensor and run statistics of a Tucker factorization.

    Every solver (P-Tucker, its variants and the baselines) returns this
    type, so experiments and examples can treat them interchangeably.
    """

    core: np.ndarray
    factors: List[np.ndarray]
    trace: ConvergenceTrace = field(default_factory=ConvergenceTrace)
    memory: Optional[MemoryTracker] = None
    algorithm: str = ""

    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of tensor modes."""
        return len(self.factors)

    @property
    def ranks(self) -> Tuple[int, ...]:
        """Tucker ranks of the factorization."""
        return tuple(int(f.shape[1]) for f in self.factors)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the factorized tensor."""
        return tuple(int(f.shape[0]) for f in self.factors)

    @property
    def core_nnz(self) -> int:
        """Number of non-zero core entries (shrinks under P-Tucker-Approx)."""
        return int(np.count_nonzero(self.core))

    # ------------------------------------------------------------------
    def predict(self, indices: np.ndarray) -> np.ndarray:
        """Predict values at arbitrary multi-indices using Eq. (4)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim == 1:
            indices = indices[None, :]
        probe = SparseTensor(indices, np.zeros(indices.shape[0]), self.shape)
        return sparse_reconstruct(probe, self.core, self.factors)

    def predict_tensor(self, tensor: SparseTensor) -> np.ndarray:
        """Predict the values at the observed positions of ``tensor``."""
        return sparse_reconstruct(tensor, self.core, self.factors)

    def reconstruction_error(self, tensor: SparseTensor) -> float:
        """Reconstruction error (Eq. 5) of this model on ``tensor``."""
        return reconstruction_error(tensor, self.core, self.factors)

    def test_rmse(self, tensor: SparseTensor) -> float:
        """Test RMSE of this model on a held-out tensor."""
        return test_rmse(tensor, self.core, self.factors)

    def to_dense(self) -> np.ndarray:
        """Dense reconstruction ``G ×_1 A^(1) ... ×_N A^(N)`` (small tensors only)."""
        return tucker_reconstruct(self.core, self.factors)

    # ------------------------------------------------------------------
    def factor(self, mode: int) -> np.ndarray:
        """The factor matrix of one mode."""
        return self.factors[mode]

    def orthogonality_defect(self) -> float:
        """Max deviation of ``A^(n)T A^(n)`` from identity over all modes.

        Zero (up to round-off) after the final orthogonalisation of
        Algorithm 2.
        """
        worst = 0.0
        for f in self.factors:
            gram = f.T @ f
            worst = max(worst, float(np.max(np.abs(gram - np.eye(f.shape[1])))))
        return worst

    def summary(self) -> str:
        """One-line, human-readable description of the run."""
        err = self.trace.errors[-1] if self.trace.records else float("nan")
        mem = self.memory.peak_megabytes if self.memory is not None else 0.0
        return (
            f"{self.algorithm or 'Tucker'}: shape={self.shape} ranks={self.ranks} "
            f"iterations={self.trace.n_iterations} error={err:.4f} "
            f"peak_intermediate={mem:.2f}MB"
        )
