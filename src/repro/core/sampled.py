"""P-Tucker-Sampled: entry-sampling acceleration (the paper's future work).

The conclusion of the paper lists "applying sampling techniques on observable
entries to accelerate decompositions, while sacrificing little accuracy" as
future work.  This module implements that extension on top of the P-Tucker
row-wise update: each iteration draws a random subset of the observed entries
and updates the factor matrices from the subset only, while the
reconstruction error — and therefore the convergence decision — is still
measured on the full Ω.

Because the per-iteration cost of P-Tucker is dominated by the O(N²|Ω|Jᴺ)
δ computation, sampling a fraction ``s`` of the entries reduces the
factor-update cost by roughly ``1/s`` at the price of noisier updates.  The
ablation benchmark ``benchmarks/bench_ablation_sampling.py`` measures that
trade-off.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..exceptions import ShapeError
from ..metrics.memory import MemoryTracker
from ..tensor.coo import SparseTensor
from .config import PTuckerConfig
from .ptucker import PTucker
from .result import TuckerResult
from .row_update import InMemorySource


class PTuckerSampled(PTucker):
    """P-Tucker whose factor updates use a random sample of the observed entries.

    Parameters
    ----------
    config:
        Standard :class:`PTuckerConfig`.
    sample_fraction:
        Fraction of Ω used for the factor updates each iteration (0 < s <= 1).
        ``1.0`` makes the solver's trajectory identical to plain P-Tucker's.
    resample_each_iteration:
        Draw a fresh sample every iteration (default) or reuse one fixed
        sample for the whole run.

    The fit runs the shared ALS driver (:func:`~repro.core.ptucker.run_als`)
    and only swaps the entries each iteration's updates read from.  The
    samples come from a generator seeded with ``config.seed + 1``; a
    resumed fit replays the draws of the iterations its checkpoint already
    covers, so with a fixed seed it continues bitwise-identically.
    """

    name = "P-Tucker-Sampled"

    def __init__(
        self,
        config: Optional[PTuckerConfig] = None,
        sample_fraction: float = 0.5,
        resample_each_iteration: bool = True,
    ) -> None:
        super().__init__(config)
        if not 0.0 < sample_fraction <= 1.0:
            raise ShapeError("sample_fraction must be in (0, 1]")
        self.sample_fraction = float(sample_fraction)
        self.resample_each_iteration = bool(resample_each_iteration)
        self._sample_rng: Optional[np.random.Generator] = None
        self._draws = 0
        self._sample = None

    # ------------------------------------------------------------------
    def _variant_parameters(self) -> Optional[Dict[str, Any]]:
        return {
            "name": self.name,
            "sample_fraction": self.sample_fraction,
            "resample_each_iteration": self.resample_each_iteration,
        }

    def _prepare(
        self,
        tensor: SparseTensor,
        factors: List[np.ndarray],
        core: np.ndarray,
        memory: Optional[MemoryTracker],
    ) -> None:
        seed = self.config.seed
        self._sample_rng = np.random.default_rng(None if seed is None else seed + 1)
        self._draws = 0
        self._sample = None

    def _update_source(self, tensor: SparseTensor, entries, iteration: int):
        """The sample iteration ``iteration`` updates from.

        One sample is drawn for iteration 1 and, when resampling, one more
        per later iteration.  The draws an iteration needs but that have not
        happened yet — all the earlier ones after a resume — are made here,
        so the generator is always in the uninterrupted fit's state.
        """
        needed = iteration if self.resample_each_iteration else 1
        if self._draws < needed:
            for _ in range(needed - self._draws):
                rows = self._draw_rows(tensor.nnz)
            self._draws = needed
            self._sample = entries
            if rows is not None:
                sample = SparseTensor(
                    tensor.indices[rows], tensor.values[rows], tensor.shape
                )
                self._sample = InMemorySource.build(
                    sample, index_dtype=self.config.index_dtype
                )
        return self._sample

    def _draw_rows(self, nnz: int) -> Optional[np.ndarray]:
        """Positions of one random sample of Ω (None when it is all of Ω)."""
        n_keep = max(1, int(round(self.sample_fraction * nnz)))
        if n_keep >= nnz:
            return None
        return self._sample_rng.choice(nnz, size=n_keep, replace=False)

    # ------------------------------------------------------------------
    def fit(self, tensor: SparseTensor) -> TuckerResult:
        """Factorize ``tensor``; updates use samples, errors use all of Ω."""
        result = super().fit(tensor)
        result.sample_fraction = self.sample_fraction  # type: ignore[attr-defined]
        return result
