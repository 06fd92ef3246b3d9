"""Streaming sweeps over a shard store: out-of-core P-Tucker.

:class:`ShardedSweepExecutor` hands a :class:`~repro.shards.store.ShardStore`
to :func:`repro.core.row_update.update_factor_mode` as its entry source,
in place of the in-RAM :class:`~repro.core.row_update.InMemorySource`:
shards are memory-mapped and streamed one ``block_size`` run of entries at
a time, each block's normal equations are computed by any registered
kernel backend (``numpy`` / ``threaded`` / ``procpool``), and
the per-row partial sums are merged into the factor matrix
by the same block loop the in-core update runs.

Because the store's mode-sorted shards hold bit-identical data to the
in-core sorted arrays and the executor uses the same global block
boundaries, the streamed sweep performs the *same floating-point operations
in the same order* as ``update_factor_mode`` on the original tensor — the
updated factors are bitwise-equal, which the equivalence tests assert.  The
difference is the working set: instead of nnz-sized sorted index/value
copies per mode, only the current block (plus the factor matrices, core and
per-row ``(B, c)`` stacks) is resident.

:meth:`ShardedSweepExecutor.fit` runs the P-Tucker loop (Algorithm 2)
against the store through the one ALS driver,
:func:`repro.core.ptucker.run_als`, which reaches the store only through
this class's :meth:`~ShardedSweepExecutor.update_factor_mode` and
:meth:`~ShardedSweepExecutor.error_and_loss` — per-mode streamed updates,
a streamed residual pass for the convergence metrics, checkpoint/resume
and the final orthogonalisation — without ever materialising the tensor,
so |Omega| is bounded by disk, not RAM.

One scoping note on the bitwise contract: the *convergence metric* is
accumulated over the store's canonical (mode-0 sorted) entry order.  When
the original tensor's entry order differs and ``tolerance > 0``, the
error's last ulp can differ from the in-core fit's, so the stopping
decision could in principle flip on an exact tie with the threshold; the
factor updates themselves are bitwise-equal regardless, and with
``tolerance=0`` (or a tensor already in canonical order) the entire fit
is bitwise-equal — which is what the equivalence tests pin down.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.config import PTuckerConfig
from ..core.ptucker import run_als
from ..core.result import TuckerResult
from ..core.row_update import update_factor_mode
from ..kernels.backends import BackendSpec
from ..metrics.errors import RECONSTRUCT_BLOCK_SIZE, error_and_loss_stream
from ..metrics.memory import MemoryTracker
from .store import ShardStore


class ShardedSweepExecutor:
    """Runs mode sweeps (and full fits) by streaming a shard store.

    Parameters
    ----------
    store:
        The shard store to stream from (see :class:`~repro.shards.store.ShardStore`).
    backend:
        Kernel execution strategy for each streamed block — any
        ``backend=`` spec accepted by
        :func:`~repro.kernels.backends.resolve_backend`.
    block_size:
        Entries materialised per streamed block.  Matching the in-core
        solver's ``block_size`` makes the sweep bitwise-equal to the
        in-core result; smaller values trade a little dispatch overhead
        for a smaller resident working set.
    """

    def __init__(
        self,
        store: ShardStore,
        backend: BackendSpec = "numpy",
        block_size: int = 200_000,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.store = store
        self.backend = backend
        self.block_size = int(block_size)

    # ------------------------------------------------------------------
    def update_factor_mode(
        self,
        factors: List[np.ndarray],
        core: np.ndarray,
        mode: int,
        regularization: float,
        memory: Optional[MemoryTracker] = None,
    ) -> np.ndarray:
        """Update ``A^(mode)`` in place from the store's streamed shards."""
        return update_factor_mode(
            self.store,
            factors,
            core,
            mode,
            regularization,
            block_size=self.block_size,
            memory=memory,
            backend=self.backend,
        )

    def sweep(
        self,
        factors: List[np.ndarray],
        core: np.ndarray,
        regularization: float,
        memory: Optional[MemoryTracker] = None,
    ) -> List[np.ndarray]:
        """One full ALS sweep: every mode updated once, in mode order."""
        for mode in range(self.store.order):
            self.update_factor_mode(factors, core, mode, regularization, memory)
        return factors

    def error_and_loss(
        self,
        core: np.ndarray,
        factors: List[np.ndarray],
        regularization: float,
    ) -> tuple:
        """Streamed reconstruction error (Eq. 5) and loss (Eq. 6).

        Residuals are evaluated over the store's canonical entry order (the
        mode-0 sorted sequence) in the same
        :data:`~repro.metrics.errors.RECONSTRUCT_BLOCK_SIZE` chunks the
        in-core metric uses, so on a tensor stored in that order the values
        are bitwise-identical to
        :func:`repro.metrics.errors.error_and_loss`.
        """
        return error_and_loss_stream(
            self.store.iter_mode_blocks(0, RECONSTRUCT_BLOCK_SIZE),
            core,
            factors,
            regularization,
            expected_entries=self.store.nnz,
        )

    # ------------------------------------------------------------------
    def fit(self, config: Optional[PTuckerConfig] = None) -> TuckerResult:
        """Fit P-Tucker (Algorithm 2) against the store, out of core.

        Runs :func:`repro.core.ptucker.run_als` — the same loop the in-core
        fit runs — with every entry access streamed from disk.  The
        executor's ``backend`` and ``block_size`` govern the kernels (and
        the checkpoint digest); every other hyper-parameter, including
        ``checkpoint_dir`` / ``resume``, comes from ``config``.

        Before the first sweep the store's files get a cheap sanity check
        (:meth:`~repro.shards.store.ShardStore.verify_files` — headers and
        sizes only, no data reads), so a truncated or half-written store
        fails up front with a path-naming
        :class:`~repro.exceptions.DataFormatError` instead of hours into
        the fit.
        """
        self.store.verify_files()
        return run_als(self, config if config is not None else PTuckerConfig())
