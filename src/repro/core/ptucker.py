"""P-Tucker: row-wise ALS Tucker factorization for sparse tensors (Algorithm 2).

This is the paper's primary contribution.  Each ALS sweep updates every factor
matrix mode by mode with the row-wise rule of Eqs. (9)-(12), measures the
reconstruction error over the observed entries only (Eq. 5), and stops when
the error converges or the iteration cap is hit.  A final orthogonalisation
(CholeskyQR2, Householder QR where that cannot be trusted) makes the factors
orthonormal and folds the R factors into the core (Eqs. 7-8).

The memory-optimised default keeps only the per-row workspace (δ, B, c and the
inverse) as intermediate data — O(T·J²), Theorem 4 — which is what lets it
scale where the HOOI-style baselines run out of memory.

:func:`run_als` is that loop, written once: every fit — in-core, sharded,
streamed, and the Cache and Approx variants through the hook methods of
:class:`PTucker` — runs it, so all of them share the same initialisation,
checkpoint/resume and stop rule.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ShapeError
from ..metrics.errors import error_and_loss
from ..metrics.memory import MemoryTracker
from ..metrics.timing import IterationTimer
from ..tensor.coo import SparseTensor
from ..tensor.validation import check_ranks
from .config import PTuckerConfig
from .core_tensor import initialize_core, initialize_factors, orthogonalize
from .result import TuckerResult
from .row_update import InMemorySource, update_factor_mode
from .trace import ConvergenceTrace, IterationRecord


class PTucker:
    """Memory-optimised P-Tucker solver (the paper's default variant).

    Parameters
    ----------
    config:
        Hyper-parameters; see :class:`~repro.core.config.PTuckerConfig`.

    Examples
    --------
    >>> from repro.data import planted_tucker_tensor
    >>> from repro.core import PTucker, PTuckerConfig
    >>> planted = planted_tucker_tensor((30, 30, 30), (3, 3, 3), 2000, seed=1)
    >>> result = PTucker(PTuckerConfig(ranks=(3, 3, 3), max_iterations=5)).fit(
    ...     planted.tensor)
    >>> result.trace.errors[0] >= result.trace.errors[-1]
    True
    """

    name = "P-Tucker"

    def __init__(self, config: Optional[PTuckerConfig] = None) -> None:
        self.config = config if config is not None else PTuckerConfig()

    # ------------------------------------------------------------------
    # Hooks overridden by the Cache and Approx variants
    # ------------------------------------------------------------------
    def _check_supported(self, streaming: bool = False) -> None:
        """Refuse a configuration this solver cannot honour, before any work.

        Every fit path runs this one check.  Out-of-core fits (``shard_dir``
        or :meth:`fit_streaming`) support the base solver only: each
        variant keeps per-entry state indexed by the in-RAM entry order.
        """
        if (streaming or self.config.shard_dir) and type(self) is not PTucker:
            what = "streaming ingest" if streaming else "shard_dir streaming"
            raise ShapeError(
                f"{what} supports the base P-Tucker solver only, not "
                f"{type(self).__name__} (its per-entry state indexes the "
                "in-RAM entry order)"
            )

    def _variant_parameters(self) -> Optional[Dict[str, Any]]:
        """Trajectory-critical variant settings pinned in the checkpoint digest."""
        return None

    def _prepare(
        self,
        tensor: Optional[SparseTensor],
        factors: List[np.ndarray],
        core: np.ndarray,
        memory: Optional[MemoryTracker],
    ) -> None:
        """Per-run initialisation hook (the cache variant builds Pres here)."""

    def _delta_provider(self, tensor: SparseTensor, factors, core, mode: int):
        """Return a δ provider for :func:`update_factor_mode`, or None."""
        return None

    def _after_mode_update(
        self,
        tensor: Optional[SparseTensor],
        factors: List[np.ndarray],
        core: np.ndarray,
        mode: int,
    ) -> None:
        """Hook called after one factor matrix is updated (cache refresh)."""

    def _after_iteration(
        self,
        tensor: Optional[SparseTensor],
        factors: List[np.ndarray],
        core: np.ndarray,
        iteration: int,
    ) -> np.ndarray:
        """Hook called at the end of an iteration; may return a modified core.

        P-Tucker-Approx truncates noisy core entries here (Algorithm 2
        lines 5-6).
        """
        return core

    # ------------------------------------------------------------------
    def fit_streaming(self, source) -> TuckerResult:
        """Fit from a chunked entry source without materialising the tensor.

        ``source`` is any reader implementing the entry-chunk protocol of
        :mod:`repro.tensor.io` (text file, ``.npz``, shard store, in-RAM
        tensor).  The entries are spilled into a shard store with the
        external-memory build (reading at most ``config.ingest_chunk_nnz``
        entries at a time — see
        :meth:`repro.shards.ShardStore.build_streaming`) and the fit runs
        out of core through
        :class:`~repro.shards.executor.ShardedSweepExecutor`, so peak
        memory stays bounded by the chunk/block sizes from raw file to
        fitted model.  The store lands at ``config.shard_dir`` when set,
        otherwise in a temporary directory that is removed after the fit.
        The shape is known only once the source has been read, so invalid
        ranks are refused after the store is built, and a store at
        ``config.shard_dir`` stays behind.
        """
        config = self.config
        self._check_supported(streaming=True)
        from ..shards import ShardedSweepExecutor, ShardStore

        def fit_at(directory: str) -> TuckerResult:
            store = ShardStore.build_streaming(
                source,
                directory,
                shard_nnz=config.shard_nnz,
                chunk_nnz=config.ingest_chunk_nnz,
            )
            executor = ShardedSweepExecutor(
                store, backend=config.backend, block_size=config.block_size
            )
            return executor.fit(config)

        if config.shard_dir:
            return fit_at(config.shard_dir)
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-ingest-") as tmp_dir:
            return fit_at(tmp_dir)

    def fit(self, tensor: SparseTensor) -> TuckerResult:
        """Factorize ``tensor`` and return the fitted model.

        With ``config.shard_dir`` set, the sweeps run out of core: the
        tensor is sharded to (or reused from) that directory and streamed
        through :class:`~repro.shards.executor.ShardedSweepExecutor`,
        whose updates are bitwise-equal to the in-core ones.  Invalid ranks
        are refused before the store is built, so they leave no store behind.
        """
        config = self.config
        self._check_supported()
        if config.shard_dir:
            from ..shards import ShardedSweepExecutor, ShardStore

            check_ranks(config.resolve_ranks(tensor.order), tensor.shape)
            store = ShardStore.for_tensor(
                tensor,
                config.shard_dir,
                shard_nnz=config.shard_nnz,
            )
            executor = ShardedSweepExecutor(
                store, backend=config.backend, block_size=config.block_size
            )
            return executor.fit(config)
        return run_als(tensor, config, self)


def run_als(
    source, config: PTuckerConfig, hooks: Optional[PTucker] = None
) -> TuckerResult:
    """Algorithm 2: the one ALS loop every P-Tucker fit runs.

    ``source`` is either the in-RAM :class:`~repro.tensor.coo.SparseTensor`
    or a :class:`~repro.shards.executor.ShardedSweepExecutor` over a shard
    store.  The loop owns the whole sequence: seeded initialisation,
    checkpoint digest and resume, per-mode row updates, one residual pass
    per iteration (Eqs. 5-6), the stop rule, the checkpoint save and the
    final orthogonalisation (Eqs. 7-8,
    :func:`~repro.core.core_tensor.orthogonalize`).  It first checks the
    ranks against the shape: each must be positive and at most its mode's
    length.  ``hooks`` is the solver whose hook methods specialise it (the
    Cache and Approx variants); ``None`` means plain P-Tucker.

    An in-RAM tensor is updated through this module's
    :func:`update_factor_mode` and measured with
    :func:`~repro.metrics.errors.error_and_loss` over its original entry
    order; a store is reached only through the executor's
    ``update_factor_mode`` / ``error_and_loss`` methods, whose kernel
    ``backend`` and ``block_size`` then replace the config's.
    """
    hooks = hooks if hooks is not None else PTucker(config)
    if isinstance(source, SparseTensor):
        tensor, executor = source, None
        entries = InMemorySource.build(tensor)
        backend, block_size = config.backend, config.block_size
    else:
        tensor, executor = None, source
        entries = executor.store
        backend, block_size = executor.backend, executor.block_size
    ranks = check_ranks(config.resolve_ranks(entries.order), entries.shape)
    rng = np.random.default_rng(config.seed)
    factors = initialize_factors(entries.shape, ranks, rng)
    core = initialize_core(ranks, rng)

    memory = (
        MemoryTracker(budget_bytes=config.memory_budget_bytes)
        if config.track_memory
        else None
    )
    trace = ConvergenceTrace()
    timer = IterationTimer()

    checkpoints = None
    digest = ""
    start_iteration = 1
    if config.checkpoint_dir:
        from ..resilience.checkpoint import (
            CheckpointManager,
            fit_state_digest,
            resume_state,
        )
        from ..shards.store import _tensor_digest

        checkpoints = CheckpointManager(
            config.checkpoint_dir,
            every=config.checkpoint_every,
            diff=config.checkpoint_diff,
        )
        digest = fit_state_digest(
            shape=entries.shape,
            nnz=entries.nnz,
            ranks=ranks,
            regularization=config.regularization,
            seed=config.seed,
            orthogonalize=config.orthogonalize,
            backend=backend,
            block_size=block_size,
            entries_sha256=(
                _tensor_digest(tensor)
                if executor is None
                else entries.fingerprint.get("entries_sha256")
            ),
            variant=hooks._variant_parameters(),
        )
        resumed = resume_state(checkpoints, config.resume, digest)
        if resumed is not None:
            # The RNG only seeds the *initial* factors, which the checkpoint
            # supersedes, so re-entering the deterministic loop at
            # iteration+1 continues bitwise-identically.
            factors = [
                np.ascontiguousarray(f, dtype=np.float64) for f in resumed.factors
            ]
            core = np.ascontiguousarray(resumed.core, dtype=np.float64)
            trace = resumed.trace
            start_iteration = resumed.iteration + 1

    hooks._prepare(tensor, factors, core, memory)

    for iteration in range(start_iteration, config.max_iterations + 1):
        if trace.converged:
            break  # a resumed checkpoint already recorded convergence
        with timer.iteration():
            for mode in range(entries.order):
                if executor is None:
                    update_factor_mode(
                        entries,
                        factors,
                        core,
                        mode,
                        config.regularization,
                        block_size=block_size,
                        memory=memory,
                        delta_provider=hooks._delta_provider(
                            tensor, factors, core, mode
                        ),
                        backend=backend,
                    )
                else:
                    executor.update_factor_mode(
                        factors, core, mode, config.regularization, memory
                    )
                hooks._after_mode_update(tensor, factors, core, mode)

            # One residual pass yields both metrics (Eqs. 5 and 6).
            if executor is None:
                error, loss = error_and_loss(
                    tensor, core, factors, config.regularization
                )
            else:
                error, loss = executor.error_and_loss(
                    core, factors, config.regularization
                )
            core = hooks._after_iteration(tensor, factors, core, iteration)

        stop = trace.record_iteration(
            IterationRecord(
                iteration=iteration,
                reconstruction_error=error,
                loss=loss,
                seconds=timer.seconds[-1],
                core_nnz=int(np.count_nonzero(core)),
            ),
            config,
        )
        # Checkpoint after the stopping decision so a resumed fit knows
        # whether the trajectory already finished; the final iteration is
        # always saved regardless of the cadence.
        if checkpoints is not None and checkpoints.due(iteration, final=stop):
            checkpoints.save(iteration, factors, core, trace, digest)
        if stop:
            break

    if config.orthogonalize:
        factors, core = orthogonalize(factors, core)

    return TuckerResult(
        core=core,
        factors=list(factors),
        trace=trace,
        memory=memory,
        algorithm=hooks.name,
    )


def fit_ptucker(
    tensor: SparseTensor,
    ranks: Sequence[int],
    regularization: float = 0.01,
    max_iterations: int = 20,
    seed: Optional[int] = 0,
    **kwargs,
) -> TuckerResult:
    """Convenience wrapper: fit P-Tucker with keyword hyper-parameters."""
    config = PTuckerConfig(
        ranks=tuple(int(r) for r in ranks),
        regularization=regularization,
        max_iterations=max_iterations,
        seed=seed,
        **kwargs,
    )
    return PTucker(config).fit(tensor)
