"""Configuration objects for the P-Tucker solvers."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from ..exceptions import ShapeError


@dataclass(frozen=True)
class PTuckerConfig:
    """Hyper-parameters of a P-Tucker run.

    Attributes
    ----------
    ranks:
        Tucker ranks ``(J_1, ..., J_N)``.  A single integer is broadcast to
        every mode by the solver.
    regularization:
        L2 penalty λ of Eq. (6).  The paper's default is 0.01.
    max_iterations:
        Upper bound on ALS iterations (paper default: 20).
    tolerance:
        Relative-change threshold on the reconstruction error used to declare
        convergence.
    truncation_rate:
        Fraction p of core entries removed per iteration by
        P-Tucker-Approx (paper default: 0.2).  Ignored by the other variants.
    orthogonalize:
        Whether to run the final orthogonalisation + core update
        (Algorithm 2 lines 8-11): CholeskyQR2, with Householder QR where
        that cannot be trusted.
    seed:
        Seed for the random initialisation of factors and core.
    min_iterations:
        Run at least this many iterations before convergence can trigger.
    track_memory:
        Record intermediate-data allocations through a
        :class:`~repro.metrics.memory.MemoryTracker`.
    memory_budget_bytes:
        Optional intermediate-data budget; exceeding it raises
        :class:`~repro.exceptions.OutOfMemoryError` (used to reproduce the
        paper's O.O.M. results).
    backend:
        Kernel execution strategy for the row update: ``"numpy"`` (default,
        serial), ``"threaded"`` (shared-memory threads) or ``"procpool"``
        (supervised worker processes); all three give bitwise-equal fits.
        Any other name raises :class:`~repro.exceptions.ShapeError`.  See
        :mod:`repro.kernels.backends`.
    shard_dir:
        When set, :meth:`~repro.core.ptucker.PTucker.fit` runs its sweeps
        out of core: the tensor is converted into (or reused from) a
        mode-sorted shard store at this directory and every entry access
        streams from memory-mapped shards (see :mod:`repro.shards`).
        Every mode update is bitwise-equal to the in-core one; the
        convergence metric is accumulated over the store's canonical
        (mode-0 sorted) entry order, so with a differently-ordered tensor
        and a nonzero ``tolerance`` the stopping decision can in
        principle flip on a last-ulp tie (with ``tolerance=0`` the whole
        fit is bitwise-equal).  Only the base P-Tucker variant supports
        it.
    shard_nnz:
        Shard capacity in entries used when ``shard_dir`` triggers a store
        build (default 1,000,000 — about 32 MB per order-3 shard).
    ingest_chunk_nnz:
        Entries read per chunk when a fit streams its input through the
        external-memory shard build
        (:meth:`~repro.core.ptucker.PTucker.fit_streaming`, CLI
        ``fit --from-text`` / ``ingest``).  Bounds the ingest pass's peak
        memory; the built store is bitwise-identical for every value.
    index_dtype:
        Accepts only ``"auto"`` (anything else raises ``ShapeError``):
        every index column, in RAM and on disk, is held in the narrowest
        dtype its mode dimension admits (see :mod:`repro.columns`).
    checkpoint_dir:
        When set, the fit writes a versioned crash-safe checkpoint
        (factors + core + convergence trace, each file checksummed, the
        manifest written last) under this directory after eligible
        iterations — see :mod:`repro.resilience.checkpoint`.  The final
        iteration is always checkpointed regardless of
        ``checkpoint_every``.
    checkpoint_every:
        Checkpoint cadence: save every N-th iteration (default 1).
    checkpoint_diff:
        Store checkpoints after the first of a run as low-rank R@C row
        diffs against the previous save (see
        :mod:`repro.updates.lowrank`); loading resolves the chain to
        bitwise-equal full factors, so ``resume`` works unchanged.  A
        sweep rewrites every row with observed entries, so a diff leaves
        out only the rows without any.
    resume:
        Continue from the newest valid checkpoint in ``checkpoint_dir``
        instead of starting fresh.  The resumed trajectory is
        bitwise-identical to an uninterrupted fit; a checkpoint written
        under different data or trajectory-critical hyper-parameters
        raises :class:`~repro.exceptions.DataFormatError` instead of
        silently continuing a different fit.  With an empty checkpoint
        directory the fit simply starts from scratch.
    """

    ranks: Tuple[int, ...] = (10,)
    regularization: float = 0.01
    max_iterations: int = 20
    tolerance: float = 1e-4
    truncation_rate: float = 0.2
    orthogonalize: bool = True
    seed: Optional[int] = 0
    min_iterations: int = 1
    track_memory: bool = True
    memory_budget_bytes: Optional[int] = None
    block_size: int = 200_000
    backend: str = "numpy"
    shard_dir: Optional[str] = None
    shard_nnz: int = 1_000_000
    ingest_chunk_nnz: int = 500_000
    # Held only for benchmarks/e2e/workloads.py:175, which passes it to
    # ShardStore.for_tensor; delete it with that line.
    index_dtype: str = "auto"
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1
    checkpoint_diff: bool = False
    resume: bool = False

    def __post_init__(self) -> None:
        if self.regularization < 0:
            raise ShapeError("regularization must be non-negative")
        if self.max_iterations < 1:
            raise ShapeError("max_iterations must be at least 1")
        if self.min_iterations < 1 or self.min_iterations > self.max_iterations:
            raise ShapeError("min_iterations must be in [1, max_iterations]")
        if self.tolerance < 0:
            raise ShapeError("tolerance must be non-negative")
        if not 0.0 < self.truncation_rate < 1.0:
            raise ShapeError("truncation_rate must be in (0, 1)")
        if self.block_size < 1:
            raise ShapeError("block_size must be positive")
        if self.shard_nnz < 1:
            raise ShapeError("shard_nnz must be positive")
        if self.ingest_chunk_nnz < 1:
            raise ShapeError("ingest_chunk_nnz must be positive")
        if self.checkpoint_every < 1:
            raise ShapeError("checkpoint_every must be at least 1")
        if self.resume and not self.checkpoint_dir:
            raise ShapeError("resume=True requires checkpoint_dir")
        if self.checkpoint_diff and not self.checkpoint_dir:
            raise ShapeError("checkpoint_diff=True requires checkpoint_dir")
        if self.index_dtype != "auto":
            raise ShapeError(
                f"unknown index_dtype {self.index_dtype!r}; indices are "
                "always stored in narrow columns ('auto')"
            )
        from ..kernels.backends import get_backend

        try:
            get_backend(self.backend)
        except KeyError as exc:
            raise ShapeError(exc.args[0]) from None

    def resolve_ranks(self, order: int) -> Tuple[int, ...]:
        """Broadcast a single rank to every mode and validate the count."""
        ranks = tuple(int(r) for r in self.ranks)
        if len(ranks) == 1:
            ranks = ranks * order
        if len(ranks) != order:
            raise ShapeError(
                f"got {len(ranks)} ranks for an order-{order} tensor; provide one "
                "rank or one per mode"
            )
        return ranks

    def with_updates(self, **changes) -> "PTuckerConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **changes)


DEFAULT_CONFIG = PTuckerConfig()
