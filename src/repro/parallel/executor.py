"""Fabric-supervised parallel row updates across worker processes.

The default P-Tucker path vectorises each mode update globally, which is the
fastest strategy for NumPy.  For completeness — and to demonstrate that the
row independence property of Section III-B really does permit parallel
execution — this module partitions the rows of one mode across worker
processes, updates each partition independently with the same contraction
kernel, and merges the results.  Because rows are independent, the merged
factor matrix is identical (up to floating-point associativity) to the
serial result; a test asserts this.

Execution runs on the supervised fabric (:mod:`repro.fabric`): each row
partition becomes one fabric task, so worker death (SIGKILL, OOM), hangs
(missed heartbeats) and wedged tasks (deadline overrun) are detected and
recovered by re-dispatching *only the unfinished partitions*, after an
exponential backoff with decorrelated jitter
(:class:`repro.resilience.retry.BackoffPolicy`).  Row independence makes
the re-dispatch — and the fabric's straggler hedging — invisible in the
output.  A partition that keeps failing surfaces as
:class:`~repro.exceptions.WorkerFailureError` naming the mode and rows;
an exception *raised* by a worker (a real bug, not a death) propagates
immediately, since retrying deterministic errors would only repeat them.

Worker inputs are presliced in the parent: the sorted
:class:`~repro.core.row_update.ModeContext` already groups each row's entries
into one contiguous segment, so a worker's entries are gathered with an
O(assigned entries) segment lookup instead of an ``np.isin`` scan over all
nnz entries per worker, and each worker receives only its own slice of the
entry arrays.  Callers driving repeated sweeps pass a prebuilt ``context``
(the sort is O(nnz log nnz), pointless to redo per iteration), and a
``backend`` name selects the kernel execution strategy *inside* each worker
(see :mod:`repro.kernels.backends`; names travel over pickle, backend
objects need not).  A ``source=`` shard store
(:class:`~repro.shards.store.ShardStore`) replaces the in-RAM sorted arrays
entirely: worker slices are gathered straight from the memory-mapped shards.
"""

from __future__ import annotations

import logging
import os
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import WorkerFailureError
from ..fabric import FabricError, Task, TaskSupervisor
from ..kernels import (
    concatenated_segment_starts,
    resolve_backend,
    segment_positions,
)
from ..tensor.coo import SparseTensor
from ..core.row_update import ModeContext, build_mode_context
from .partition import partition_rows

logger = logging.getLogger(__name__)

#: Times a row subset is re-dispatched after worker deaths/hangs before the
#: update gives up with WorkerFailureError.
DEFAULT_MAX_RETRIES = 2

#: Fault-injection hook (tests only): when this environment variable names
#: a path, the first worker task to run creates it exclusively and kills
#: its own process with ``os._exit`` — exactly the abrupt death (no
#: exception, no cleanup) a SIGKILL or OOM-kill produces.  Because the
#: path then exists, every later attempt proceeds normally, giving the
#: chaos tests a deterministic die-once worker.  Set to
#: :data:`INJECT_DEATH_ALWAYS` instead, it kills every task attempt, so no
#: re-dispatch or hedged twin can finish the work.
INJECT_WORKER_DEATH_ENV = "REPRO_INJECT_WORKER_DEATH"
INJECT_DEATH_ALWAYS = "always"


def _maybe_inject_worker_death() -> None:
    sentinel = os.environ.get(INJECT_WORKER_DEATH_ENV, "")
    if not sentinel:
        return
    if sentinel != INJECT_DEATH_ALWAYS:
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return  # already died once; behave normally from here on
        os.close(fd)
    os._exit(1)


def _update_row_subset(
    local_indices: np.ndarray,
    local_values: np.ndarray,
    segment_starts: np.ndarray,
    factors: List[np.ndarray],
    core: np.ndarray,
    mode: int,
    rows: np.ndarray,
    regularization: float,
    backend: str = "numpy",
) -> Tuple[np.ndarray, np.ndarray]:
    """Worker: solve the rows of one partition from its presliced entries.

    ``local_indices``/``local_values`` hold only this worker's entries,
    ordered so each row of ``rows`` is one contiguous segment starting at
    ``segment_starts``.  Returns ``(rows, new_row_values)``.
    """
    _maybe_inject_worker_death()
    kernel_backend = resolve_backend(backend)
    ne_kernel = kernel_backend.make_normal_equations_kernel(
        factors, core, mode, local_indices.shape[0]
    )
    b_matrices, c_vectors = ne_kernel(local_indices, local_values, segment_starts)
    return rows, kernel_backend.solve_rows(b_matrices, c_vectors, regularization)


def _update_row_subset_from_source(
    source,
    entry_positions: np.ndarray,
    segment_starts: np.ndarray,
    factors: List[np.ndarray],
    core: np.ndarray,
    mode: int,
    rows: np.ndarray,
    regularization: float,
    backend: str = "numpy",
) -> Tuple[np.ndarray, np.ndarray]:
    """Worker: gather this partition's entries from the shard store itself.

    The parent ships only the (rows-sized) entry positions; the worker maps
    the store's shards and gathers its own slice, so the parent never holds
    any partition's index/value copies — that is the out-of-core point.
    """
    local_indices, local_values = source.gather_mode_entries(mode, entry_positions)
    return _update_row_subset(
        local_indices,
        local_values,
        segment_starts,
        factors,
        core,
        mode,
        rows,
        regularization,
        backend,
    )


def _task_update_rows(context, payload):
    """Fabric task adapter for :func:`_update_row_subset`."""
    return _update_row_subset(*payload)


def _task_update_rows_from_source(context, payload):
    """Fabric task adapter for :func:`_update_row_subset_from_source`."""
    return _update_row_subset_from_source(*payload)


def parallel_update_factor_mode(
    tensor: Optional[SparseTensor],
    factors: List[np.ndarray],
    core: np.ndarray,
    mode: int,
    regularization: float,
    n_workers: int = 2,
    scheduling: str = "dynamic",
    supervisor: Optional[TaskSupervisor] = None,
    context: Optional[ModeContext] = None,
    backend: str = "numpy",
    source=None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    timeout: Optional[float] = None,
) -> np.ndarray:
    """Update ``A^(mode)`` using supervised worker processes.

    Rows are partitioned by their |Ω_in| cost under the requested scheduling
    policy, each worker solves its rows independently from a presliced
    segment of the mode-sorted entries, and the updated rows are merged into
    the factor matrix in place.  ``context`` reuses a prebuilt
    :class:`~repro.core.row_update.ModeContext` across sweeps instead of
    re-sorting the entries on every invocation.

    ``source`` slices each worker's entries out of an on-disk shard store
    (:class:`~repro.shards.store.ShardStore`) instead of in-RAM sorted
    arrays: the parent ships only row partitions and entry positions, and
    each *worker* gathers its own slice from the memory-mapped shards, so
    no process ever materialises more than one partition's entries.
    ``tensor`` / ``context`` may then be ``None``.

    The dispatch survives worker death: the fabric supervisor detects a
    worker that exited (SIGKILL, OOM-kill, crash), went silent (missed
    heartbeats: SIGSTOP, a wedged C call) or overran the per-task
    ``timeout``, respawns its slot with backoff, and re-dispatches *only
    the row subsets that never finished* — and because rows are
    independent the recovered update is identical to an undisturbed run.
    After ``max_retries`` re-dispatches of the same subset the attempt
    stops with a :class:`~repro.exceptions.WorkerFailureError` naming the
    mode and the outstanding rows.  Exceptions *raised* by a worker (a
    real bug, not a death) propagate immediately — retrying deterministic
    errors would only repeat them.

    ``supervisor`` shares a caller-owned
    :class:`~repro.fabric.TaskSupervisor` (and its warm worker pool)
    across sweeps; by default each call runs a private supervisor so
    environment changes (worker counts, fault-injection hooks) always
    apply to freshly spawned workers.
    """
    if source is not None:
        row_ids, row_starts, row_counts = source.mode_segmentation(mode)
    else:
        if context is None:
            if tensor is None:
                raise ValueError(
                    "provide a tensor, a prebuilt context, or a source"
                )
            context = build_mode_context(tensor, mode)
        row_ids, row_starts = context.row_ids, context.row_starts
        row_counts = context.row_counts
    if row_ids.shape[0] == 0:
        return factors[mode]

    partition = partition_rows(row_counts.astype(np.float64), n_workers, scheduling)

    factors_payload = [np.asarray(f) for f in factors]
    core_payload = np.asarray(core)
    jobs: List[np.ndarray] = []
    tasks: List[Task] = []
    for worker in range(partition.n_threads):
        positions = partition.thread_items(worker)
        if not positions.size:
            continue
        counts = row_counts[positions]
        entry_positions = segment_positions(row_starts[positions], counts)
        starts = concatenated_segment_starts(counts)
        rows = row_ids[positions]
        job_id = len(jobs)
        jobs.append(rows)
        if source is not None:
            tasks.append(
                Task(
                    key=job_id,
                    fn="repro.parallel.executor:_task_update_rows_from_source",
                    payload=(
                        source, entry_positions, starts, factors_payload,
                        core_payload, mode, rows, regularization, backend,
                    ),
                )
            )
        else:
            tasks.append(
                Task(
                    key=job_id,
                    fn="repro.parallel.executor:_task_update_rows",
                    payload=(
                        context.sorted_indices[entry_positions],
                        context.sorted_values[entry_positions],
                        starts, factors_payload, core_payload, mode, rows,
                        regularization, backend,
                    ),
                )
            )

    own_supervisor = supervisor is None
    if own_supervisor:
        supervisor = TaskSupervisor(
            n_workers,
            task_deadline=timeout,
            max_task_retries=max_retries,
            name=f"parallel-mode{mode}",
        )
    try:
        try:
            results = supervisor.run_tasks(tasks, deadline=timeout)
        except FabricError as exc:
            outstanding = _outstanding_rows(exc, jobs)
            raise WorkerFailureError(
                f"mode-{mode} parallel update failed: worker processes "
                f"died, hung or timed out until the re-dispatch budget ran "
                f"out (max_retries={max_retries}); {outstanding.shape[0]} "
                f"rows never finished (first few: "
                f"{outstanding[:8].tolist()}); supervisor said: {exc}"
            ) from exc
    finally:
        if own_supervisor:
            supervisor.shutdown()
    for rows, new_values in results:
        factors[mode][rows] = new_values
    return factors[mode]


def _outstanding_rows(exc: FabricError, jobs: List[np.ndarray]) -> np.ndarray:
    """Rows of the partitions a fabric failure left unfinished."""
    keys = getattr(exc, "keys", None)
    if keys is None:
        key = getattr(exc, "key", None)
        keys = [key] if key is not None else []
    job_ids = sorted(
        {key[1] for key in keys if isinstance(key, tuple) and len(key) == 2}
    )
    if not job_ids:
        return np.concatenate(jobs)
    return np.concatenate([jobs[job_id] for job_id in job_ids])
