"""Supervised process-pool backend: chunked sweeps on the execution fabric.

``procpool`` runs the row-wise update on worker *processes* supervised by
:class:`repro.fabric.TaskSupervisor` instead of threads.  Each entry
block is split at segment boundaries — the same
:func:`~repro.kernels.backends.threaded.chunk_boundaries` geometry as the
``threaded`` backend, in a whole number of waves once there are more
chunks than workers — and the chunks are dispatched as fabric tasks.

What travels, per sweep and per chunk:

* **Setup** (one ``SETUP`` frame per worker per sweep, compacted in the
  replay log so long fits stay bounded): the core, λ, the updated mode,
  the parent plan's precontraction order with the whole factors of
  exactly those modes (small by construction: a mode is precontracted
  only when it has no more rows than the sweep has entries), and the
  sweep's expected entries, which decide whether the plan groups.  Every other
  factor — the updated mode's and every batched mode's — travels as an
  empty ``(0, J_k)`` placeholder.
* **Task** (one ``TASK`` frame per chunk): the chunk's index rows,
  values, segment starts and local solve range, plus, for every batched
  mode ``k``, the factor rows its entries index
  (``factors[k][chunk_indices[:, k]]``), gathered in the parent.  A
  frame therefore scales with the chunk's entries, not with ``I_k``.

A worker contracts δ from those rows *and solves its rows* with
:func:`~repro.kernels.solve.solve_segments` (Algorithm 3's fully parallel
row update): a row of ``k < J`` entries in its ``k × k`` dual form at
``O(k²J + k³)``, a longer one through its normal equations.  It returns J
floats per complete row; only a row that a block boundary leaves partial
comes back as ``(B, c)`` for the driver to finish.  The worker's plan
takes the parent's precontraction order and expected entries as given
(the order fixes the table's summation order, and both fix whether δ is
grouped by table row) and reads the given rows in place of its own
gather, so each row is bitwise identical to the serial reference
whatever the chunking, worker count, or mid-sweep worker deaths.

The bitwise contract holds at equal BLAS thread counts.  Workers start
with ``cpu_count // n_workers`` BLAS threads unless the caller set the
thread variables, and a long row's Gram GEMM can sum in an order that
depends on the thread count, so the parent and its workers agree to the
last bit when both run the same count; CI pins one thread.

Measured on a 2-vCPU Xeon host (2 workers, one BLAS thread each), a
whole-mode update of a uniform order-3 tensor of 200 000³ with 100 000
entries at J = 16 (no mode precontracted, every row shorter than J)
takes 0.10–0.13 s on ``numpy``, 0.14–0.18 s on ``threaded`` and
0.14–0.18 s on ``procpool``.  Before short rows were solved in the
dual, the J×J reduction and solve were most of that update and
``procpool`` won by splitting them (0.44–0.52 s against 0.58–0.77 s on
``threaded`` and 0.65–0.76 s on ``numpy``); now the contraction dominates and shipping each
chunk's entries and factor rows costs more than the second core saves.
Where modes are small enough to precontract, the tiled contraction's
GEMMs release the GIL and ``threaded`` pays no pickling, so ``threaded``
is the faster parallel backend there: a whole-mode update of 400 000
entries over 300³ at J = 8 takes 0.04 s on ``threaded`` against
0.07 s on ``procpool``, and on the ``BENCH_kernels.json`` cells that
dispatch (100k and 200k entries, order 3, J = 10) ``procpool`` runs at
0.53–0.69× of ``numpy`` and ``threaded`` at 0.68–1.24×.

What ``procpool`` adds is isolation: the fabric's whole failure model.
A worker SIGKILLed or hung mid-sweep is respawned, the replay log
restores its setup, and its chunk is re-dispatched with no effect on the
output.  A chunk that keeps failing past the supervisor's re-dispatch
budget surfaces as
:class:`~repro.exceptions.WorkerFailureError` naming the mode and the
unfinished rows; an exception raised inside a worker propagates as it
is.  With one effective worker the backend degrades to the serial
reference path and spawns nothing, so single-CPU hosts (and CI) see
neither process overhead nor a regression.

Worker count resolution: constructor override, else the
``REPRO_PROC_WORKERS`` environment variable, else the CPU count.
"""

from __future__ import annotations

import atexit
import threading
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from ...exceptions import WorkerFailureError
from ..contraction import make_delta_contractor
from ..solve import solve_segments
from .base import KernelBackend, RowSolverKernel
from .threaded import (
    chunk_boundaries,
    chunk_spans,
    concatenate_chunk_results,
    env_workers,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...fabric import TaskSupervisor

# repro.fabric is imported lazily (first use, never at module import):
# this module loads while the kernels package initialises, and the fabric
# pulls in repro.metrics, whose error helpers need the fully initialised
# tensor layer — an import cycle if resolved eagerly here.

#: Environment override for the worker-process count.
PROC_WORKERS_ENV = "REPRO_PROC_WORKERS"

#: Chunks smaller than this are not worth pickling across a process pipe
#: (4x the threaded backend's dispatch floor).
MIN_CHUNK_ENTRIES = 32_768

#: Chunks per worker: fewer than ``threaded`` uses — each dispatch ships
#: bytes, so balance is bought more cheaply by hedging than by fragments.
CHUNKS_PER_WORKER = 2

#: Generous per-chunk deadline; a healthy chunk finishes in milliseconds,
#: so only a truly wedged worker ever hits it.
TASK_DEADLINE_S = 300.0

_SUPERVISOR: Optional["TaskSupervisor"] = None
_SUPERVISOR_WORKERS = 0
_SUPERVISOR_LOCK = threading.Lock()


def default_workers() -> int:
    """Worker count: ``REPRO_PROC_WORKERS`` env override, else CPU count."""
    return env_workers(PROC_WORKERS_ENV)


def shared_supervisor(n_workers: int) -> "TaskSupervisor":
    """The process-global fabric supervisor, regrown on bigger requests.

    Worker processes are expensive to spawn (interpreter + numpy import),
    so one supervised pool is kept for the process lifetime and shared by
    every ``procpool`` backend instance, exactly like the ``threaded``
    backend's thread pool.  A superseded smaller pool is shut down —
    unlike threads, orphan processes hold real memory.
    """
    from ...fabric import TaskSupervisor

    global _SUPERVISOR, _SUPERVISOR_WORKERS
    with _SUPERVISOR_LOCK:
        if _SUPERVISOR is None or _SUPERVISOR_WORKERS < n_workers:
            if _SUPERVISOR is not None:
                _SUPERVISOR.shutdown()
            _SUPERVISOR = TaskSupervisor(
                n_workers,
                task_deadline=TASK_DEADLINE_S,
                name="procpool",
            )
            _SUPERVISOR_WORKERS = n_workers
        return _SUPERVISOR


@atexit.register
def _shutdown_shared_supervisor() -> None:  # pragma: no cover - atexit
    global _SUPERVISOR
    with _SUPERVISOR_LOCK:
        if _SUPERVISOR is not None:
            _SUPERVISOR.shutdown()
            _SUPERVISOR = None


# ----------------------------------------------------------------------
# Worker-side callables (referenced by dotted path in fabric frames)
# ----------------------------------------------------------------------

def _setup_sweep(context, payload):
    """Build this sweep's row solver from the broadcast setup, in-worker.

    Supersedes any previous sweep: older ``ne:`` setups and cache entries
    are dropped so worker memory stays bounded over long fits.  The
    contraction plan takes the parent's precontraction order and
    expected entries as given, which pins its tables and its grouping to
    the parent's — the precondition for chunk results being bitwise
    equal to the parent's serial reference.
    """
    for stale in [k for k in context.setups if str(k).startswith("ne:")]:
        del context.setups[stale]
    context.cache.clear()
    factors, core, mode, pre, expected_entries, regularization = payload
    # The parent's order and sweep size: the same tables, grouped alike.
    contractor = make_delta_contractor(
        factors, core, mode, expected_entries, pre=pre
    )

    def solver(indices_block, values_block, starts, lo, hi, rows):
        return solve_segments(
            contractor(indices_block, rows), values_block, starts,
            regularization, lo, hi,
        )

    return solver


def _solve_chunk(context, payload):
    """Run one segment-aligned chunk through the sweep's row solver.

    The payload carries the chunk's entries and, per batched mode, the
    factor rows those entries index.  Returns ``(rows, B, c)``: factor
    rows for the chunk's local solve range ``[lo, hi)`` and normal
    equations for its other segments.
    """
    setup_key, indices_block, values_block, starts, lo, hi, rows = payload
    solver = context.setups[setup_key]
    return solver(indices_block, values_block, starts, lo, hi, rows)


# ----------------------------------------------------------------------

class ProcpoolBackend(KernelBackend):
    """Kernel backend dispatching segment-aligned chunks to fabric workers."""

    name = "procpool"

    #: Class-wide sweep counter: setup keys must be unique across instances
    #: because they all share one supervisor (and its one replay log).
    _sweep_counter = 0
    _sweep_lock = threading.Lock()

    def __init__(
        self,
        n_workers: Optional[int] = None,
        min_chunk_entries: int = MIN_CHUNK_ENTRIES,
        supervisor: Optional["TaskSupervisor"] = None,
    ) -> None:
        self._n_workers = None if n_workers is None else max(1, int(n_workers))
        self.min_chunk_entries = int(min_chunk_entries)
        self._supervisor = supervisor

    @property
    def n_workers(self) -> int:
        """Explicit worker count, else the current environment default."""
        if self._n_workers is not None:
            return self._n_workers
        return default_workers()

    def _get_supervisor(self) -> "TaskSupervisor":
        if self._supervisor is not None:
            return self._supervisor
        return shared_supervisor(self.n_workers)

    def _n_chunks(self, n_entries: int, n_segments: int) -> int:
        """Chunks for one block: a whole number of waves past one wave.

        A remainder chunk would leave all but one worker idle while it
        runs, so beyond ``n_workers`` the count rounds down to a multiple.
        """
        n_workers = self.n_workers
        if n_workers <= 1:
            return 1
        by_size = n_entries // self.min_chunk_entries
        cap = max(n_workers * CHUNKS_PER_WORKER, 1)
        n_chunks = max(1, min(by_size, cap, n_segments))
        if n_chunks > n_workers:
            n_chunks -= n_chunks % n_workers
        return n_chunks

    # ------------------------------------------------------------------
    def make_row_solver(
        self,
        factors: Sequence[np.ndarray],
        core: np.ndarray,
        mode: int,
        regularization: float,
        expected_entries: int,
    ) -> RowSolverKernel:
        if self.n_workers <= 1:
            # Nothing to overlap: serve the serial reference directly and
            # never spawn a process (the single-CPU / CI degradation).
            return super().make_row_solver(
                factors, core, mode, regularization, expected_entries
            )
        from ...fabric import FabricError, Task

        with ProcpoolBackend._sweep_lock:
            ProcpoolBackend._sweep_counter += 1
            setup_key = f"ne:{ProcpoolBackend._sweep_counter}"
        supervisor = self._get_supervisor()
        factors = [np.ascontiguousarray(f) for f in factors]
        # The parent's plan serves blocks below the dispatch floor and
        # fixes the precontraction order every worker's plan must follow.
        contractor = make_delta_contractor(factors, core, mode, expected_entries)
        pre = contractor.precontraction_order
        batched = [k for k in range(len(factors)) if k != mode and k not in pre]
        # Precontracted modes ship whole (their tables are built from
        # every row); every other mode is an empty placeholder of the
        # right rank, because tasks carry the rows their entries index.
        shipped = [
            factor if k in pre
            else np.empty((0, factor.shape[1]), dtype=np.float64)
            for k, factor in enumerate(factors)
        ]
        supervisor.broadcast_setup(
            setup_key,
            "repro.kernels.backends.procpool:_setup_sweep",
            (shipped, np.asarray(core), mode, pre, expected_entries, regularization),
            replace_prefix="ne:",
        )

        def solver(
            indices_block: np.ndarray,
            values_block: np.ndarray,
            starts: np.ndarray,
            lo: int,
            hi: int,
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            n_entries = indices_block.shape[0]
            n_segments = starts.shape[0]
            n_chunks = self._n_chunks(n_entries, n_segments)
            if n_chunks <= 1:
                return solve_segments(
                    contractor(indices_block), values_block, starts,
                    regularization, lo, hi,
                )

            edges = chunk_boundaries(starts, n_entries, n_chunks)
            tasks = []
            for chunk, span in enumerate(
                chunk_spans(starts, n_entries, edges, lo, hi)
            ):
                chunk_indices = indices_block[span.entry_lo : span.entry_hi]
                rows = [
                    factors[k][chunk_indices[:, k]] if k in batched else None
                    for k in range(len(factors))
                ]
                tasks.append(
                    Task(
                        key=chunk,
                        fn="repro.kernels.backends.procpool:_solve_chunk",
                        payload=(
                            setup_key,
                            chunk_indices,
                            values_block[span.entry_lo : span.entry_hi],
                            span.starts,
                            span.lo,
                            span.hi,
                            rows,
                        ),
                    )
                )
            try:
                parts = supervisor.run_tasks(tasks)
            except FabricError as exc:
                rows = _unfinished_rows(exc, edges, indices_block, starts, mode)
                raise WorkerFailureError(
                    f"mode-{mode} row update failed: worker processes died, "
                    f"hung or timed out until the re-dispatch budget ran "
                    f"out; {rows.shape[0]} rows never finished (first few: "
                    f"{rows[:8].tolist()}); supervisor said: {exc}"
                ) from exc
            return concatenate_chunk_results(parts)

        return solver


def _unfinished_rows(exc, edges, indices_block, starts, mode) -> np.ndarray:
    """Row indices of the chunks a fabric failure left unfinished.

    Chunk ``k`` holds segments ``edges[k]:edges[k + 1]``.  The supervisor
    keys every task as ``(run, chunk)``; a failure that names no task (a
    setup that never applied, the pool's circuit breaker) reports every
    chunk.
    """
    keys = getattr(exc, "keys", None)
    if keys is None:
        key = getattr(exc, "key", None)
        keys = [] if key is None else [key]
    chunks = sorted(
        {key[1] for key in keys if isinstance(key, tuple) and len(key) == 2}
    ) or range(edges.shape[0] - 1)
    first_entries = np.concatenate(
        [starts[edges[chunk] : edges[chunk + 1]] for chunk in chunks]
    )
    return np.asarray(indices_block[first_entries, mode], dtype=np.int64)
