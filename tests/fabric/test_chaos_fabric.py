"""Chaos suite: the three worker failure modes, injected at seeded points.

Each test runs a real chunked sweep on the ``procpool`` backend with a
fault injected into the worker pool — SIGKILL (abrupt death), SIGSTOP
(hung: heartbeats stop, process lingers) or a wedge (heartbeats keep
flowing, the task never finishes) — at a task ordinal drawn from a seeded
RNG, and asserts the factor rows the workers solved, with the ``(B, c)``
stacks of the rows a block boundary leaves partial, are
**byte-identical** to an undisturbed run.  Row/segment independence is
what makes this possible: re-dispatching a lost chunk to another worker
replays the exact same IEEE operation sequence.  The contract holds at
equal BLAS thread counts (see :mod:`repro.kernels.backends.procpool`).

Marked ``chaos`` (excluded from tier-1): these tests SIGKILL/SIGSTOP
child processes and take seconds of wall clock on heartbeat timeouts.
"""

import numpy as np
import pytest

from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import build_mode_context
from repro.fabric import TaskSupervisor
from repro.fabric.worker import (
    INJECT_AT_ENV,
    INJECT_KILL_ENV,
    INJECT_STOP_ENV,
    INJECT_WEDGE_ENV,
)
from repro.kernels.backends import ProcpoolBackend, resolve_backend
from repro.metrics import Counters
from repro.resilience import BackoffPolicy

pytestmark = pytest.mark.chaos

FAST_BACKOFF = BackoffPolicy(base=0.01, cap=0.1, jitter="none")


@pytest.fixture()
def sweep(planted_small):
    """Inputs plus the undisturbed serial reference ``(rows, B, c)``.

    The solve range leaves the first and last rows partial, as a block
    boundary would, so both worker-solved rows and ``(B, c)`` stacks
    cross the pipe.
    """
    tensor = planted_small.tensor
    factors = initialize_factors(
        tensor.shape, (3, 3, 3), np.random.default_rng(0)
    )
    core = initialize_core((3, 3, 3), np.random.default_rng(1))
    context = build_mode_context(tensor, 0)
    block = (
        context.sorted_indices,
        context.sorted_values,
        context.row_starts,
        1,
        context.row_starts.shape[0] - 1,
    )
    solver = resolve_backend("numpy").make_row_solver(
        factors, core, 0, 0.1, block[0].shape[0]
    )
    return factors, core, block, solver(*block)


def _disturbed_run(sweep, counters, task_deadline=None, **supervisor_kwargs):
    """One procpool sweep on a freshly spawned (fault-primed) pool."""
    factors, core, block, expected = sweep
    supervisor = TaskSupervisor(
        2,
        task_deadline=task_deadline,
        backoff=FAST_BACKOFF,
        counters=counters,
        name="chaos",
        **supervisor_kwargs,
    )
    backend = ProcpoolBackend(
        n_workers=2, min_chunk_entries=8, supervisor=supervisor
    )
    try:
        solver = backend.make_row_solver(factors, core, 0, 0.1, block[0].shape[0])
        recovered = solver(*block)
    finally:
        supervisor.shutdown()
    assert recovered[0].shape[0] == block[4] - block[3]
    for ours, theirs in zip(recovered, expected):
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sigkill_mid_sweep_is_byte_invisible(
    sweep, tmp_path, monkeypatch, seed
):
    """A worker SIGKILLed at a seeded-random task ordinal changes nothing."""
    fire_at = int(np.random.default_rng(seed).integers(1, 3))
    monkeypatch.setenv(INJECT_KILL_ENV, str(tmp_path / "kill"))
    monkeypatch.setenv(INJECT_AT_ENV, str(fire_at))
    counters = Counters()
    _disturbed_run(sweep, counters)
    assert counters.get("fabric.workers_died") >= 1
    assert counters.get("fabric.redispatches") >= 1


@pytest.mark.parametrize("seed", [3, 4])
def test_sigstop_mid_sweep_is_byte_invisible(
    sweep, tmp_path, monkeypatch, seed
):
    """A SIGSTOPped worker is recovered — by the straggler hedge (an idle
    worker duplicates the stuck chunk) or, failing that, by the missed
    heartbeats — with byte-identical output either way."""
    fire_at = int(np.random.default_rng(seed).integers(1, 3))
    monkeypatch.setenv(INJECT_STOP_ENV, str(tmp_path / "stop"))
    monkeypatch.setenv(INJECT_AT_ENV, str(fire_at))
    counters = Counters()
    _disturbed_run(
        sweep, counters, heartbeat_interval=0.1, hedge_after=0.2
    )
    recovered = (
        counters.get("fabric.hedges") + counters.get("fabric.workers_hung")
    )
    assert recovered >= 1


def test_sigstop_without_hedging_uses_hung_detection(
    sweep, tmp_path, monkeypatch
):
    """With hedging off, only the heartbeat silence can catch a SIGSTOP."""
    monkeypatch.setenv(INJECT_STOP_ENV, str(tmp_path / "stop"))
    counters = Counters()
    _disturbed_run(
        sweep, counters, heartbeat_interval=0.1, hedge=False
    )
    assert counters.get("fabric.workers_hung") >= 1
    assert counters.get("fabric.redispatches") >= 1


def test_wedged_task_is_caught_by_the_deadline(sweep, tmp_path, monkeypatch):
    """A wedge heartbeats forever; only the per-task deadline catches it."""
    monkeypatch.setenv(INJECT_WEDGE_ENV, str(tmp_path / "wedge"))
    counters = Counters()
    _disturbed_run(
        sweep, counters, task_deadline=1.0, hedge=False,
        heartbeat_interval=0.1,
    )
    assert counters.get("fabric.deadline_kills") >= 1
    assert counters.get("fabric.redispatches") >= 1


@pytest.mark.parametrize("seed", [5, 6])
def test_sigkill_mid_mode_update_is_byte_invisible(
    planted_small, tmp_path, monkeypatch, seed
):
    """A worker SIGKILLed while solving rows of ``update_factor_mode``
    leaves the updated factors bitwise equal to an undisturbed run."""
    from repro.core.row_update import update_factor_mode

    tensor = planted_small.tensor
    factors = initialize_factors(
        tensor.shape, (3, 3, 3), np.random.default_rng(0)
    )
    core = initialize_core((3, 3, 3), np.random.default_rng(1))
    expected = [f.copy() for f in factors]
    for mode in range(3):
        update_factor_mode(tensor, expected, core, mode, 0.1, block_size=97)

    fire_at = int(np.random.default_rng(seed).integers(1, 6))
    monkeypatch.setenv(INJECT_KILL_ENV, str(tmp_path / "kill"))
    monkeypatch.setenv(INJECT_AT_ENV, str(fire_at))
    counters = Counters()
    supervisor = TaskSupervisor(
        2, backoff=FAST_BACKOFF, counters=counters, name="chaos"
    )
    backend = ProcpoolBackend(
        n_workers=2, min_chunk_entries=8, supervisor=supervisor
    )
    try:
        for mode in range(3):
            update_factor_mode(
                tensor, factors, core, mode, 0.1,
                block_size=97, backend=backend,
            )
    finally:
        supervisor.shutdown()
    assert counters.get("fabric.workers_died") >= 1
    assert counters.get("fabric.redispatches") >= 1
    for ours, theirs in zip(factors, expected):
        assert ours.tobytes() == theirs.tobytes()
