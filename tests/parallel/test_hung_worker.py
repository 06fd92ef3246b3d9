"""Hung-not-dead workers: SIGSTOP coverage for the process-parallel row update.

A SIGSTOPped worker is the nastiest failure for a pool: the process
exists, its pipes are open, it just never answers.  Death-only detection
hangs forever on it.  These tests stop a real ``procpool`` worker while
it solves factor rows of ``update_factor_mode`` and assert both
detection paths — the missed-heartbeat watchdog and the per-task
deadline — each SIGKILL the stopped process, re-dispatch its chunk, and
produce a factor matrix bitwise equal to the serial update.
"""

import numpy as np
import pytest

from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import update_factor_mode
from repro.fabric import TaskSupervisor
from repro.fabric.worker import INJECT_STOP_ENV
from repro.kernels.backends import ProcpoolBackend
from repro.metrics import Counters
from repro.resilience import BackoffPolicy


@pytest.fixture()
def problem(planted_small):
    tensor = planted_small.tensor
    factors = initialize_factors(
        tensor.shape, (3, 3, 3), np.random.default_rng(0)
    )
    core = initialize_core((3, 3, 3), np.random.default_rng(1))
    serial = [f.copy() for f in factors]
    update_factor_mode(tensor, serial, core, 0, regularization=0.01)
    return tensor, factors, core, serial[0]


def _run_with_stopped_worker(problem, counters, **supervisor_kwargs):
    tensor, factors, core, reference = problem
    factors = [f.copy() for f in factors]
    supervisor = TaskSupervisor(
        2,
        hedge=False,  # hedging would mask the hang before detection fires
        backoff=BackoffPolicy(base=0.01, cap=0.1, jitter="none"),
        counters=counters,
        name="hung-test",
        **supervisor_kwargs,
    )
    backend = ProcpoolBackend(
        n_workers=2, min_chunk_entries=8, supervisor=supervisor
    )
    try:
        update_factor_mode(
            tensor, factors, core, 0, regularization=0.01, backend=backend
        )
    finally:
        supervisor.shutdown()
    # Bitwise: the re-dispatched chunk replays the identical IEEE
    # operation sequence on a healthy worker.
    assert factors[0].tobytes() == reference.tobytes()


def test_sigstopped_worker_detected_by_heartbeat_silence(
    problem, tmp_path, monkeypatch
):
    """Missed heartbeats — not death — flag the worker; it is SIGKILLed
    and its chunk re-dispatched with bitwise-equal results."""
    monkeypatch.setenv(INJECT_STOP_ENV, str(tmp_path / "stop"))
    counters = Counters()
    _run_with_stopped_worker(problem, counters, heartbeat_interval=0.1)
    assert (tmp_path / "stop").exists(), "the injected SIGSTOP never fired"
    assert counters.get("fabric.workers_hung") >= 1
    assert counters.get("fabric.workers_killed") >= 1
    assert counters.get("fabric.redispatches") >= 1


def test_sigstopped_worker_detected_by_task_deadline(
    problem, tmp_path, monkeypatch
):
    """With lazy heartbeats the per-task deadline is what catches the
    stopped worker: same SIGKILL + re-dispatch + bitwise guarantee."""
    monkeypatch.setenv(INJECT_STOP_ENV, str(tmp_path / "stop"))
    counters = Counters()
    # Heartbeat watchdog padded out to 4s (0.5 * 8 misses); the 1-second
    # task deadline must fire first.
    _run_with_stopped_worker(
        problem, counters, heartbeat_interval=0.5, task_deadline=1.0
    )
    assert (tmp_path / "stop").exists(), "the injected SIGSTOP never fired"
    assert counters.get("fabric.deadline_kills") >= 1
    assert counters.get("fabric.redispatches") >= 1
