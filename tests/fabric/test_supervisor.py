"""Tier-1 tests for the task supervisor: dispatch, setups, failures.

These spawn real worker processes but keep them few and the work tiny,
so the suite stays inside the default run.  The violent fault-injection
scenarios (SIGKILL/SIGSTOP/wedge mid-sweep) live in
``test_chaos_fabric.py`` behind the ``chaos`` marker.
"""

import contextlib
import os
import time

import numpy as np
import pytest

from repro.fabric import (
    PoisonedTaskError,
    Task,
    TaskRetryError,
    TaskSupervisor,
)
from repro.fabric.pool import worker_environment
from repro.metrics import Counters
from repro.resilience import BackoffPolicy

TASKFNS = "tests.fabric.taskfns"

#: Fast backoff so failure tests spend milliseconds, not seconds.
FAST_BACKOFF = BackoffPolicy(base=0.01, cap=0.05, jitter="none")


@pytest.fixture(scope="module")
def supervisor():
    """One warm two-worker pool shared by the happy-path tests."""
    with TaskSupervisor(2, name="test-fabric") as sup:
        yield sup


def _tasks(fn, payloads):
    return [
        Task(key=i, fn=f"{TASKFNS}:{fn}", payload=p)
        for i, p in enumerate(payloads)
    ]


class TestDispatch:
    def test_results_in_submission_order(self, supervisor):
        results = supervisor.run_tasks(_tasks("double", [1, 2, 3, 4, 5]))
        assert results == [2, 4, 6, 8, 10]

    def test_numpy_payloads_roundtrip(self, supervisor):
        arrays = [np.arange(4, dtype=np.float64) * i for i in range(3)]
        results = supervisor.run_tasks(_tasks("echo", arrays))
        for sent, received in zip(arrays, results):
            np.testing.assert_array_equal(sent, received)

    def test_work_spreads_across_workers(self, supervisor):
        # Both workers must be up before the wave, or a fast-booting
        # worker drains it alone; then enough slow-ish tasks that both
        # workers must participate.
        _warm(supervisor)
        pids = supervisor.run_tasks(_tasks("pid", [5] * 8))
        assert len(set(pids)) == 2

    def test_empty_task_list(self, supervisor):
        assert supervisor.run_tasks([]) == []

    def test_supervisor_usable_after_many_rounds(self, supervisor):
        for round_no in range(3):
            assert supervisor.run_tasks(
                _tasks("double", [round_no])
            ) == [2 * round_no]


def test_worker_blas_threads_share_the_cpus(monkeypatch):
    """A pool's workers split the CPUs' BLAS threads; caller values win."""
    monkeypatch.setattr("repro.fabric.pool.os.cpu_count", lambda: 8)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert worker_environment(1.0, 2)["OPENBLAS_NUM_THREADS"] == "4"
    assert worker_environment(1.0, 3)["OPENBLAS_NUM_THREADS"] == "2"
    assert worker_environment(1.0, 16)["OPENBLAS_NUM_THREADS"] == "1"
    assert worker_environment(1.0, 2)["OMP_NUM_THREADS"] == "3"


class TestSetups:
    def test_broadcast_setup_visible_to_tasks(self, supervisor):
        supervisor.broadcast_setup(
            "shared", f"{TASKFNS}:setup_store", {"answer": 41}
        )
        results = supervisor.run_tasks(_tasks("read_setup", ["shared"] * 2))
        assert results == [{"answer": 41}, {"answer": 41}]

    def test_respawned_worker_replays_the_setup_log(self, tmp_path):
        """The only worker dies on its first task; its replacement has
        replayed every setup before it takes the re-dispatched task."""
        counters = Counters()
        with _kill_once(tmp_path), TaskSupervisor(
            1, hedge=False, backoff=FAST_BACKOFF, counters=counters
        ) as sup:
            sup.broadcast_setup("a", f"{TASKFNS}:setup_store", {"answer": 1})
            sup.broadcast_setup("b", f"{TASKFNS}:setup_store", {"answer": 2})
            results = sup.run_tasks(_tasks("read_setup", ["a", "b"] * 3))
        assert results == [{"answer": 1}, {"answer": 2}] * 3
        assert counters.get("fabric.workers_died") == 1
        assert counters.get("fabric.workers_spawned") == 2

    def test_replace_prefix_compacts_what_a_respawn_replays(self, tmp_path):
        """Setups superseded through ``replace_prefix`` are not replayed:
        the replacement worker holds only the latest per-sweep entry."""
        counters = Counters()
        with _kill_once(tmp_path), TaskSupervisor(
            1, hedge=False, backoff=FAST_BACKOFF, counters=counters
        ) as sup:
            sup.broadcast_setup("base", f"{TASKFNS}:setup_store", 0)
            for sweep in range(3):
                sup.broadcast_setup(
                    f"sweep/{sweep}",
                    f"{TASKFNS}:setup_store",
                    sweep,
                    replace_prefix="sweep/",
                )
            keys = sup.run_tasks(_tasks("setup_keys", [None]))[0]
        assert counters.get("fabric.workers_died") == 1
        assert keys == ["base", "sweep/2"]


class TestCounters:
    def test_each_task_is_dispatched_and_completed_once(self):
        """Without hedging or failures the ``fabric.*`` task counters
        match the wave size exactly."""
        counters = Counters()
        with TaskSupervisor(2, hedge=False, counters=counters) as sup:
            assert sup.run_tasks(_tasks("double", [1, 2, 3, 4, 5])) == [
                2, 4, 6, 8, 10,
            ]
        assert counters.get("fabric.tasks_dispatched") == 5
        assert counters.get("fabric.tasks_completed") == 5
        assert counters.get("fabric.workers_spawned") == 2
        assert counters.get("fabric.redispatches") == 0


class TestFailures:
    def test_deterministic_error_propagates_with_remote_traceback(self):
        with TaskSupervisor(1, backoff=FAST_BACKOFF) as sup:
            with pytest.raises(ValueError, match="boom payload") as excinfo:
                sup.run_tasks(_tasks("boom", ["boom payload"]))
            notes = getattr(excinfo.value, "__notes__", [])
            assert any("remote worker traceback" in n for n in notes)
            # The pool survives a task error: the next round still works.
            assert sup.run_tasks(_tasks("double", [21])) == [42]

    def test_error_does_not_consume_retry_budget(self):
        counters = Counters()
        with TaskSupervisor(
            1, backoff=FAST_BACKOFF, counters=counters
        ) as sup:
            with pytest.raises(ValueError):
                sup.run_tasks(_tasks("boom", ["x"]))
        assert counters.get("fabric.redispatches") == 0

    def test_poisoned_task_names_key_and_kills(self):
        counters = Counters()
        with TaskSupervisor(
            2,
            backoff=FAST_BACKOFF,
            poison_threshold=2,
            max_task_retries=5,
            counters=counters,
        ) as sup:
            with pytest.raises(PoisonedTaskError) as excinfo:
                sup.run_tasks(_tasks("die", [None]))
            assert excinfo.value.kills == 2
            assert excinfo.value.key[1] == 0  # (run_id, task.key)
        assert counters.get("fabric.workers_died") >= 2

    def test_retry_budget_exhaustion_raises_taskretryerror(self):
        # poison_threshold above max_task_retries so the retry budget is
        # what gives out; every attempt lands on the same dying task.
        with TaskSupervisor(
            1,
            backoff=FAST_BACKOFF,
            poison_threshold=99,
            max_task_retries=1,
        ) as sup:
            with pytest.raises(TaskRetryError) as excinfo:
                sup.run_tasks(_tasks("die", [None]))
            assert excinfo.value.keys  # names the unfinished task keys

    def test_worker_death_redispatches_and_completes(self, tmp_path):
        """One abrupt worker death mid-batch is invisible in the results.

        Hedging is off: a worker still booting when its task is dispatched
        can otherwise be out-run by a hedged twin on the other worker, so
        the wave ends before the death is seen and nothing is re-dispatched.
        """
        counters = Counters()
        with _kill_once(tmp_path), TaskSupervisor(
            2, hedge=False, backoff=FAST_BACKOFF, counters=counters
        ) as sup:
            results = sup.run_tasks(_tasks("double", list(range(8))))
        assert results == [2 * i for i in range(8)]
        assert counters.get("fabric.workers_died") >= 1
        assert counters.get("fabric.redispatches") >= 1


class TestHedging:
    def test_hedged_duplicate_first_result_wins(self):
        """With one straggling task and an idle worker, a hedge fires and
        the answer is still exactly one result per task."""
        counters = Counters()
        with TaskSupervisor(
            2, hedge=True, hedge_after=0.05, counters=counters
        ) as sup:
            _warm(sup)
            # One slow task, nothing else: the second worker idles, the
            # hedge duplicates the straggler, first finisher wins.
            results = sup.run_tasks(_tasks("sleep_ms", [400]))
        assert results == [400]
        assert counters.get("fabric.hedges") >= 1

    def test_task_near_the_wave_median_is_not_hedged(self):
        """A task running shorter than twice its finished peers' median is
        left alone, however far past ``hedge_after`` it is."""
        counters = Counters()
        with TaskSupervisor(
            2, hedge=True, hedge_after=0.05, counters=counters
        ) as sup:
            _warm(sup)
            # Two 300 ms tasks finish together; the 450 ms one then runs
            # beside an idle worker, well under 2 × 300 ms.
            results = sup.run_tasks(_tasks("sleep_ms", [300, 300, 450]))
        assert results == [300, 300, 450]
        assert counters.get("fabric.hedges") == 0

    def test_hedging_disabled_runs_single_copies(self):
        counters = Counters()
        with TaskSupervisor(
            2, hedge=False, counters=counters
        ) as sup:
            results = sup.run_tasks(_tasks("sleep_ms", [150]))
        assert results == [150]
        assert counters.get("fabric.hedges") == 0


@contextlib.contextmanager
def _kill_once(tmp_path):
    """Make the first worker task to claim the sentinel SIGKILL itself."""
    from repro.fabric.worker import INJECT_KILL_ENV

    old = os.environ.get(INJECT_KILL_ENV)
    os.environ[INJECT_KILL_ENV] = str(tmp_path / "kill-once")
    try:
        yield
    finally:
        if old is None:
            del os.environ[INJECT_KILL_ENV]
        else:  # pragma: no cover - env hygiene
            os.environ[INJECT_KILL_ENV] = old


def _warm(sup, timeout=30.0):
    """Run short unhedged waves until both workers have answered a task."""
    deadline = time.monotonic() + timeout
    while len(set(sup.run_tasks(_tasks("pid", [50, 50]), hedge=False))) < 2:
        assert time.monotonic() < deadline, "a worker never answered"


class TestEventLoop:
    """The supervisor loop drains big frames fast and idles without spinning."""

    def test_large_task_frames_drain_at_pipe_speed(self):
        """Two 8 MB task frames reach their workers at pipe speed, not
        64 KiB per loop wake-up (about 1.1 s when only reads woke it)."""
        payload = b"x" * (8 << 20)
        with TaskSupervisor(2, hedge=False) as sup:
            _warm(sup)
            started = time.monotonic()
            results = sup.run_tasks(_tasks("length", [payload, payload]))
            elapsed = time.monotonic() - started
        assert results == [len(payload)] * 2
        assert elapsed < 0.6, f"two 8 MB frames took {elapsed:.2f}s"

    def test_waiting_for_a_busy_pool_costs_no_parent_cpu(self):
        """A queued task with no idle worker waits on the pipes: three
        one-second tasks on two workers used to spin a whole core."""
        with TaskSupervisor(2, hedge=False) as sup:
            _warm(sup)
            cpu_before = time.process_time()
            results = sup.run_tasks(_tasks("sleep_ms", [1000] * 3))
            cpu_used = time.process_time() - cpu_before
        assert results == [1000] * 3
        assert cpu_used < 0.2, f"parent burned {cpu_used:.2f}s of CPU"
