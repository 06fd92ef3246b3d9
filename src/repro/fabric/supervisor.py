"""The supervisor state machine: dispatch, detect, recover, hedge.

:class:`TaskSupervisor` drives a :class:`~repro.fabric.pool.WorkerPool`
through waves of tasks (:meth:`run_tasks`) while distinguishing the three
ways a worker can fail:

* **dead** — EOF on the worker's pipe or ``waitpid`` says it exited
  (SIGKILL, OOM-kill, crash).  Its unfinished task re-enters the queue
  after a decorrelated-jitter backoff delay and the slot respawns.
* **hung** — the worker missed :data:`~repro.fabric.pool.HEARTBEAT_MISSES`
  consecutive heartbeats (SIGSTOP, a wedged C extension: the heartbeat
  thread beats *through* long computations, so silence means stuck, not
  busy), or its task overran the per-task **deadline** while heartbeats
  still flowed (a wedged task in a healthy process).  Either way the
  supervisor SIGKILLs the process — the only safe recovery, since a
  stopped process may hold the task forever — and re-dispatches.
* **poisoned** — the same task killed ``poison_threshold`` workers.
  Re-dispatching would keep burning fresh workers, so the wave stops with
  :class:`PoisonedTaskError` naming the task.

Near the end of a wave, idle workers **hedge**: the slowest outstanding
task (oldest dispatch) is duplicated onto an idle worker and the first
result wins.  A task is only slow once it has run for ``hedge_after``
seconds *and* twice the median run time of the wave's finished tasks,
so a peer that is about to finish is never duplicated.  Results are
recorded by task identity and returned in submission order, and task
functions are pure, so hedging — like every recovery above — cannot
change a single bit of the output; the chaos suite asserts exactly that
against undisturbed runs.

Exceptions *raised by* a task (an ``ERROR`` frame, as opposed to a death)
are deterministic bugs: they propagate immediately with the remote
traceback attached, never retried.

The event loop (:meth:`TaskSupervisor._step`) sleeps in one ``select``
over every worker's output pipe *and* the input pipe of every worker
with queued outbound bytes, so a large frame drains at pipe speed and an
idle wave costs no CPU: the wait is cut short only by a respawn or a
re-dispatch backoff coming due, never by a task that is merely waiting
for a free worker.
"""

from __future__ import annotations

import logging
import select
import statistics
import time
from typing import Any, Dict, List, NamedTuple, Optional, Set

from ..exceptions import ReproError
from ..metrics.timing import Counters
from ..resilience.retry import BackoffPolicy
from .pool import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_SPAWN_GRACE,
    WorkerHandle,
    WorkerPool,
)
from .protocol import FrameKind, ProtocolError

logger = logging.getLogger(__name__)

#: Default extra re-dispatches a task gets after its first failed attempt.
DEFAULT_MAX_TASK_RETRIES = 3

#: Default worker kills by one task before it is declared poisoned.
DEFAULT_POISON_THRESHOLD = 3

#: Default seconds a task must have been running before it is hedged.
DEFAULT_HEDGE_AFTER = 0.2

#: Upper bound on one select() wait so time-based checks stay responsive.
_MAX_WAIT = 0.05


class FabricError(ReproError, RuntimeError):
    """Base class for supervisor-level failures."""


class TaskRetryError(FabricError):
    """A task exhausted its re-dispatch budget across worker failures."""

    def __init__(self, message: str, keys: List[Any]) -> None:
        super().__init__(message)
        self.keys = keys


class PoisonedTaskError(FabricError):
    """One task keeps killing fresh workers; re-dispatch was stopped."""

    def __init__(self, message: str, key: Any, kills: int) -> None:
        super().__init__(message)
        self.key = key
        self.kills = kills


class WorkerSetupError(FabricError):
    """A setup broadcast raised inside a worker."""


class Task(NamedTuple):
    """One unit of work: an identity, a callable path, and its payload."""

    key: Any
    fn: str
    payload: Any


class _TaskState:
    __slots__ = (
        "task", "done", "result", "attempts", "kills", "running",
        "first_dispatch", "ready_at", "hedged",
    )

    def __init__(self, task: Task) -> None:
        self.task = task
        self.done = False
        self.result: Any = None
        self.attempts = 0  # failed dispatches consumed so far
        self.kills = 0  # workers this task's copies have taken down
        self.running: Dict[int, float] = {}  # worker_id -> dispatched at
        self.first_dispatch = 0.0
        self.ready_at = 0.0  # backoff gate before the next re-dispatch
        self.hedged = False


class TaskSupervisor:
    """Supervised execution of task waves over a respawning worker pool."""

    def __init__(
        self,
        n_workers: int,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        spawn_grace: float = DEFAULT_SPAWN_GRACE,
        task_deadline: Optional[float] = None,
        max_task_retries: int = DEFAULT_MAX_TASK_RETRIES,
        poison_threshold: int = DEFAULT_POISON_THRESHOLD,
        hedge: bool = True,
        hedge_after: float = DEFAULT_HEDGE_AFTER,
        backoff: Optional[BackoffPolicy] = None,
        counters: Optional[Counters] = None,
        name: str = "fabric",
    ) -> None:
        self.counters = counters if counters is not None else Counters()
        self.pool = WorkerPool(
            n_workers,
            heartbeat_interval=heartbeat_interval,
            spawn_grace=spawn_grace,
            backoff=backoff,
            counters=self.counters,
        )
        self.task_deadline = task_deadline
        self.max_task_retries = int(max_task_retries)
        self.poison_threshold = int(poison_threshold)
        self.hedge = bool(hedge)
        self.hedge_after = float(hedge_after)
        self.name = name
        self._redispatch_backoff = (
            backoff
            if backoff is not None
            else BackoffPolicy(base=0.02, cap=1.0)
        )
        self._run_id = 0
        self._states: Dict[Any, _TaskState] = {}
        self._queue: List[Any] = []
        #: Run times of the current wave's completed tasks (winning copies).
        self._run_times: List[float] = []
        self._deaths_since_progress = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the initial workers (idempotent)."""
        if self._closed:
            raise FabricError(f"{self.name}: supervisor already shut down")
        self._started = True
        self.pool.spawn_missing()

    def shutdown(self) -> None:
        if not self._closed:
            self._closed = True
            self.pool.shutdown()

    def __enter__(self) -> "TaskSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Setup broadcasts
    # ------------------------------------------------------------------
    def broadcast_setup(
        self,
        key: str,
        fn: str,
        payload: Any,
        replace_prefix: Optional[str] = None,
    ) -> None:
        """Replay-logged shared state for every present and future worker.

        Pipe ordering makes a live worker apply it before any task sent
        after it, and a respawned worker replays the whole log before it
        takes work, so no explicit barrier is needed.
        """
        self.start()
        self.pool.broadcast_setup(
            key, fn, payload, replace_prefix=replace_prefix
        )

    # ------------------------------------------------------------------
    # Task waves
    # ------------------------------------------------------------------
    def run_tasks(
        self,
        tasks: List[Task],
        deadline: Optional[float] = None,
        hedge: Optional[bool] = None,
    ) -> List[Any]:
        """Execute one wave of tasks and return results in task order.

        ``deadline`` (seconds, per task execution) overrides the
        supervisor default; ``hedge`` likewise.  Worker deaths and hangs
        are recovered transparently; deterministic task exceptions
        propagate; :class:`TaskRetryError` / :class:`PoisonedTaskError`
        report unrecoverable waves.
        """
        if not tasks:
            return []
        self.start()
        self._run_id += 1
        run = self._run_id
        hedge = self.hedge if hedge is None else bool(hedge)
        task_deadline = self.task_deadline if deadline is None else deadline

        states: Dict[Any, _TaskState] = {}
        order: List[Any] = []
        for task in tasks:
            key = (run, task.key)
            if key in states:
                raise ValueError(f"duplicate task key {task.key!r}")
            states[key] = _TaskState(task)
            order.append(key)
        self._states = states
        self._queue = list(order)
        self._run_times = []
        pending = len(order)

        try:
            while pending:
                now = time.monotonic()
                self._dispatch(self._queue, states, now, hedge)
                self._step(
                    self._wait_for(self._queue, states, now), task_deadline
                )
                pending = sum(1 for key in order if not states[key].done)
            return [states[key].result for key in order]
        finally:
            self._states = {}
            self._queue = []

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _wait_for(
        self, queue: List[Any], states: Dict[Any, _TaskState], now: float
    ) -> float:
        """How long the next ``select`` may sleep.

        Only timers shorten it: a pending respawn and a re-dispatch
        backoff that comes due.  A ready task still queued after
        :meth:`_dispatch` has no idle worker, and the ``RESULT`` frame
        that frees one wakes the ``select`` on its own.
        """
        wait = _MAX_WAIT
        respawn = self.pool.next_respawn_in(now)
        if respawn is not None:
            wait = min(wait, respawn)
        for key in queue:
            ready_at = states[key].ready_at
            if ready_at > now:
                wait = min(wait, ready_at - now)
        return max(0.0, wait)

    def _dispatch(
        self,
        queue: List[Any],
        states: Dict[Any, _TaskState],
        now: float,
        hedge: bool,
    ) -> None:
        idle = [
            handle
            for handle in self.pool.live_handles()
            if handle.current_task is None
        ]
        for handle in idle:
            key = self._next_queued(queue, states, now)
            duplicate = False
            if key is None:
                if not hedge or queue:
                    continue
                key = self._hedge_candidate(states, now)
                if key is None:
                    continue
                duplicate = True
            state = states[key]
            if not handle.send(
                FrameKind.TASK, (key, state.task.fn, state.task.payload)
            ):
                if not duplicate:
                    queue.append(key)
                self._on_worker_gone(handle, killed=False, reason="pipe gone")
                continue
            handle.current_task = key
            handle.task_started_at = now
            state.running[handle.worker_id] = now
            if not state.first_dispatch:
                state.first_dispatch = now
            if duplicate:
                state.hedged = True
                self.counters.add("fabric.hedges")
                logger.debug(
                    "%s: hedging slowest task %r onto idle worker %d",
                    self.name, key, handle.worker_id,
                )
            self.counters.add("fabric.tasks_dispatched")

    def _next_queued(
        self, queue: List[Any], states: Dict[Any, _TaskState], now: float
    ) -> Optional[Any]:
        for position, key in enumerate(queue):
            if states[key].ready_at <= now:
                return queue.pop(position)
        return None

    def _hedge_candidate(
        self, states: Dict[Any, _TaskState], now: float
    ) -> Optional[Any]:
        best: Optional[Any] = None
        best_started = now
        slow_after = self.hedge_after
        if self._run_times:
            slow_after = max(slow_after, 2.0 * statistics.median(self._run_times))
        for key, state in states.items():
            if state.done or state.hedged or len(state.running) != 1:
                continue
            started = next(iter(state.running.values()))
            if now - started < slow_after:
                continue
            if started < best_started:
                best, best_started = key, started
        return best

    def _step(self, wait: float, task_deadline: Optional[float] = None) -> None:
        """One event-loop iteration: respawn, flush, read, time checks."""
        now = time.monotonic()
        self.pool.spawn_missing(now)
        for handle in list(self.pool.live_handles()):
            if not handle.flush():
                self._on_worker_gone(handle, killed=False, reason="pipe gone")
        live = self.pool.live_handles()
        by_fd = {}
        by_stdin = {}
        for handle in live:
            try:
                by_fd[handle.fileno()] = handle
                if handle.outbuf:
                    by_stdin[handle.stdin_fileno()] = handle
            except (OSError, ValueError):  # pragma: no cover - defensive
                self._on_worker_gone(handle, killed=False, reason="pipe gone")
        if by_fd:
            try:
                readable, writable, _ = select.select(
                    list(by_fd), list(by_stdin), [], wait
                )
            except OSError:  # a pipe vanished mid-select; next pass reaps it
                readable, writable = [], []
        else:
            if wait > 0:
                time.sleep(wait)
            readable, writable = [], []
        for fd in writable:
            handle = by_stdin[fd]
            if self.pool.is_live(handle) and not handle.flush():
                self._on_worker_gone(handle, killed=False, reason="pipe gone")
        for fd in readable:
            handle = by_fd[fd]
            if self.pool.is_live(handle):
                self._drain(handle)
        self._time_checks(task_deadline)

    def _drain(self, handle: WorkerHandle) -> None:
        while True:
            data = handle.read_available()
            if data is None:
                return
            if data == b"":
                self._on_worker_gone(handle, killed=False, reason="EOF")
                return
            try:
                frames = handle.reader.feed(data)
            except ProtocolError as exc:
                logger.warning(
                    "%s: worker %d corrupted the protocol stream (%s); "
                    "killing it", self.name, handle.worker_id, exc,
                )
                self._on_worker_gone(
                    handle, killed=True, reason="protocol corruption"
                )
                return
            for frame in frames:
                self._on_frame(handle, frame.kind, frame.payload)

    def _on_frame(
        self, handle: WorkerHandle, kind: FrameKind, payload: Any
    ) -> None:
        handle.last_beat = time.monotonic()
        if kind is FrameKind.HELLO:
            handle.hello_seen = True
            handle.pid = int(payload["pid"])
        elif kind is FrameKind.HEARTBEAT:
            pass  # the timestamp update above is the whole point
        elif kind is FrameKind.RESULT:
            key, result = payload
            if handle.current_task == key:
                handle.current_task = None
            state = self._states.get(key)
            if state is None:
                self.counters.add("fabric.stale_results")
                return
            started = state.running.pop(handle.worker_id, None)
            if state.done:
                self.counters.add("fabric.duplicates_ignored")
                return
            if started is not None:
                self._run_times.append(time.monotonic() - started)
            state.done = True
            state.result = result
            self.pool.note_success(handle)
            self._deaths_since_progress = 0
            self.counters.add("fabric.tasks_completed")
        elif kind is FrameKind.ERROR:
            key, exc, remote_tb = payload
            if key and isinstance(key, tuple) and key[0] == "__setup__":
                raise WorkerSetupError(
                    f"{self.name}: setup {key[2]!r} failed in worker "
                    f"{handle.worker_id}: {exc}\n{remote_tb}"
                ) from exc
            if handle.current_task == key:
                handle.current_task = None
            state = self._states.get(key)
            if state is None or state.done:
                self.counters.add("fabric.stale_results")
                return
            state.running.pop(handle.worker_id, None)
            # Deterministic failure: re-running a bug only repeats it.
            try:
                exc.add_note(f"remote worker traceback:\n{remote_tb}")
            except (AttributeError, TypeError):  # pragma: no cover
                pass
            raise exc

    def _time_checks(self, task_deadline: Optional[float]) -> None:
        now = time.monotonic()
        for handle in list(self.pool.live_handles()):
            silence = now - handle.last_beat
            budget = self.pool.heartbeat_timeout + (
                self.pool.spawn_grace if not handle.hello_seen else 0.0
            )
            if silence > budget:
                logger.warning(
                    "%s: worker %d (pid %s) missed heartbeats for %.2fs; "
                    "SIGKILL + re-dispatch",
                    self.name, handle.worker_id, handle.pid, silence,
                )
                self.counters.add("fabric.workers_hung")
                self._on_worker_gone(handle, killed=True, reason="hung")
                continue
            if (
                handle.current_task is not None
                and task_deadline is not None
                and now - handle.task_started_at > task_deadline
            ):
                logger.warning(
                    "%s: worker %d overran the %.2fs task deadline on %r; "
                    "SIGKILL + re-dispatch",
                    self.name, handle.worker_id, task_deadline,
                    handle.current_task,
                )
                self.counters.add("fabric.deadline_kills")
                self._on_worker_gone(handle, killed=True, reason="deadline")

    def _on_worker_gone(
        self, handle: WorkerHandle, killed: bool, reason: str
    ) -> None:
        key = handle.current_task
        handle.current_task = None
        self.pool.mark_dead(handle, killed=killed)
        self._deaths_since_progress += 1
        limit = self.pool.n_workers * (self.max_task_retries + 3) + 4
        if self._deaths_since_progress > limit:
            raise FabricError(
                f"{self.name}: {self._deaths_since_progress} consecutive "
                f"worker failures without a single completed task "
                f"(last: {reason}); the worker environment is broken"
            )
        if key is None:
            return
        state = self._states.get(key)
        if state is None:
            return  # a stale task from a finished wave died with the worker
        state.running.pop(handle.worker_id, None)
        if state.done:
            return
        state.kills += 1
        if state.kills >= self.poison_threshold:
            raise PoisonedTaskError(
                f"{self.name}: task {key!r} killed {state.kills} workers "
                f"(poison threshold {self.poison_threshold}); not "
                f"re-dispatching a poisoned task",
                key=key,
                kills=state.kills,
            )
        if state.running:
            return  # a hedged twin is still computing this task
        state.attempts += 1
        if state.attempts > self.max_task_retries:
            raise TaskRetryError(
                f"{self.name}: task {key!r} failed {state.attempts} times "
                f"(worker {reason}; max_task_retries="
                f"{self.max_task_retries})",
                keys=[key],
            )
        state.ready_at = time.monotonic() + self._redispatch_backoff.next_delay()
        self.counters.add("fabric.redispatches")
        self._queue.append(key)
        logger.warning(
            "%s: re-dispatching task %r after worker %s "
            "(attempt %d of %d)",
            self.name, key, reason, state.attempts + 1,
            self.max_task_retries + 1,
        )
