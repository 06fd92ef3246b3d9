"""Worker process entry point: ``python -m repro.fabric.worker``.

A worker is a freshly spawned interpreter that speaks the length-prefixed
frame protocol of :mod:`repro.fabric.protocol` on its standard pipes:
frames in on stdin, frames out on a private duplicate of stdout.  On
startup the real ``stdout`` descriptor is re-pointed at ``stderr`` so a
stray ``print()`` anywhere in library code lands in the supervisor's log,
never in the middle of a frame.

The main loop is single-threaded and strictly ordered — ``SETUP`` frames
are applied before any later ``TASK`` frame is read, which is what lets
the supervisor send setup and tasks back to back without an explicit
barrier.  A background **heartbeat thread** emits a ``HEARTBEAT`` frame
every ``REPRO_FABRIC_HEARTBEAT_S`` seconds carrying the key of the task
currently executing (or ``None``), including *while a task computes*; a
worker that stops heartbeating is therefore either dead or truly stuck
(SIGSTOP, a wedged syscall), never merely busy.

Task and setup functions are referenced by **dotted path**
(``"package.module:function"``) so payloads never carry closures; each is
called as ``fn(context, payload)`` where the :class:`WorkerContext`
exposes earlier setup results (``context.setups``) and a scratch cache
(``context.cache``) for derived state such as compiled kernels.

Fault injection (chaos tests only): when ``REPRO_FABRIC_INJECT_KILL``,
``_STOP`` or ``_WEDGE`` name a sentinel path, the first task execution to
claim the sentinel (exclusive create, so exactly one firing per path)
respectively SIGKILLs itself, SIGSTOPs itself, or wedges in a sleep loop
with heartbeats still flowing — the three failure modes the supervisor
distinguishes.  ``REPRO_FABRIC_INJECT_AT`` delays the firing to the n-th
task executed by the claiming worker, so seeded tests can move the fault
around the sweep.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
import traceback
from importlib import import_module
from typing import Any, BinaryIO, Callable, Dict, Optional

from .protocol import (
    HEARTBEAT_ENV,
    FrameKind,
    FrameReader,
    encode_frame_parts,
)

__all__ = ["HEARTBEAT_ENV", "WorkerContext", "main", "resolve_callable"]

#: Chaos sentinels: first task to claim one fires the matching fault.
INJECT_KILL_ENV = "REPRO_FABRIC_INJECT_KILL"
INJECT_STOP_ENV = "REPRO_FABRIC_INJECT_STOP"
INJECT_WEDGE_ENV = "REPRO_FABRIC_INJECT_WEDGE"

#: Task ordinal (1-based, per worker) at which a claimed fault fires.
INJECT_AT_ENV = "REPRO_FABRIC_INJECT_AT"


class WorkerContext:
    """Per-worker state visible to task functions.

    ``setups`` maps setup keys to the return values of their setup
    callables (broadcast state: factor matrices, loaded models);
    ``cache`` is a scratch dict for state derived from setups (compiled
    kernels, projection slices) that tasks want to reuse across calls.
    """

    def __init__(self) -> None:
        self.setups: Dict[str, Any] = {}
        self.cache: Dict[Any, Any] = {}
        self.tasks_executed = 0


def resolve_callable(path: str) -> Callable[..., Any]:
    """Import ``"package.module:attr"`` (or dotted-only) to a callable."""
    module_name, sep, attr = path.partition(":")
    if not sep:
        module_name, _, attr = path.rpartition(".")
    if not module_name or not attr:
        raise ValueError(f"not a callable path: {path!r}")
    fn = getattr(import_module(module_name), attr)
    if not callable(fn):
        raise TypeError(f"{path!r} resolved to non-callable {fn!r}")
    return fn


def _claim_sentinel(path: str) -> bool:
    """Atomically claim a chaos sentinel; only one claimant ever wins."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except (FileExistsError, FileNotFoundError):
        return False
    os.close(fd)
    return True


def _maybe_inject_fault(context: WorkerContext) -> None:
    """Fire at most one configured chaos fault at the configured ordinal."""
    fire_at = int(os.environ.get(INJECT_AT_ENV, "1") or "1")
    if context.tasks_executed != fire_at:
        return
    kill = os.environ.get(INJECT_KILL_ENV, "")
    if kill and _claim_sentinel(kill):
        os.kill(os.getpid(), signal.SIGKILL)
    stop = os.environ.get(INJECT_STOP_ENV, "")
    if stop and _claim_sentinel(stop):
        # A stopped process heartbeats nothing; the supervisor must notice
        # the silence and SIGKILL us (which works on stopped processes).
        os.kill(os.getpid(), signal.SIGSTOP)
    wedge = os.environ.get(INJECT_WEDGE_ENV, "")
    if wedge and _claim_sentinel(wedge):
        # Heartbeats keep flowing: only the task deadline can catch this.
        while True:  # pragma: no cover - killed by the supervisor
            time.sleep(0.05)


class _Heartbeat(threading.Thread):
    """Background thread emitting periodic HEARTBEAT frames."""

    def __init__(
        self, out: BinaryIO, lock: threading.Lock, interval: float,
        state: Dict[str, Any],
    ) -> None:
        super().__init__(name="fabric-heartbeat", daemon=True)
        self.out = out
        self.lock = lock
        self.interval = interval
        self.state = state
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(self.interval):
            try:
                _send(self.out, self.lock, FrameKind.HEARTBEAT,
                      self.state.get("task"))
            except (BrokenPipeError, OSError, ValueError):
                return  # supervisor is gone; the main loop will exit too


def _send(out: BinaryIO, lock: threading.Lock, kind: FrameKind,
          payload: Any) -> None:
    header, data = encode_frame_parts(kind, payload)
    with lock:
        out.write(header)
        out.write(data)
        out.flush()


def _run_task(
    out: BinaryIO,
    lock: threading.Lock,
    context: WorkerContext,
    key: Any,
    fn_path: str,
    payload: Any,
) -> None:
    try:
        context.tasks_executed += 1
        _maybe_inject_fault(context)
        result = resolve_callable(fn_path)(context, payload)
    except BaseException as exc:  # noqa: BLE001 - shipped to the supervisor
        _send_error(out, lock, key, exc)
        return
    _send(out, lock, FrameKind.RESULT, (key, result))


def _send_error(out: BinaryIO, lock: threading.Lock, key: Any,
                exc: BaseException) -> None:
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        _send(out, lock, FrameKind.ERROR, (key, exc, text))
    except Exception:
        # The exception itself did not pickle; ship its description.
        _send(out, lock, FrameKind.ERROR,
              (key, RuntimeError(f"{type(exc).__name__}: {exc}"), text))


def main() -> int:
    """Worker main loop; returns the process exit code."""
    # Claim the protocol channel, then point stdout at stderr so stray
    # prints from task code can never corrupt the frame stream.
    out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    in_fd = sys.stdin.fileno()

    lock = threading.Lock()
    state: Dict[str, Any] = {"task": None}
    interval = float(os.environ.get(HEARTBEAT_ENV, "0.5") or "0.5")
    heartbeat = _Heartbeat(out, lock, interval, state)
    heartbeat.start()
    context = WorkerContext()
    try:
        _send(out, lock, FrameKind.HELLO, {"pid": os.getpid()})
    except (BrokenPipeError, OSError):
        return 1

    reader = FrameReader()
    while True:
        try:
            data = os.read(in_fd, 1 << 16)
        except OSError:
            return 1
        if not data:
            return 0  # supervisor closed our stdin: clean shutdown
        for frame in reader.feed(data):
            try:
                if frame.kind is FrameKind.SHUTDOWN:
                    heartbeat.stop_event.set()
                    return 0
                if frame.kind is FrameKind.SETUP:
                    seq, key, fn_path, payload = frame.payload
                    try:
                        context.setups[key] = resolve_callable(fn_path)(
                            context, payload
                        )
                    except BaseException as exc:  # noqa: BLE001
                        _send_error(out, lock, ("__setup__", seq, key), exc)
                elif frame.kind is FrameKind.TASK:
                    key, fn_path, payload = frame.payload
                    state["task"] = key
                    try:
                        _run_task(out, lock, context, key, fn_path, payload)
                    finally:
                        state["task"] = None
            except (BrokenPipeError, OSError):
                return 1


if __name__ == "__main__":
    sys.exit(main())
