"""Supervised multi-process execution fabric.

The fabric is the robustness layer under the library's one
multi-process feature, the ``procpool`` kernel backend: a pool of
**spawned worker processes** (fresh interpreters,
``python -m repro.fabric.worker``) driven over a **length-prefixed pipe
protocol** (:mod:`~repro.fabric.protocol`) by a supervisor state machine
(:mod:`~repro.fabric.supervisor`) that detects and recovers from every
worker failure mode the process model admits:

* **dead** — the worker exited or was SIGKILLed/OOM-killed; detected by
  EOF on its pipe or ``waitpid``, its unfinished tasks are re-dispatched.
* **hung** — the worker stopped heartbeating (SIGSTOP, a wedged C call)
  or a task overran its **deadline**; the supervisor SIGKILLs it and
  re-dispatches, so a stuck process can never stall a sweep forever.
* **poisoned** — the *same task* keeps killing fresh workers; after a
  bounded number of kills the task is declared poisoned and surfaced as
  :class:`~repro.fabric.supervisor.PoisonedTaskError` instead of burning
  through the pool.

Re-dispatch waits out an exponential backoff with decorrelated jitter
(:mod:`repro.resilience.retry`), and near the end of a task wave the
supervisor **hedges**: the slowest outstanding task is duplicated onto an
idle worker and the first result wins.  Because task functions are pure
and results are merged by task identity in submission order, recovery and
hedging are invisible in the output — a disturbed run is bitwise
identical to an undisturbed one, which the chaos suite asserts with real
SIGKILL/SIGSTOP/wedge faults.

Consumer: the ``procpool`` kernel backend
(:mod:`repro.kernels.backends.procpool`), which runs every process-parallel
row update.  Serving is in-process and never imports this package.
"""

from .protocol import Frame, FrameKind, FrameReader, decode_payload, encode_frame
from .supervisor import (
    FabricError,
    PoisonedTaskError,
    Task,
    TaskRetryError,
    TaskSupervisor,
    WorkerSetupError,
)

__all__ = [
    "FabricError",
    "Frame",
    "FrameKind",
    "FrameReader",
    "PoisonedTaskError",
    "Task",
    "TaskRetryError",
    "TaskSupervisor",
    "WorkerSetupError",
    "decode_payload",
    "encode_frame",
]
