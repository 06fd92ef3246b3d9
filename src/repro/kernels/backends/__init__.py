"""Kernel backend registry: named execution strategies for the hot primitives.

See :mod:`repro.kernels.backends.base` for the backend contract.  Importing
this package registers the three backends:

* ``"numpy"`` — the serial reference implementation (always available);
* ``"threaded"`` — segment-aligned chunks on a shared-memory thread pool
  (:mod:`~repro.kernels.backends.threaded`);
* ``"procpool"`` — the same chunk geometry on supervised worker
  *processes* over the execution fabric
  (:mod:`~repro.kernels.backends.procpool`): GIL-free overlap on
  multicore hosts plus transparent recovery from killed or hung workers;
  degrades to the serial reference on single-CPU hosts.

Every fit names its backend; any other name is rejected with
``unknown kernel backend``.  The three compute bitwise-equal factor rows,
so the choice moves wall time, never the model.

Consumers map the user-facing ``backend=`` knob (a registered name, a
:class:`~repro.kernels.backends.base.KernelBackend` instance or
``None``) to a concrete backend with :func:`resolve_backend`; new
strategies subclass :class:`KernelBackend` and call
:func:`register_backend` once at import time.

Every backend consumes entry blocks in either layout — the conventional
``(m, N)`` int64 matrix or the narrow columnar
:class:`~repro.columns.IndexColumns` of format-v2 shard stores and
in-RAM mode contexts — without widening copies, and
produces bit-identical results for both.
"""

from .base import (
    BackendSpec,
    KernelBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from .threaded import ThreadedBackend
from .procpool import ProcpoolBackend

register_backend(NumpyBackend())
register_backend(ThreadedBackend())
register_backend(ProcpoolBackend())

__all__ = [
    "BackendSpec",
    "KernelBackend",
    "NumpyBackend",
    "ProcpoolBackend",
    "ThreadedBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
