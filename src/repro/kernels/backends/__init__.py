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

``"auto"`` resolves to the autotuned dispatcher of
:mod:`~repro.kernels.backends.autotune`, which measures the candidates per
(order, rank profile, block size) shape class and always executes the
measured-fastest one.  Any other name is rejected with
``unknown kernel backend``.

Consumers map the user-facing ``backend=`` knob (a registered name, a
:class:`~repro.kernels.backends.base.KernelBackend` instance, ``"auto"``
or ``None``) to a concrete backend with :func:`resolve_backend`; new
strategies subclass :class:`KernelBackend` and call
:func:`register_backend` once at import time.

Every backend consumes entry blocks in either layout — the conventional
``(m, N)`` int64 matrix or the narrow columnar
:class:`~repro.columns.IndexColumns` of format-v2 shard stores and
``index_dtype="auto"`` mode contexts — without widening copies, and
produces bit-identical results for both.
"""

from .base import (
    BackendSpec,
    KernelBackend,
    NumpyBackend,
    available_backends,
    backend_names_for_cli,
    get_backend,
    register_backend,
    resolve_backend,
)
from .threaded import ThreadedBackend
from .procpool import ProcpoolBackend
from .autotune import AutoBackend, Autotuner, block_size_bucket, shape_class_key

register_backend(NumpyBackend())
register_backend(ThreadedBackend())
register_backend(ProcpoolBackend())

__all__ = [
    "AutoBackend",
    "Autotuner",
    "BackendSpec",
    "KernelBackend",
    "NumpyBackend",
    "ProcpoolBackend",
    "ThreadedBackend",
    "available_backends",
    "backend_names_for_cli",
    "block_size_bucket",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "shape_class_key",
]
