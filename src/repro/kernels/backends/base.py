"""Backend interface and registry for the hot kernel primitives.

A *backend* is a named execution strategy for the row-wise update.  Its
one per-block entry point is the per-sweep *row solver*
(:meth:`KernelBackend.make_row_solver`): the δ contraction
(:func:`~repro.kernels.contraction.make_delta_contractor`) followed by
:func:`~repro.kernels.solve.solve_segments`, which solves a row of
``k < J`` entries in its ``k × k`` dual form and a longer row through
its normal equations, and hands back factor rows — ``(B, c)`` only for
the rows a block boundary splits.  Beside it sits the batched row solve
(:meth:`KernelBackend.solve_rows`, over
:func:`~repro.kernels.solve.solve_rows`) that finishes the split rows.
Every backend must produce the same values as the reference NumPy
implementation up to floating-point associativity; only the execution
strategy (serial NumPy, shared-memory threads, worker processes) may
differ.

Backends register themselves by name in a process-global registry;
:func:`resolve_backend` maps the user-facing ``backend=`` knob (a name, a
:class:`KernelBackend` instance, or ``"auto"``) to a concrete backend.  A
name that is not registered is an error: every name runs the backend it
names.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from ..contraction import make_delta_contractor
from ..solve import solve_rows, solve_segments

#: Signature of a per-sweep row solver: maps one mode-sorted entry block
#: ``(indices, values, segment_starts, lo, hi)`` to ``(rows, B, c)`` — the
#: solved factor rows of segments ``[lo, hi)`` and the ``(B, c)`` stacks of
#: the segments outside that range, in segment order.
RowSolverKernel = Callable[
    [np.ndarray, np.ndarray, np.ndarray, int, int],
    Tuple[np.ndarray, np.ndarray, np.ndarray],
]


class KernelBackend:
    """Base class: the reference (serial NumPy) execution strategy.

    Subclasses override :meth:`make_row_solver` (the per-sweep pass that
    dominates a sweep) and, optionally, :meth:`solve_rows`.  The base
    implementations are the plain :mod:`repro.kernels` functions, so a
    subclass only has to replace the pieces its strategy actually
    accelerates.
    """

    #: Registry name; subclasses must override.
    name = "numpy"

    # -- per-sweep pass -------------------------------------------------
    def make_row_solver(
        self,
        factors: Sequence[np.ndarray],
        core: np.ndarray,
        mode: int,
        regularization: float,
        expected_entries: int,
    ) -> RowSolverKernel:
        """Build the per-sweep ``(indices, values, starts, lo, hi)`` row solver.

        The returned callable solves the block's complete segments
        ``[lo, hi)`` into factor rows (Eq. 9) and returns ``(B, c)`` only
        for the segments outside that range.  This implementation
        contracts δ and hands it to
        :func:`~repro.kernels.solve.solve_segments`, which solves a row
        of ``k < J`` entries in its ``k × k`` dual form and a longer one
        through its normal equations; backends that contract elsewhere
        (``threaded`` chunks, ``procpool`` workers) solve there with the
        same primitive.
        """
        contractor = make_delta_contractor(factors, core, mode, expected_entries)

        def solver(
            indices_block: np.ndarray,
            values_block: np.ndarray,
            starts: np.ndarray,
            lo: int,
            hi: int,
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            return solve_segments(
                contractor(indices_block), values_block, starts,
                regularization, lo, hi,
            )

        return solver

    # -- split-row solve -------------------------------------------------
    def solve_rows(
        self,
        b_matrices: np.ndarray,
        c_vectors: np.ndarray,
        regularization: float,
    ) -> np.ndarray:
        """Batched per-row ridge solve (Eq. 9)."""
        return solve_rows(b_matrices, c_vectors, regularization)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class NumpyBackend(KernelBackend):
    """The always-available serial NumPy reference backend.

    Identical to :class:`KernelBackend`'s defaults; the subclass exists so
    the registry and reprs name the strategy explicitly.
    """

    name = "numpy"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry under its ``name`` (last wins)."""
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> List[str]:
    """Names of the registered backends, reference backend first."""
    names = sorted(_REGISTRY)
    if "numpy" in names:
        names.remove("numpy")
        names.insert(0, "numpy")
    return names


def get_backend(name: str) -> KernelBackend:
    """Look up a registered backend by name; an unknown name raises."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel backend {name!r}; available: "
            f"{available_backends()} (or 'auto')"
        ) from None


BackendSpec = Union[str, KernelBackend, None]


def resolve_backend(spec: BackendSpec) -> KernelBackend:
    """Map a ``backend=`` argument to a concrete :class:`KernelBackend`.

    ``None`` means the reference backend; ``"auto"`` returns the shared
    autotuned dispatcher; a :class:`KernelBackend` instance passes through
    unchanged; any other string is a registry lookup.
    """
    if spec is None:
        return _REGISTRY["numpy"]
    if isinstance(spec, KernelBackend):
        return spec
    if spec == "auto":
        from .autotune import default_auto_backend

        return default_auto_backend()
    return get_backend(spec)


def backend_names_for_cli() -> List[str]:
    """The valid ``backend=`` strings: ``"auto"`` plus the registered names."""
    return ["auto"] + sorted(available_backends())
