"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  The memory model raises
:class:`OutOfMemoryError` when an algorithm's intermediate data exceeds the
configured budget, mirroring the O.O.M. failures reported in the paper.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ShapeError(ReproError, ValueError):
    """Raised when tensor shapes, ranks, or mode indices are inconsistent."""


class DataFormatError(ReproError, ValueError):
    """Raised when parsing a tensor file with malformed content."""


class ConvergenceError(ReproError, RuntimeError):
    """Raised when a solver is asked to run in a state it cannot handle."""


class WorkerFailureError(ReproError, RuntimeError):
    """Raised when parallel worker processes keep dying past the retry budget.

    The ``procpool`` backend survives individual worker deaths, hangs and
    wedged tasks: its fabric supervisor respawns the worker and
    re-dispatches only the unfinished chunks.  This error surfaces only
    after that bounded re-dispatch budget is exhausted (or a chunk is
    quarantined as poisoned); its message names the mode being updated
    and the rows still outstanding so the failure is actionable.  An
    exception *raised* inside a worker is a real bug, not a death, and
    propagates unwrapped.
    """


class OutOfMemoryError(ReproError, MemoryError):
    """Raised by the memory model when intermediate data exceeds the budget.

    The paper runs every competitor on a 512 GB machine and reports
    "O.O.M." for algorithms whose intermediate data do not fit.  This
    reproduction accounts for intermediate data explicitly
    (:mod:`repro.metrics.memory`) and raises this error when a configured
    budget is exceeded, which lets the experiments reproduce the O.O.M.
    entries of Figures 6, 7 and 11 deterministically.
    """

    def __init__(self, requested_bytes: int, budget_bytes: int, what: str = "") -> None:
        self.requested_bytes = int(requested_bytes)
        self.budget_bytes = int(budget_bytes)
        self.what = what
        detail = f" for {what}" if what else ""
        super().__init__(
            f"intermediate data{detail} needs {self.requested_bytes} bytes, "
            f"budget is {self.budget_bytes} bytes"
        )
