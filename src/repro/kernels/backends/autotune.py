"""Autotuned per-block backend dispatch.

Which backend wins depends on the *shape class* of the work — tensor
order, core rank profile, and how many entries a block carries — not on
the data values.  The :class:`Autotuner` therefore times the candidate
backends once per shape class on a real calibration block, caches the
winner, and answers every later block of that class from the cache.

Two cache layers:

* an in-process dict (always on) — one calibration per shape class per
  process;
* an optional JSON file (``cache_path`` or the ``REPRO_AUTOTUNE_CACHE``
  environment variable) that persists winners across processes, so e.g.
  repeated CLI runs skip recalibration.

The candidates are the backends' per-sweep *row solvers*
(:meth:`~repro.kernels.backends.base.KernelBackend.make_row_solver`), the
unit a sweep actually runs: δ contraction, reduction and the row solves
of :func:`~repro.kernels.solve.solve_segments`.  Calibration is not
thrown away: every candidate computes the block's actual
``(rows, B, c)`` result while being timed, and the winner's result is
returned to the caller, so the first block of a shape class costs one
extra pass per losing candidate and nothing more.  The winner is chosen
purely by measurement — a backend that measures slower on the calibration
block is never selected for that shape class.
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ...resilience.atomic import atomic_write_json
from .base import (
    KernelBackend,
    RowSolverKernel,
    available_backends,
    get_backend,
)

#: Shape classes bucket block sizes by power of two: a 90k-entry and a
#: 100k-entry block behave identically, a 1k and a 100k block do not.
def block_size_bucket(n_entries: int) -> int:
    """Power-of-two bucket of a block's entry count (0 for empty blocks)."""
    if n_entries <= 0:
        return 0
    return 1 << (int(n_entries) - 1).bit_length()


def shape_class_key(
    order: int, core_shape: Sequence[int], n_entries: int
) -> str:
    """Cache key of one (order, rank profile, block-size bucket) class.

    The ``solver=rows`` prefix names the unit that was timed, the row
    solver: winners persisted by builds that timed the normal-equations
    kernel carry no prefix, miss, and are recalibrated once.
    """
    ranks = "x".join(str(int(r)) for r in core_shape)
    return (
        f"solver=rows|order={order}|ranks={ranks}"
        f"|block={block_size_bucket(n_entries)}"
    )


def _measure(
    kernel: RowSolverKernel,
    args: Tuple,
    repeats: int,
) -> Tuple[float, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Best-of-``repeats`` wall time of one row-solver call, plus its result."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = perf_counter()
        result = kernel(*args)
        best = min(best, perf_counter() - start)
    return best, result


class Autotuner:
    """Per-shape-class winner cache over measured backend timings.

    Parameters
    ----------
    cache_path:
        Optional JSON file persisting ``{shape class: winner}`` across
        processes.  Missing or unreadable files are treated as empty; the
        file is rewritten after every new calibration.
    timer:
        Measurement hook with the signature of :func:`_measure`; tests
        substitute a stub to make timing deterministic.
    repeats:
        Timing repeats per candidate (best-of).
    """

    def __init__(
        self,
        cache_path: Optional[str] = None,
        timer: Callable = _measure,
        repeats: int = 2,
    ) -> None:
        self.cache_path = cache_path
        self.repeats = int(repeats)
        self._timer = timer
        self._choices: Dict[str, str] = {}
        self._timings: Dict[str, Dict[str, float]] = {}
        if cache_path:
            self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            with open(self.cache_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            choices = payload.get("choices", {})
            if isinstance(choices, dict):
                self._choices.update(
                    {str(k): str(v) for k, v in choices.items()}
                )
        except (OSError, ValueError):
            pass

    def _save(self) -> None:
        if not self.cache_path:
            return
        payload = {"choices": self._choices, "timings": self._timings}
        # Atomic, so a crash or a concurrent writer never leaves a torn
        # file that ``_load`` would read as an empty cache.
        try:
            atomic_write_json(self.cache_path, payload)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[str]:
        """The cached winner of a shape class, or None if never calibrated."""
        return self._choices.get(key)

    def pick(
        self,
        key: str,
        candidates: Dict[str, RowSolverKernel],
        args: Tuple,
    ) -> Tuple[str, Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """Winner name for ``key``; calibrate on ``args`` at most once.

        On a cache hit returns ``(name, None)`` without invoking the timer
        — the caller runs the winner itself.  On a miss, every candidate
        is timed on the calibration block and ``(name, winner_result)`` is
        returned so the calibration work is not repeated.
        """
        cached = self._choices.get(key)
        if cached in candidates:
            return cached, None
        timings: Dict[str, float] = {}
        results = {}
        for name, kernel in candidates.items():
            timings[name], results[name] = self._timer(
                kernel, args, self.repeats
            )
        winner = min(timings, key=timings.get)
        self._choices[key] = winner
        self._timings[key] = timings
        self._save()
        return winner, results[winner]

    def timings(self, key: str) -> Dict[str, float]:
        """Calibration timings recorded for a shape class (this process)."""
        return dict(self._timings.get(key, {}))


class AutoBackend(KernelBackend):
    """Backend that dispatches each block to the autotuned row solver.

    The candidate set defaults to every registered backend; per block the
    row solver of the tuner's winner for the block's shape class executes.
    Per-sweep setup (precontraction tables, worker setup) happens lazily
    per candidate, so once a shape class has a cached winner only the
    winner pays it.
    """

    name = "auto"

    def __init__(
        self,
        tuner: Optional[Autotuner] = None,
        candidates: Optional[Sequence[str]] = None,
    ) -> None:
        self.tuner = tuner if tuner is not None else Autotuner()
        self.candidates = (
            list(candidates) if candidates is not None else available_backends()
        )

    def make_row_solver(
        self,
        factors: Sequence[np.ndarray],
        core: np.ndarray,
        mode: int,
        regularization: float,
        expected_entries: int,
    ) -> RowSolverKernel:
        core_shape = tuple(np.asarray(core).shape)
        order = len(factors)
        # Candidate row solvers are built on demand: after the tuner has a
        # winner for a shape class, the losers' per-sweep setup (identical
        # precontraction tables, worker setup) is never repeated.
        built: Dict[str, RowSolverKernel] = {}

        def solver_for(name: str) -> RowSolverKernel:
            if name not in built:
                built[name] = get_backend(name).make_row_solver(
                    factors, core, mode, regularization, expected_entries
                )
            return built[name]

        def solver(
            indices_block: np.ndarray,
            values_block: np.ndarray,
            starts: np.ndarray,
            lo: int,
            hi: int,
        ):
            args = (indices_block, values_block, starts, lo, hi)
            key = shape_class_key(order, core_shape, indices_block.shape[0])
            cached = self.tuner.lookup(key)
            if cached in self.candidates:
                return solver_for(cached)(*args)
            winner, result = self.tuner.pick(
                key, {name: solver_for(name) for name in self.candidates}, args
            )
            if result is not None:
                return result
            return solver_for(winner)(*args)

        return solver


_DEFAULT_AUTO: Optional[AutoBackend] = None


def default_auto_backend() -> AutoBackend:
    """The shared ``backend="auto"`` dispatcher (one tuner per process).

    Its persistent cache file comes from the ``REPRO_AUTOTUNE_CACHE``
    environment variable when set; otherwise winners live only in this
    process.
    """
    global _DEFAULT_AUTO
    if _DEFAULT_AUTO is None:
        cache_path = os.environ.get("REPRO_AUTOTUNE_CACHE") or None
        _DEFAULT_AUTO = AutoBackend(tuner=Autotuner(cache_path=cache_path))
    return _DEFAULT_AUTO
