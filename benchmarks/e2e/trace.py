"""Spans and counters for the traced run, recorded from outside ``src/``.

The traced run repeats a workload in-process through the same public calls
the CLI commands make, with thin wrappers at each layer boundary: a reader
proxy, a shard-store subclass, a sweep-executor subclass, a timing kernel
backend registered by name, and a temporary rebinding of the in-core
fit loop's two per-iteration calls.  Each wrapper delegates to the real
object and only reads the clock, so the traced model must equal the
untraced CLI model bit for bit (the run checks it).

Spans are kept in memory as ``(name, start, end, parent)`` and written out
as JSON when the run ends; a span's self time is its duration minus the
time its direct children cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

#: Registry name of the timing backend (never used by the program itself).
TIMED_BACKEND = "e2e-timed"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.spans: List[Optional[Span]] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def finished(self) -> List[Span]:
        return [s for s in self.spans if s is not None]

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.finished() if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def calls(self, name: str) -> int:
        return len(self.durations(name))

    def self_time(self, name: str, child: Optional[str] = None) -> float:
        """Total self time of the spans called ``name``.

        With ``child``, only spans that have at least one direct child of
        that name count (a kernel block whose reduction ran in-process).
        """
        covered: Dict[int, float] = {}
        child_names: Dict[int, set] = {}
        for span in self.finished():
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
                child_names.setdefault(span.parent, set()).add(span.name)
        return sum(
            span.seconds - covered.get(index, 0.0)
            for index, span in enumerate(self.spans)
            if span is not None
            and span.name == name
            and (child is None or child in child_names.get(index, ()))
        )

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        payload = {
            "workload": self.workload,
            "run_id": self.run_id,
            "spans": [
                dict(asdict(s), index=i)
                for i, s in enumerate(self.spans)
                if s is not None
            ],
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------


class TimedReader:
    """Entry-reader proxy: each chunk the build pulls is a ``tensor.parse`` span."""

    def __init__(self, reader, tracer: Tracer) -> None:
        self._reader = reader
        self._tracer = tracer

    @property
    def shape(self):
        return self._reader.shape

    @property
    def order(self):
        return self._reader.order

    def iter_entry_chunks(self, chunk_nnz):
        chunks = self._reader.iter_entry_chunks(chunk_nnz)
        while True:
            with self._tracer.span("tensor.parse"):
                chunk = next(chunks, None)
            if chunk is None:
                return
            yield chunk


def timed_store_class(tracer: Tracer):
    """A :class:`ShardStore` subclass whose block reads are ``shards.read`` spans.

    The store's own classmethods (``open``, ``for_tensor``) build instances
    of ``cls``, so the subclass slots into the CLI's exact call sequence.
    """
    from repro.shards import ShardStore

    class TimedStore(ShardStore):
        def read_mode_block(self, mode, start, stop):
            with tracer.span("shards.read"):
                block, values = super().read_mode_block(mode, start, stop)
            tracer.count("shards.read_bytes", block.nbytes + values.nbytes)
            return block, values

    return TimedStore


def traced_executor_class(tracer: Tracer):
    """A :class:`ShardedSweepExecutor` timing its per-mode and residual calls."""
    from repro.shards import ShardedSweepExecutor

    class TracedExecutor(ShardedSweepExecutor):
        def update_factor_mode(self, *args, **kwargs):
            with tracer.span("fit.mode_update"):
                return super().update_factor_mode(*args, **kwargs)

        def error_and_loss(self, *args, **kwargs):
            with tracer.span("fit.residual"):
                return super().error_and_loss(*args, **kwargs)

    return TracedExecutor


@contextlib.contextmanager
def traced_incore_fit(tracer: Tracer) -> Iterator[None]:
    """Time the in-core fit loop's per-mode update and residual pass.

    ``PTucker.fit`` calls the module-level ``update_factor_mode`` and
    ``error_and_loss`` of :mod:`repro.core.ptucker`; they are rebound to
    timing wrappers for the duration of the block and restored after.
    """
    from repro.core import ptucker

    originals = {
        "update_factor_mode": ("fit.mode_update", ptucker.update_factor_mode),
        "error_and_loss": ("fit.residual", ptucker.error_and_loss),
    }

    def wrap(span_name, function):
        def timed(*args, **kwargs):
            with tracer.span(span_name):
                return function(*args, **kwargs)

        return timed

    for attribute, (span_name, function) in originals.items():
        setattr(ptucker, attribute, wrap(span_name, function))
    try:
        yield
    finally:
        for attribute, (_, function) in originals.items():
            setattr(ptucker, attribute, function)


def register_timed_backend(tracer: Tracer, delegate: str):
    """Register :data:`TIMED_BACKEND`, a timing subclass of backend ``delegate``.

    The subclass times ``make_normal_equations_kernel`` (``kernels.setup``;
    under ``procpool`` it includes the factor broadcast), every block the
    returned kernel processes (``kernels.ne_block``), the reduction
    (``kernels.reduce``, only where it runs in this process) and the
    batched solve (``kernels.solve``), and counts entries and rows.
    """
    from repro.kernels.backends import get_backend, register_backend

    base = type(get_backend(delegate))

    class TimedBackend(base):
        name = TIMED_BACKEND

        def make_normal_equations_kernel(self, factors, core, mode, expected_entries):
            with tracer.span("kernels.setup"):
                kernel = super().make_normal_equations_kernel(
                    factors, core, mode, expected_entries
                )
            tracer.count(
                "kernels.setup_bytes",
                sum(f.nbytes for f in factors) + core.nbytes,
            )

            def timed(indices_block, values_block, starts):
                with tracer.span("kernels.ne_block"):
                    b_matrices, c_vectors = kernel(indices_block, values_block, starts)
                tracer.count("kernels.entries", indices_block.shape[0])
                tracer.count(
                    "kernels.block_bytes",
                    indices_block.nbytes + values_block.nbytes + starts.nbytes,
                )
                tracer.count("kernels.result_bytes", b_matrices.nbytes + c_vectors.nbytes)
                return b_matrices, c_vectors

            return timed

        def normal_equations_sorted(self, deltas, values, starts):
            with tracer.span("kernels.reduce"):
                return super().normal_equations_sorted(deltas, values, starts)

        def solve_rows(self, b_matrices, c_vectors, regularization):
            with tracer.span("kernels.solve"):
                rows = super().solve_rows(b_matrices, c_vectors, regularization)
            tracer.count("kernels.rows_solved", b_matrices.shape[0])
            return rows

    backend = TimedBackend()
    register_backend(backend)
    return backend
