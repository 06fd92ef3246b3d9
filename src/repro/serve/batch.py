"""Micro-batching: coalesce concurrent requests into one kernel call.

One top-K query pays the full read of the item mode's float32 screen
matrix (``J_m × I_m`` float32 values, half the bytes of ``U_m`` itself);
a batch of B queries pays it once and amortises it B ways — on the
serving box that memory traffic, not FLOPs, is the per-query cost.
:class:`MicroBatcher` therefore holds each arriving request for at most
``max_wait_ms`` while more requests of the same kind accumulate, then
executes the whole group as one call to the handler.

Correctness note: batching is *free* here — the model's kernels are
batch-invariant (see :mod:`repro.serve.topk` and the ``batch_invariant``
contraction flag), so a request's answer is bitwise identical whether it
rode alone or in a full batch.  The batcher only changes latency and
throughput, never results.

Requests are grouped by an opaque ``group`` key (query kind plus every
parameter that must match for requests to share a kernel call, e.g.
``("topk", mode, k)``).  Occupancy statistics go to a shared
:class:`repro.metrics.Counters`: ``batch.requests``, ``batch.batches``,
``batch.full_flushes`` and ``batch.max_occupancy`` feed the server's
``/stats`` endpoint, so mean occupancy is ``requests / batches`` with no
second counting mechanism.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from ..metrics import Counters

#: Default maximum requests coalesced into one kernel call.
DEFAULT_MAX_BATCH = 256

#: Default maximum milliseconds a request waits for companions.
DEFAULT_MAX_WAIT_MS = 2.0

#: ``handler(group, payloads) -> results`` — one result per payload, same
#: order.  Runs in an executor, so it may block on CPU work.
BatchHandler = Callable[[Hashable, List[Any]], List[Any]]


class MicroBatcher:
    """Coalesces awaited requests into bounded, time-limited batches.

    Each pending group flushes when it reaches ``max_batch`` requests or
    when its oldest request has waited ``max_wait_ms`` — whichever comes
    first; a lone request therefore never waits longer than the deadline.
    Handler execution happens in the event loop's default executor so the
    loop keeps accepting (and grouping) requests while a batch computes.
    """

    def __init__(
        self,
        handler: BatchHandler,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        counters: Optional[Counters] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.handler = handler
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.counters = counters if counters is not None else Counters()
        self._pending: Dict[
            Hashable, List[Tuple[Any, "asyncio.Future[Any]"]]
        ] = {}
        self._timers: Dict[Hashable, "asyncio.TimerHandle"] = {}
        self._inflight: Set["asyncio.Task[None]"] = set()
        self._closed = False

    async def submit(self, group: Hashable, payload: Any) -> Any:
        """Enqueue one request and await its result.

        Raises whatever the handler raised for the batch the request
        landed in; raises ``RuntimeError`` after :meth:`close`.
        """
        if self._closed:
            raise RuntimeError("MicroBatcher is closed")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        bucket = self._pending.setdefault(group, [])
        bucket.append((payload, future))
        self.counters.add("batch.requests")
        if len(bucket) >= self.max_batch:
            self._flush(group, reason="full")
        elif group not in self._timers:
            self._timers[group] = loop.call_later(
                self.max_wait_ms / 1e3, self._flush, group
            )
        return await future

    def _flush(self, group: Hashable, reason: str = "deadline") -> None:
        timer = self._timers.pop(group, None)
        if timer is not None:
            timer.cancel()
        bucket = self._pending.pop(group, None)
        if not bucket:
            return
        self.counters.add("batch.batches")
        if reason == "full":
            self.counters.add("batch.full_flushes")
        occupancy = len(bucket)
        if occupancy > self.counters.get("batch.max_occupancy"):
            self.counters.values["batch.max_occupancy"] = occupancy
        loop = asyncio.get_running_loop()
        task = loop.create_task(self._run_batch(group, bucket))
        # Keep a strong reference until done (asyncio only holds weakly).
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(
        self, group: Hashable, bucket: List[Tuple[Any, "asyncio.Future[Any]"]]
    ) -> None:
        payloads = [payload for payload, _ in bucket]
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                None, self.handler, group, payloads
            )
            if len(results) != len(payloads):
                raise RuntimeError(
                    f"batch handler returned {len(results)} results "
                    f"for {len(payloads)} requests"
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to awaiters
            for _, future in bucket:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(bucket, results):
            if not future.done():
                future.set_result(result)

    async def drain(self) -> None:
        """Flush everything pending and wait for in-flight batches."""
        for group in list(self._pending):
            self._flush(group, reason="drain")
        inflight = list(self._inflight)
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)

    async def close(self) -> None:
        """Drain, then reject all future submissions."""
        self._closed = True
        await self.drain()

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready occupancy stats for ``/stats``."""
        requests = self.counters.get("batch.requests")
        batches = self.counters.get("batch.batches")
        return {
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "requests": requests,
            "batches": batches,
            "full_flushes": self.counters.get("batch.full_flushes"),
            "max_occupancy": self.counters.get("batch.max_occupancy"),
            "mean_occupancy": (requests / batches) if batches else 0.0,
        }
