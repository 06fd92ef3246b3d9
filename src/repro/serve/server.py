"""Stdlib asyncio front end: HTTP and stdin JSON-lines serving.

No web framework is assumed (or available): the HTTP side is a minimal
``asyncio.start_server`` loop speaking enough HTTP/1.1 for JSON request /
response bodies, and the pipe side reads one JSON object per line from
stdin and writes one JSON object per line to stdout — the same operations
over both transports:

==============  =====================================================
HTTP            stdin JSON-lines
==============  =====================================================
``GET /health``  ``{"op": "health"}``
``GET /stats``   ``{"op": "stats"}``
``POST /predict``  ``{"op": "predict", "indices": [[...], ...]}``
``POST /topk``   ``{"op": "topk", "context": [...], "mode": m, "k": k}``
``POST /shutdown``  ``{"op": "shutdown"}`` (or EOF on stdin)
==============  =====================================================

Every query is submitted through the :class:`~repro.serve.batch.MicroBatcher`,
so concurrent requests coalesce into one kernel call; because the model's
kernels are batch-invariant this changes latency, never answers.  The
``/stats`` payload is assembled purely from the structured
:class:`~repro.metrics.Counters` / :class:`~repro.metrics.LatencyWindow`
snapshots of the model, caches, batcher and per-operation latency — there
is no separate serving-stats bookkeeping to drift out of sync.

Shutdown is graceful from every direction — ``POST /shutdown``, the
``shutdown`` op, EOF on stdin, SIGTERM or SIGINT: in-flight requests are
drained through the batcher before the loop exits.

Serving is in-process: the batcher hands each coalesced group to the
:class:`~repro.serve.model.ServingModel` on an executor thread, and the
server is ready as soon as it exists (the constructor takes a loaded
model), so ``GET /health`` always answers 200.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
from typing import Any, Dict, List, Optional, Tuple

from ..exceptions import ReproError
from ..metrics import Counters, LatencyWindow
from .batch import DEFAULT_MAX_BATCH, DEFAULT_MAX_WAIT_MS, MicroBatcher
from .model import ServingModel

#: Largest accepted HTTP request body (1 MB of JSON indices is ~50k queries).
MAX_BODY_BYTES = 1 << 20


class ServingError(ReproError, ValueError):
    """A malformed serving request (HTTP 400 / JSON-lines error reply)."""


class ModelServer:
    """One model behind a micro-batcher, HTTP and/or stdin JSON-lines.

    The server owns the batcher and the latency windows; the event loop,
    sockets and signal handlers are created inside :meth:`run` so a
    single instance can be driven either by ``asyncio.run(server.run())``
    or piecewise from tests via :meth:`handle_request`.
    """

    def __init__(
        self,
        model: ServingModel,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
    ) -> None:
        self.model = model
        self.counters: Counters = model.counters
        self.batcher = MicroBatcher(
            self._execute_batch,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            counters=self.counters,
        )
        self.latency: Dict[str, LatencyWindow] = {
            "predict": LatencyWindow(),
            "topk": LatencyWindow(),
        }
        self.shutdown_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Batched execution (runs in the executor thread)
    # ------------------------------------------------------------------
    def _execute_batch(self, group: Tuple, payloads: List[Any]) -> List[Any]:
        kind = group[0]
        if kind == "predict":
            lengths = [len(p) for p in payloads]
            flat = [row for payload in payloads for row in payload]
            values = self.model.predict(flat)
            out: List[Any] = []
            offset = 0
            for length in lengths:
                out.append([float(v) for v in values[offset : offset + length]])
                offset += length
            return out
        if kind == "topk":
            _, mode, k, exclude = group
            results = self.model.topk_batch(payloads, mode, k, exclude)
            return [
                {
                    "items": [int(i) for i in r.items],
                    "scores": [float(s) for s in r.scores],
                }
                for r in results
            ]
        raise ServingError(f"unknown batch group {group!r}")

    # ------------------------------------------------------------------
    # Operations (shared by both transports)
    # ------------------------------------------------------------------
    async def op_predict(self, request: Dict[str, Any]) -> Dict[str, Any]:
        indices = request.get("indices")
        if indices is None and "index" in request:
            indices = [request["index"]]
        if not isinstance(indices, list) or not indices:
            raise ServingError(
                "predict needs 'indices': [[i_1, ..., i_N], ...] "
                "(or a single 'index')"
            )
        with self.latency["predict"].measure():
            values = await self.batcher.submit(("predict",), indices)
        return {"values": values}

    async def op_topk(self, request: Dict[str, Any]) -> Dict[str, Any]:
        contexts = request.get("contexts")
        single = contexts is None
        if single:
            context = request.get("context")
            if context is None:
                raise ServingError(
                    "topk needs 'context': [i_1, ..., i_N] "
                    "(or 'contexts': [...])"
                )
            contexts = [context]
        if not isinstance(contexts, list) or not contexts:
            raise ServingError("'contexts' must be a non-empty list")
        try:
            mode = int(request["mode"])
            k = int(request["k"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServingError("topk needs integer 'mode' and 'k'") from exc
        exclude = bool(request.get("exclude_observed", False))
        group = ("topk", mode, k, exclude)
        with self.latency["topk"].measure():
            results = await asyncio.gather(
                *(self.batcher.submit(group, tuple(c)) for c in contexts)
            )
        if single:
            return dict(results[0])
        return {"results": results}

    def op_stats(self) -> Dict[str, Any]:
        payload = self.model.stats()
        payload["batcher"] = self.batcher.snapshot()
        payload["latency"] = {
            name: window.snapshot() for name, window in self.latency.items()
        }
        return payload

    def op_health(self) -> Dict[str, Any]:
        return {"status": "ok", "ready": True}

    def request_shutdown(self) -> None:
        """Signal the run loop to drain and exit."""
        if self.shutdown_event is not None:
            self.shutdown_event.set()

    async def handle_request(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one decoded request; raises :class:`ServingError` on bad input."""
        if op == "predict":
            return await self.op_predict(request)
        if op == "topk":
            return await self.op_topk(request)
        if op == "stats":
            return self.op_stats()
        if op == "health":
            return self.op_health()
        if op == "shutdown":
            self.request_shutdown()
            return {"status": "shutting down"}
        raise ServingError(f"unknown operation {op!r}")

    # ------------------------------------------------------------------
    # HTTP transport
    # ------------------------------------------------------------------
    async def _http_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._http_one(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        body = (json.dumps(payload) + "\n").encode("utf-8")
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
        }.get(status, "Error")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
        )
        writer.write(body)
        with contextlib.suppress(ConnectionError):
            await writer.drain()
        writer.close()

    async def _http_one(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, Any]]:
        request_line = (await reader.readline()).decode("ascii", "replace")
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("ascii", "replace").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad Content-Length"}
        if content_length > MAX_BODY_BYTES:
            return 400, {"error": "request body too large"}
        request: Dict[str, Any] = {}
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                request = json.loads(raw)
            except json.JSONDecodeError as exc:
                return 400, {"error": f"invalid JSON body: {exc}"}
            if not isinstance(request, dict):
                return 400, {"error": "JSON body must be an object"}
        route = {
            ("GET", "/health"): "health",
            ("GET", "/stats"): "stats",
            ("POST", "/predict"): "predict",
            ("POST", "/topk"): "topk",
            ("POST", "/shutdown"): "shutdown",
        }.get((method, path))
        if route is None:
            return 404, {"error": f"no route for {method} {path}"}
        try:
            payload = await self.handle_request(route, request)
        except (ServingError, ReproError, ValueError) as exc:
            return 400, {"error": str(exc)}
        return 200, payload

    # ------------------------------------------------------------------
    # stdin JSON-lines transport
    # ------------------------------------------------------------------
    async def _stdio_loop(self) -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        while not reader.at_eof():
            line = await reader.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ServingError("each line must be a JSON object")
                op = str(request.get("op", ""))
                reply = await self.handle_request(op, request)
            except (ServingError, ReproError, ValueError) as exc:
                reply = {"error": str(exc)}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
            if self.shutdown_event is not None and self.shutdown_event.is_set():
                return
        # EOF on stdin: the driving process is gone, drain and leave.
        self.request_shutdown()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def run(
        self,
        host: Optional[str] = "127.0.0.1",
        port: int = 8763,
        stdio: bool = False,
    ) -> None:
        """Serve until shutdown is requested, then drain and return.

        ``host=None`` disables the HTTP listener (stdin-only serving);
        ``stdio=True`` additionally reads JSON-lines requests from stdin.
        A started server prints ``serving on http://HOST:PORT`` so
        callers (the CI smoke test, humans in a terminal) know the socket
        is live before the first request.
        """
        self.shutdown_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signame in ("SIGTERM", "SIGINT"):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(
                    getattr(signal, signame), self.request_shutdown
                )
        http_server = None
        if host is not None:
            http_server = await asyncio.start_server(
                self._http_connection, host=host, port=port
            )
            bound = http_server.sockets[0].getsockname()
            print(f"serving on http://{bound[0]}:{bound[1]}", flush=True)
        stdio_task = (
            asyncio.ensure_future(self._stdio_loop()) if stdio else None
        )
        try:
            await self.shutdown_event.wait()
        finally:
            if http_server is not None:
                http_server.close()
                await http_server.wait_closed()
            if stdio_task is not None:
                stdio_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await stdio_task
            await self.batcher.close()


def serve_model(
    model: ServingModel,
    host: Optional[str] = "127.0.0.1",
    port: int = 8763,
    stdio: bool = False,
    max_batch: int = DEFAULT_MAX_BATCH,
    max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
) -> None:
    """Blocking entry point: build a :class:`ModelServer` and run it."""
    server = ModelServer(model, max_batch=max_batch, max_wait_ms=max_wait_ms)
    asyncio.run(server.run(host=host, port=port, stdio=stdio))
