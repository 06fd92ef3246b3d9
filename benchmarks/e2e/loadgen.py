"""Closed-loop HTTP load from one asyncio process.

``connections`` coroutines share one request list; each sends its next
request only after the previous reply arrived, so a slower server simply
receives less load (a closed loop).  Each request opens its own TCP
connection because the server answers with ``Connection: close``; the
recorded latency runs from the connect call to the last byte of the reply.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

REQUEST_TIMEOUT_S = 30.0

#: Request mix of the topk-http stream: kind -> share.
MIX = (("topk", 0.70), ("batch_topk", 0.10), ("predict", 0.20))
TOPK_MODE = 1
TOPK_K = 10
BATCH_CONTEXTS = 32
PREDICT_CELLS = 8


@dataclass
class Reply:
    kind: str
    seconds: float
    status: int
    body: Optional[Dict[str, Any]]


def request_stream(
    shape: Sequence[int], count: int, seed: int
) -> List[Tuple[str, str, Dict[str, Any]]]:
    """``(kind, path, payload)`` requests, a pure function of the seed.

    Single top-K contexts draw users from a Zipf-like law, so the server's
    projection cache sees repeats; batches and predictions draw uniformly.
    """
    rng = np.random.default_rng([seed, 7])
    n_users, n_items, n_hours = shape
    weights = 1.0 / np.arange(1, n_users + 1, dtype=np.float64) ** 1.1
    weights = weights[rng.permutation(n_users)]
    weights /= weights.sum()
    kinds = rng.choice(len(MIX), size=count, p=[share for _, share in MIX])
    users = rng.choice(n_users, size=count, p=weights).tolist()
    hours = rng.integers(n_hours, size=count).tolist()
    requests = []
    for position, kind_index in enumerate(kinds):
        kind = MIX[kind_index][0]
        if kind == "topk":
            context = [users[position], hours[position]]
            payload = {"context": context, "mode": TOPK_MODE, "k": TOPK_K}
            requests.append((kind, "/topk", payload))
        elif kind == "batch_topk":
            contexts = np.column_stack(
                [
                    rng.integers(n_users, size=BATCH_CONTEXTS),
                    rng.integers(n_hours, size=BATCH_CONTEXTS),
                ]
            ).tolist()
            payload = {"contexts": contexts, "mode": TOPK_MODE, "k": TOPK_K}
            requests.append((kind, "/topk", payload))
        else:
            cells = np.column_stack(
                [rng.integers(dim, size=PREDICT_CELLS) for dim in shape]
            ).tolist()
            requests.append((kind, "/predict", {"indices": cells}))
    return requests


async def _http(host: str, port: int, method: str, path: str, payload=None) -> Tuple[int, Any]:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("ascii")
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, content = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(content) if content else None


def call(host: str, port: int, method: str, path: str, payload=None) -> Tuple[int, Any]:
    """One blocking request (set-up, warm-up, stats and shutdown calls)."""
    return asyncio.run(
        asyncio.wait_for(_http(host, port, method, path, payload), REQUEST_TIMEOUT_S)
    )


async def _closed_loop(host, port, requests, connections) -> List[Reply]:
    replies: List[Optional[Reply]] = [None] * len(requests)
    cursor = iter(range(len(requests)))

    async def client() -> None:
        for index in cursor:
            kind, path, payload = requests[index]
            started = time.perf_counter()
            try:
                status, body = await asyncio.wait_for(
                    _http(host, port, "POST", path, payload), REQUEST_TIMEOUT_S
                )
            except (OSError, asyncio.TimeoutError, ValueError, IndexError):
                status, body = 0, None
            replies[index] = Reply(kind, time.perf_counter() - started, status, body)

    await asyncio.gather(*(client() for _ in range(connections)))
    return [r for r in replies if r is not None]


def run_closed_loop(host: str, port: int, requests, connections: int = 2) -> List[Reply]:
    """Send ``requests`` over ``connections`` closed-loop clients, in order."""
    return asyncio.run(_closed_loop(host, port, requests, connections))
