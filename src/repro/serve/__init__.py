"""Low-latency serving over a fitted Tucker model.

Training answers "what are the factors"; this package answers "what does
the model say, right now, for this user" without ever reconstructing the
dense tensor:

* :mod:`repro.serve.model` — :class:`ServingModel` loads factors + core
  once (model ``.npz`` or checkpoint directory), answers point
  predictions through the batch-invariant value contractor and top-K
  queries in *rank space*: the core contracted with the query's context
  rows is a single length-``J_m`` vector ``q``, and scores over all
  ``I_m`` items are one ``q · U_m^T`` product — ``O(I_m · J_m)`` per
  query instead of the ``O(Π I_k)`` dense reconstruction.
* :mod:`repro.serve.topk` — the deterministic blocked scorer and
  canonical top-K selection those queries share (exact ties, bitwise
  batch-size independence).
* :mod:`repro.serve.cache` — the LRU hot-row cache (gathered factor rows,
  per-user projected ``q`` vectors) with hit/miss counters.
* :mod:`repro.serve.batch` — the asyncio micro-batcher coalescing
  concurrent requests into one kernel call.
* :mod:`repro.serve.server` — the stdlib asyncio HTTP / stdin JSON-lines
  front end with ``/stats`` and graceful shutdown.

Serving is in-process: one :class:`ServingModel` answers every query
behind the micro-batcher; no worker processes are involved.

Everything reports stats through :class:`repro.metrics.Counters` and
:class:`repro.metrics.LatencyWindow` — no private counter mechanisms.
"""

from .batch import MicroBatcher
from .cache import LRUCache
from .model import ServingModel
from .topk import TopKResult, topk_scores

__all__ = [
    "LRUCache",
    "MicroBatcher",
    "ServingModel",
    "TopKResult",
    "topk_scores",
]
