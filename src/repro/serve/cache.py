"""Hot-row LRU cache with structured hit/miss counters.

Serving traffic is Zipf-shaped: a small set of hot users accounts for most
queries.  The expensive per-query step for those users is the rank-space
projection ``q = core ×_{k≠m} u_k`` (and, for memory-mapped models, the
factor-row gather itself touches disk).  :class:`LRUCache` keeps the most
recently used of these by key, so a repeat query skips straight to the
``q · U_m^T`` scoring.

Counting goes through :class:`repro.metrics.Counters` — the one structured
stats mechanism of the serving layer — so the cache's ``hit`` / ``miss`` /
``eviction`` numbers surface on the server's ``/stats`` endpoint with no
private bookkeeping.  A shared :class:`~repro.metrics.Counters` may be
passed in, in which case this cache's events are recorded under
``<name>.hit`` etc. in that registry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, TypeVar

from ..metrics import Counters

T = TypeVar("T")


class LRUCache:
    """A bounded least-recently-used mapping with event counters.

    ``capacity <= 0`` disables caching entirely (every lookup is a miss,
    nothing is stored) — the serving CLI maps ``--cache-rows 0`` to this,
    so cold-cache benchmarks measure the true uncached path rather than a
    cache that is merely small.
    """

    def __init__(
        self,
        capacity: int,
        name: str = "cache",
        counters: Optional[Counters] = None,
    ) -> None:
        self.capacity = int(capacity)
        self.name = name
        self.counters = counters if counters is not None else Counters()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def _count(self, event: str) -> None:
        self.counters.add(f"{self.name}.{event}")

    def get(self, key: Hashable) -> Optional[object]:
        """The cached value for ``key`` (marked most recent), else None."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._count("hit")
            return self._entries[key]
        self._count("miss")
        return None

    def put(self, key: Hashable, value: object) -> None:
        """Insert ``key``, evicting the least recently used beyond capacity."""
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._count("eviction")

    def get_or_compute(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``get`` with a fallback compute-and-store on miss."""
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value  # type: ignore[return-value]

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``.

        This is the surgical half of a hot-swap: only the keys an update
        actually staled are evicted (each counted as an invalidation);
        everything else stays warm.  Returns the number dropped.
        """
        stale = [key for key in self._entries if predicate(key)]
        for key in stale:
            del self._entries[key]
            self._count("invalidation")
        return len(stale)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready stats: size, capacity, counters and hit rate."""
        hits = self.counters.get(f"{self.name}.hit")
        misses = self.counters.get(f"{self.name}.miss")
        total = hits + misses
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": hits,
            "misses": misses,
            "evictions": self.counters.get(f"{self.name}.eviction"),
            "invalidations": self.counters.get(f"{self.name}.invalidation"),
            "hit_rate": (hits / total) if total else 0.0,
        }
