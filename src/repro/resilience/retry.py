"""Shared retry machinery: backoff with decorrelated jitter.

Every layer that survives transient failure needs a **backoff** schedule
("how long to wait before the next attempt").  Before this module each
consumer grew its own: a process-pool executor counted bare
``max_retries``, ad-hoc polling loops slept fixed intervals.  They now
share one implementation, so the jitter semantics cannot drift between
layers.

The backoff schedule is exponential with *decorrelated jitter* (the
AWS-architecture-blog variant): each delay is drawn uniformly from
``[base, previous * multiplier]`` and clamped to ``cap``.  Compared to
plain exponential backoff it decorrelates retry storms — two supervisors
that lost workers at the same instant re-dispatch at different times —
while keeping the expected delay growth exponential.

The fabric's worker pool and supervisor (worker respawns, per-task
re-dispatch) consume :class:`BackoffPolicy` directly.
"""

from __future__ import annotations

import random
from typing import Optional

#: Default backoff bounds (seconds): first delay, largest delay.
DEFAULT_BASE = 0.05
DEFAULT_CAP = 5.0
DEFAULT_MULTIPLIER = 3.0


def decorrelated_jitter(
    base: float, cap: float, previous: float, rng: random.Random,
    multiplier: float = DEFAULT_MULTIPLIER,
) -> float:
    """One decorrelated-jitter delay: ``min(cap, U(base, previous * m))``."""
    high = max(base, previous * multiplier)
    return min(cap, rng.uniform(base, high))


class BackoffPolicy:
    """A stateful delay schedule: exponential growth, decorrelated jitter.

    :meth:`next_delay` advances the schedule; :meth:`reset` starts over
    (call it after a success so the next failure backs off from the
    base again).  ``jitter="none"`` gives the deterministic exponential
    schedule ``base * multiplier**n`` (used by tests that pin timing);
    ``seed`` makes the jittered schedule reproducible.
    """

    def __init__(
        self,
        base: float = DEFAULT_BASE,
        cap: float = DEFAULT_CAP,
        multiplier: float = DEFAULT_MULTIPLIER,
        jitter: str = "decorrelated",
        seed: Optional[int] = None,
    ) -> None:
        if base <= 0:
            raise ValueError(f"backoff base must be positive, got {base}")
        if cap < base:
            raise ValueError(f"backoff cap {cap} is below base {base}")
        if jitter not in ("decorrelated", "none"):
            raise ValueError(f"unknown jitter mode {jitter!r}")
        self.base = float(base)
        self.cap = float(cap)
        self.multiplier = float(multiplier)
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._previous = 0.0

    def next_delay(self) -> float:
        """The next delay in seconds, advancing the schedule."""
        if self.jitter == "none":
            delay = self.base if self._previous == 0.0 else min(
                self.cap, self._previous * self.multiplier
            )
        else:
            delay = decorrelated_jitter(
                self.base,
                self.cap,
                self._previous if self._previous else self.base,
                self._rng,
                self.multiplier,
            )
        self._previous = delay
        return delay

    def reset(self) -> None:
        """Restart the schedule from the base delay."""
        self._previous = 0.0

