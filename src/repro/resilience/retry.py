"""Shared retry machinery: deadlines, backoff with decorrelated jitter.

Every layer that survives transient failure needs the same three pieces —
a monotonic **deadline** clock ("how long may this whole operation take"),
a **backoff** schedule ("how long to wait before the next attempt"), and a
bounded **retry** driver that ties them together.  Before this module each
consumer grew its own: a process-pool executor counted bare
``max_retries``, ad-hoc polling loops slept fixed intervals.  They now
share one implementation, so the semantics (attempt counting, jitter,
deadline clamping) cannot drift between layers.

The backoff schedule is exponential with *decorrelated jitter* (the
AWS-architecture-blog variant): each delay is drawn uniformly from
``[base, previous * multiplier]`` and clamped to ``cap``.  Compared to
plain exponential backoff it decorrelates retry storms — two supervisors
that lost workers at the same instant re-dispatch at different times —
while keeping the expected delay growth exponential.

:class:`Deadline` is a monotonic-clock budget: ``Deadline.after(5.0)``
expires five seconds from now, ``Deadline.none()`` never does, and
``clamp()`` bounds any poll/sleep interval so a loop can never oversleep
its budget.  :func:`retry` is the generic driver used for idempotent
single calls; structured loops (the fabric supervisor's per-task
re-dispatch) consume :class:`BackoffPolicy` and :class:`Deadline`
directly.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional, Tuple, Type

from ..exceptions import ReproError

#: Default backoff bounds (seconds): first delay, largest delay.
DEFAULT_BASE = 0.05
DEFAULT_CAP = 5.0
DEFAULT_MULTIPLIER = 3.0


class RetryExhaustedError(ReproError, RuntimeError):
    """All attempts (or the deadline) were spent without success.

    ``__cause__`` carries the last underlying exception when there was
    one; :func:`retry` re-raises the *original* exception instead when it
    is available, so this class surfaces only for deadline expiry between
    attempts.
    """


class Deadline:
    """A monotonic-clock time budget shared across retries and polls.

    ``seconds=None`` is the unbounded deadline: it never expires and
    :meth:`remaining` returns ``None``.  All arithmetic uses
    ``time.monotonic`` so wall-clock jumps cannot expire (or revive) a
    budget.
    """

    __slots__ = ("_expires_at",)

    def __init__(self, seconds: Optional[float]) -> None:
        self._expires_at = (
            None if seconds is None else time.monotonic() + float(seconds)
        )

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(seconds)

    @classmethod
    def none(cls) -> "Deadline":
        """The unbounded deadline (never expires)."""
        return cls(None)

    def remaining(self) -> Optional[float]:
        """Seconds left (never negative), or ``None`` when unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def clamp(self, interval: float) -> float:
        """``interval`` bounded by the remaining budget (>= 0)."""
        remaining = self.remaining()
        if remaining is None:
            return max(0.0, float(interval))
        return max(0.0, min(float(interval), remaining))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        remaining = self.remaining()
        if remaining is None:
            return "Deadline(unbounded)"
        return f"Deadline(remaining={remaining:.3f}s)"


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


def retry(
    fn: Callable[[], object],
    *,
    attempts: int = 3,
    backoff: Optional[BackoffPolicy] = None,
    deadline: Optional[Deadline] = None,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> object:
    """Call ``fn`` until it succeeds, the attempts run out, or the deadline.

    ``attempts`` is the total number of calls (not retries), so
    ``attempts=1`` means "no retry".  Between attempts the next
    ``backoff`` delay — clamped to the remaining ``deadline`` — is slept.
    Exceptions not matching ``retry_on`` propagate immediately (a
    deterministic bug repeats; retrying it only repeats the failure).
    On exhaustion the *last* exception is re-raised; if the deadline
    expired with attempts left, :class:`RetryExhaustedError` chains it.
    ``on_retry(attempt, exc)`` observes each failed attempt (logging,
    counters).
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    backoff = backoff if backoff is not None else BackoffPolicy()
    deadline = deadline if deadline is not None else Deadline.none()
    last: Optional[BaseException] = None
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except retry_on as exc:  # noqa: PERF203 - retry loop by design
            last = exc
            if on_retry is not None:
                on_retry(attempt, exc)
            if attempt == attempts:
                raise
            if deadline.expired:
                raise RetryExhaustedError(
                    f"deadline expired after {attempt} of {attempts} attempts"
                ) from exc
            sleep(deadline.clamp(backoff.next_delay()))
    raise RetryExhaustedError("unreachable") from last  # pragma: no cover
