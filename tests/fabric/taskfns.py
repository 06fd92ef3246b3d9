"""Task and setup callables the fabric tests dispatch into workers.

Workers import these by dotted path (``tests.fabric.taskfns:echo``);
they resolve because the supervisor spawns workers with the repository
root as the working directory, which ``python -m`` puts on ``sys.path``.
Every callable takes ``(context, payload)`` per the worker contract.
"""

import os
import time


def echo(context, payload):
    """Return the payload unchanged."""
    return payload


def double(context, payload):
    """Return twice the payload."""
    return payload * 2


def pid(context, payload):
    """Sleep ``payload`` milliseconds, then return this worker's process id."""
    time.sleep(payload / 1000.0)
    return os.getpid()


def sleep_ms(context, payload):
    """Sleep ``payload`` milliseconds, then return it."""
    time.sleep(payload / 1000.0)
    return payload


def length(context, payload):
    """Return ``len(payload)`` (ships a large payload, a small result)."""
    return len(payload)


def boom(context, payload):
    """Raise a deterministic error carrying the payload."""
    raise ValueError(f"boom: {payload}")


def die(context, payload):
    """Exit the worker process abruptly (simulates a crash)."""
    os._exit(1)


def setup_store(context, payload):
    """Setup callable: return the payload for ``context.setups``."""
    return payload


def read_setup(context, payload):
    """Return the stored setup value under key ``payload``."""
    return context.setups[payload]


def setup_keys(context, payload):
    """Return the sorted keys of this worker's applied setups."""
    return sorted(context.setups)


def tasks_executed(context, payload):
    """Return how many tasks this worker has executed (incl. this one)."""
    return context.tasks_executed


def stray_print(context, payload):
    """print() to stdout — must land on stderr, never in the protocol."""
    print("stray output that must not corrupt the frame stream")
    return payload
