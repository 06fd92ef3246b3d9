"""Length-prefixed pipe protocol between the supervisor and its workers.

Every message on the wire is one **frame**::

    +-------+------+----------------+-----------------+
    | magic | kind | payload length |     payload     |
    | 0xF5  | u8   | u32 (little)   |  pickled object |
    +-------+------+----------------+-----------------+

The 6-byte header is fixed (:data:`HEADER`), the payload is a pickle of
the message object.  Length prefixing makes the stream self-delimiting —
a reader never guesses where a message ends — and the magic byte turns
stream corruption (a worker writing stray bytes onto the protocol
channel) into an immediate :class:`ProtocolError` naming the bad byte
instead of a silent mis-parse.  The worker guards against the common
cause by re-pointing ``stdout`` at ``stderr`` on startup and keeping the
protocol channel on a private duplicated descriptor, so library
``print()`` calls cannot interleave with frames.

Frame kinds (:class:`FrameKind`):

=============  =========  ====================================================
kind           direction  payload
=============  =========  ====================================================
``HELLO``      w -> s     ``{"pid": int}`` — first frame after startup
``HEARTBEAT``  w -> s     current task key or ``None`` — periodic liveness
``RESULT``     w -> s     ``(task_key, result)``
``ERROR``      w -> s     ``(task_key, exception, traceback_text)``
``SETUP``      s -> w     ``(seq, key, callable_path, payload)`` — shared state
``TASK``       s -> w     ``(task_key, callable_path, payload)``
``SHUTDOWN``   s -> w     ``None`` — drain and exit
=============  =========  ====================================================

:class:`FrameReader` is the incremental decoder: feed it whatever bytes
``os.read`` returned and it yields complete frames, buffering partial
ones — the supervisor's select loop never blocks on a half-received
frame.
"""

from __future__ import annotations

import enum
import pickle
import struct
from typing import Any, List, NamedTuple, Tuple

from ..exceptions import ReproError

#: Seconds between worker heartbeat frames (part of the worker contract,
#: defined here so the supervisor side never has to import the worker
#: module — which would shadow ``python -m repro.fabric.worker``).
HEARTBEAT_ENV = "REPRO_FABRIC_HEARTBEAT_S"

#: First header byte of every frame; anything else is stream corruption.
MAGIC = 0xF5

#: magic:u8  kind:u8  payload_length:u32, little endian.
HEADER = struct.Struct("<BBI")

#: Refuse payloads above this size (512 MB): a corrupt length prefix must
#: not trigger a giant allocation.
MAX_PAYLOAD_BYTES = 512 << 20


class ProtocolError(ReproError, RuntimeError):
    """The byte stream does not parse as frames (corruption, bad magic)."""


class FrameKind(enum.IntEnum):
    """Message types of the worker protocol."""

    HELLO = 1
    HEARTBEAT = 2
    RESULT = 3
    ERROR = 4
    SETUP = 5
    TASK = 7
    SHUTDOWN = 8


class Frame(NamedTuple):
    """One decoded frame: its kind and the unpickled payload object."""

    kind: FrameKind
    payload: Any


def encode_frame_parts(kind: FrameKind, obj: Any) -> Tuple[bytes, bytes]:
    """Serialise one frame as ``(header, pickled payload)``.

    Writers that queue the two parts separately never copy a large
    payload just to prepend six bytes.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte protocol limit"
        )
    return HEADER.pack(MAGIC, int(kind), len(payload)), payload


def encode_frame(kind: FrameKind, obj: Any) -> bytes:
    """Serialise one frame: header + pickled payload, ready to write."""
    return b"".join(encode_frame_parts(kind, obj))


def decode_payload(raw: bytes) -> Any:
    """Unpickle one frame payload."""
    return pickle.loads(raw)


class FrameReader:
    """Incremental frame decoder over an arbitrary byte-chunk stream.

    ``feed(data)`` returns every frame completed by ``data`` (possibly
    none) and keeps the unfinished tail buffered for the next call, so
    callers can hand it exactly what a non-blocking read produced.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            if len(self._buffer) < HEADER.size:
                return frames
            magic, kind, length = HEADER.unpack_from(self._buffer)
            if magic != MAGIC:
                raise ProtocolError(
                    f"protocol stream corrupt: expected magic byte "
                    f"0x{MAGIC:02X}, got 0x{magic:02X}"
                )
            if length > MAX_PAYLOAD_BYTES:
                raise ProtocolError(
                    f"frame length {length} exceeds the "
                    f"{MAX_PAYLOAD_BYTES}-byte protocol limit"
                )
            if len(self._buffer) < HEADER.size + length:
                return frames
            # Unpickle straight from the buffer: a copied slice would cost
            # two extra passes over a multi-megabyte task frame.
            with memoryview(self._buffer) as view:
                try:
                    payload = decode_payload(
                        view[HEADER.size : HEADER.size + length]
                    )
                except Exception as exc:
                    raise ProtocolError(
                        f"frame payload of kind {kind} failed to unpickle: "
                        f"{exc}"
                    ) from exc
            del self._buffer[: HEADER.size + length]
            try:
                frame_kind = FrameKind(kind)
            except ValueError as exc:
                raise ProtocolError(f"unknown frame kind {kind}") from exc
            frames.append(Frame(frame_kind, payload))

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)
