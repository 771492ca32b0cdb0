"""TCP framing of the DPS control protocol (paper §4.3, §6.5).

The artifact's server and clients speak over BSD sockets; this module
defines the byte-exact framing used by :mod:`repro.deploy`.  All frames
start with a one-byte type tag:

* ``HELLO`` (client → server, once): ``b'H'`` + node id (2 bytes BE) +
  unit count (1 byte) — registers the client's sockets.
* ``POLL`` (server → client): ``b'P'`` — requests one reading per unit.
* ``READINGS`` (client → server): ``b'R'`` + count (1 byte) + count x
  3-byte :mod:`repro.comm.protocol` reading messages.
* ``CAPS`` (server → client): ``b'C'`` + count (1 byte) + count x 3-byte
  cap messages.
* ``QUIT`` (server → client): ``b'Q'`` — clean shutdown.

The 3-byte payload messages are exactly the §6.5 wire format; framing adds
2 bytes per batch, amortized across a node's units.  Batches travel as
packed bytes end to end: :func:`~repro.comm.protocol.encode_batch` builds
a payload, :func:`~repro.comm.protocol.decode_batch` takes one apart.
"""

from __future__ import annotations

import socket
from typing import NamedTuple

from repro.comm.protocol import MESSAGE_SIZE_BYTES

__all__ = [
    "FRAME_HELLO",
    "FRAME_POLL",
    "FRAME_READINGS",
    "FRAME_CAPS",
    "FRAME_QUIT",
    "BatchAssembler",
    "Hello",
    "recv_exact",
    "send_hello",
    "recv_hello",
    "send_batch",
    "recv_batch",
    "send_tag",
    "recv_tag",
]

FRAME_HELLO = b"H"
FRAME_POLL = b"P"
FRAME_READINGS = b"R"
FRAME_CAPS = b"C"
FRAME_QUIT = b"Q"

_BATCH_TAGS = (FRAME_READINGS, FRAME_CAPS)


class Hello(NamedTuple):
    """Decoded registration frame."""

    node_id: int
    n_units: int


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError(
                f"peer closed with {remaining} of {n} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_hello(sock: socket.socket, node_id: int, n_units: int) -> None:
    """Send the registration frame.

    Raises:
        ValueError: node id or unit count outside the frame's ranges.
    """
    if not 0 <= node_id <= 0xFFFF:
        raise ValueError(f"node_id must fit 16 bits, got {node_id}")
    if not 1 <= n_units <= 0xFF:
        raise ValueError(f"n_units must be in [1, 255], got {n_units}")
    sock.sendall(
        FRAME_HELLO + node_id.to_bytes(2, "big") + n_units.to_bytes(1, "big")
    )


def recv_hello(sock: socket.socket) -> Hello:
    """Receive and decode a registration frame.

    Raises:
        ValueError: wrong frame tag.
    """
    tag = recv_exact(sock, 1)
    if tag != FRAME_HELLO:
        raise ValueError(f"expected HELLO, got tag {tag!r}")
    body = recv_exact(sock, 3)
    return Hello(
        node_id=int.from_bytes(body[:2], "big"),
        n_units=body[2],
    )


def send_tag(sock: socket.socket, tag: bytes) -> None:
    """Send a bare control frame (POLL or QUIT)."""
    if tag not in (FRAME_POLL, FRAME_QUIT):
        raise ValueError(f"not a bare control tag: {tag!r}")
    sock.sendall(tag)


def recv_tag(sock: socket.socket) -> bytes:
    """Receive any frame tag byte."""
    return recv_exact(sock, 1)


def send_batch(sock: socket.socket, tag: bytes, payload: bytes) -> int:
    """Send a READINGS/CAPS batch of packed 3-byte messages (e.g. one
    :func:`~repro.comm.protocol.encode_batch`); returns payload bytes sent.

    Raises:
        ValueError: wrong tag, a payload that is not whole 3-byte
            messages, or an empty/oversized batch.
    """
    if tag not in _BATCH_TAGS:
        raise ValueError(f"not a batch tag: {tag!r}")
    count, rest = divmod(len(payload), MESSAGE_SIZE_BYTES)
    if rest:
        raise ValueError("every batch message must be exactly 3 bytes")
    if not 1 <= count <= 0xFF:
        raise ValueError(f"batch size must be in [1, 255], got {count}")
    sock.sendall(tag + count.to_bytes(1, "big") + payload)
    return len(payload)


class BatchAssembler:
    """Incremental reassembly of one READINGS/CAPS batch.

    The concurrent control cycle reads whatever bytes each client socket
    has ready; frames arrive in arbitrary fragments (a TCP stream has no
    message boundaries).  An assembler accumulates those fragments and
    reports completion once the whole ``tag + count + count x 3 B`` frame
    is in — without ever blocking on the socket.

    Args:
        expected_tag: the batch frame tag this assembler accepts
            (``FRAME_READINGS`` or ``FRAME_CAPS``).
    """

    def __init__(self, expected_tag: bytes) -> None:
        if expected_tag not in _BATCH_TAGS:
            raise ValueError(f"not a batch tag: {expected_tag!r}")
        self.expected_tag = expected_tag
        self._buffer = bytearray()
        self._count: int | None = None
        self._payload: bytes | None = None

    @property
    def complete(self) -> bool:
        """True once the whole frame has been assembled."""
        return self._payload is not None

    @property
    def payload(self) -> bytes:
        """The assembled messages, packed ``count x 3`` bytes.

        Raises:
            RuntimeError: the frame is not complete yet.
        """
        if self._payload is None:
            raise RuntimeError("batch is not complete")
        return self._payload

    def feed(self, data: bytes) -> bool:
        """Consume one fragment; returns True once the frame is complete.

        Raises:
            ValueError: wrong frame tag, or bytes beyond the end of the
                frame (a client speaking out of turn) — the stream cannot
                be trusted after either.
        """
        if self._payload is not None and data:
            raise ValueError(
                f"{len(data)} bytes beyond the end of the frame"
            )
        self._buffer.extend(data)
        if self._count is None:
            if not self._buffer:
                return False
            tag = bytes(self._buffer[:1])
            if tag != self.expected_tag:
                raise ValueError(
                    f"expected {self.expected_tag!r}, got {tag!r}"
                )
            if len(self._buffer) < 2:
                return False
            self._count = self._buffer[1]
            if self._count == 0:
                raise ValueError("batch frame declares zero messages")
        body_end = 2 + 3 * self._count
        if len(self._buffer) < body_end:
            return False
        if len(self._buffer) > body_end:
            raise ValueError(
                f"{len(self._buffer) - body_end} bytes beyond the end of "
                "the frame"
            )
        self._payload = bytes(self._buffer[2:body_end])
        return True


def recv_batch(sock: socket.socket, expected_tag: bytes) -> bytes:
    """Receive a READINGS/CAPS batch; returns its packed 3-byte messages.

    Raises:
        ValueError: unexpected frame tag.
    """
    if expected_tag not in _BATCH_TAGS:
        raise ValueError(f"not a batch tag: {expected_tag!r}")
    tag = recv_exact(sock, 1)
    if tag != expected_tag:
        raise ValueError(f"expected {expected_tag!r}, got {tag!r}")
    count = recv_exact(sock, 1)[0]
    return recv_exact(sock, MESSAGE_SIZE_BYTES * count)
