"""Wire protocol of the DPS server/client pair (paper §6.5).

The paper reports that "only 3 bytes are exchanged per request with each
node"; this module defines that 3-byte encoding so the overhead analysis is
grounded in a real serializer rather than a constant:

* 2 bits of message type (power reading / cap command),
* 10 bits of node-local unit index (a node has few sockets; the node is
  addressed at the transport layer),
* 12 bits of value in 0.1 W steps (0 - 409.5 W, comfortably above any TDP).

Values are round-tripped to within the 0.1 W quantum; out-of-range values
are rejected rather than silently wrapped.

:func:`encode` / :func:`decode` are the specification, one message at a
time.  :func:`encode_batch` / :func:`decode_batch` pack and unpack a whole
node's messages (units ``0..n-1``) with NumPy; they produce the same bytes,
the same values and reject the same inputs, and the scalar pair is their
test oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "MSG_READING",
    "MSG_CAP",
    "MESSAGE_SIZE_BYTES",
    "Message",
    "encode",
    "decode",
    "encode_batch",
    "decode_batch",
    "quantize_w",
    "MAX_VALUE_W",
]

#: Message type tags.
MSG_READING = 0
MSG_CAP = 1

#: Exactly the 3 bytes/request of §6.5.
MESSAGE_SIZE_BYTES = 3

_MAX_UNIT = (1 << 10) - 1
#: Largest value a message carries: 12 bits of 0.1 W steps (409.5 W).
MAX_VALUE_W = ((1 << 12) - 1) / 10.0


def quantize_w(value_w: float | np.ndarray) -> float | np.ndarray:
    """The wire value (W) a power value — or an array of them —
    serializes to: 0.1 W steps, ties rounded half-up.

    Python's built-in ``round`` uses banker's rounding, so a value whose
    float product lands exactly on the 0.05 W boundary (e.g. 0.25 W ->
    2.5 decis) would round to the *even* neighbour — 0.25 W and 0.35 W
    would both decode as 0.2/0.4 W while 0.15 W decodes as 0.2 W.
    Explicit half-up keeps quantization monotone and direction-stable at
    every boundary; anything a peer decodes equals ``quantize_w`` of what
    was sent.
    """
    return np.floor(np.asarray(value_w, dtype=np.float64) * 10.0 + 0.5) / 10.0


class Message(NamedTuple):
    """A decoded protocol message.

    Attributes:
        kind: :data:`MSG_READING` or :data:`MSG_CAP`.
        unit: node-local unit index (0-1023).
        value_w: power value in watts, 0.1 W resolution.
    """

    kind: int
    unit: int
    value_w: float


def encode(kind: int, unit: int, value_w: float) -> bytes:
    """Pack one message into 3 bytes.

    Args:
        kind: message type tag.
        unit: node-local unit index.
        value_w: power value (W).

    Raises:
        ValueError: unknown kind, unit out of range, or value outside
            ``[0, 409.5]`` W.
    """
    if kind not in (MSG_READING, MSG_CAP):
        raise ValueError(f"unknown message kind {kind}")
    if not 0 <= unit <= _MAX_UNIT:
        raise ValueError(f"unit must be in [0, {_MAX_UNIT}], got {unit}")
    if not 0.0 <= value_w <= MAX_VALUE_W:
        raise ValueError(
            f"value_w must be in [0, {MAX_VALUE_W}], got {value_w}"
        )
    # Half-up, not round(): banker's rounding would turn exact 0.05 W
    # boundaries into round-to-even (see quantize_w).
    quantized = math.floor(value_w * 10.0 + 0.5)
    word = (kind << 22) | (unit << 12) | quantized
    return word.to_bytes(MESSAGE_SIZE_BYTES, "big")


def decode(payload: bytes) -> Message:
    """Unpack 3 bytes into a :class:`Message`.

    Raises:
        ValueError: wrong payload length.
    """
    if len(payload) != MESSAGE_SIZE_BYTES:
        raise ValueError(
            f"expected {MESSAGE_SIZE_BYTES} bytes, got {len(payload)}"
        )
    word = int.from_bytes(payload, "big")
    kind = (word >> 22) & 0x3
    unit = (word >> 12) & 0x3FF
    value = (word & 0xFFF) / 10.0
    if kind not in (MSG_READING, MSG_CAP):
        raise ValueError(f"corrupt message kind {kind}")
    return Message(kind=kind, unit=unit, value_w=value)


def encode_batch(kind: int, values_w: np.ndarray) -> bytes:
    """Pack one message per value, for units ``0..len(values_w)-1``.

    Byte-identical to ``b"".join(encode(kind, i, v) for i, v in
    enumerate(values_w))``.

    Raises:
        ValueError: unknown kind, more units than the 10-bit field
            addresses, or any value NaN, infinite or outside
            ``[0, 409.5]`` W.
    """
    if kind not in (MSG_READING, MSG_CAP):
        raise ValueError(f"unknown message kind {kind}")
    values = np.asarray(values_w, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values_w must be 1-D, got shape {values.shape}")
    n = values.size
    if n > _MAX_UNIT + 1:
        raise ValueError(f"unit must be in [0, {_MAX_UNIT}], got {n - 1}")
    # NaN fails both comparisons, so it lands in `bad` with the rest.
    bad = ~((values >= 0.0) & (values <= MAX_VALUE_W))
    if bad.any():
        value = float(values[np.argmax(bad)])
        raise ValueError(
            f"value_w must be in [0, {MAX_VALUE_W}], got {value}"
        )
    quantized = np.floor(values * 10.0 + 0.5).astype(np.uint32)
    words = (
        (kind << 22) | (np.arange(n, dtype=np.uint32) << 12) | quantized
    )
    # Big-endian u32 words minus their (always zero) top byte.
    return words.astype(">u4").view(np.uint8).reshape(n, 4)[:, 1:].tobytes()


def decode_batch(payload: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpack concatenated 3-byte messages into ``(kinds, units, values_w)``.

    Element-wise equal to :func:`decode` of each message; values are
    float64 in 0.1 W steps.

    Raises:
        ValueError: a length that is not a whole number of messages, or
            a corrupt kind in any message.
    """
    if len(payload) % MESSAGE_SIZE_BYTES:
        raise ValueError(
            f"expected a multiple of {MESSAGE_SIZE_BYTES} bytes, got "
            f"{len(payload)}"
        )
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
    words = (
        (raw[:, 0].astype(np.int64) << 16)
        | (raw[:, 1].astype(np.int64) << 8)
        | raw[:, 2]
    )
    kinds = words >> 22
    corrupt = kinds > MSG_CAP
    if corrupt.any():
        raise ValueError(
            f"corrupt message kind {int(kinds[np.argmax(corrupt)])}"
        )
    return kinds, (words >> 12) & 0x3FF, (words & 0xFFF) / 10.0
