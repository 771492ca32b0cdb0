"""The 3-byte wire protocol, its network cost model, and the shard links."""

from repro.comm.net import bind_listener
from repro.comm.network import LinkStats, NetworkModel
from repro.comm.protocol import (
    MESSAGE_SIZE_BYTES,
    MSG_CAP,
    MSG_READING,
    Message,
    decode,
    encode,
)
from repro.comm.shardlink import TcpShardLink
from repro.comm.wire import (
    MAX_FRAME_BYTES,
    FrameAssembler,
    FrameError,
    encode_frame,
    recv_doc,
    send_doc,
)

__all__ = [
    "FrameAssembler",
    "FrameError",
    "LinkStats",
    "MAX_FRAME_BYTES",
    "MESSAGE_SIZE_BYTES",
    "MSG_CAP",
    "MSG_READING",
    "Message",
    "NetworkModel",
    "TcpShardLink",
    "bind_listener",
    "decode",
    "encode",
    "encode_frame",
    "recv_doc",
    "send_doc",
]
