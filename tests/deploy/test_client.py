"""DeployClient against a scripted server: CAPS batch validation."""

import socket

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.comm.protocol import MSG_CAP, MSG_READING, decode_batch, encode
from repro.core.config import ClusterSpec, RaplConfig
from repro.deploy import framing
from repro.deploy.client import DeployClient


@pytest.fixture
def scripted():
    """A connected ``(client, server_conn)`` pair for a 3-socket node."""
    cluster = Cluster(
        ClusterSpec(n_nodes=1, sockets_per_node=3),
        RaplConfig(noise_std_w=0.0),
        np.random.default_rng(0),
    )
    listener = socket.create_server(("127.0.0.1", 0))
    client = DeployClient(
        cluster.nodes[0], listener.getsockname(), timeout_s=2.0
    )
    client.connect()
    conn, _ = listener.accept()
    conn.settimeout(2.0)
    assert framing.recv_hello(conn) == (0, 3)
    yield client, conn
    conn.close()
    listener.close()


def serve_one_cycle(client, conn, caps, kind=MSG_CAP):
    """Script POLL and a CAPS batch of ``(unit, watts)`` pairs, then let
    the client serve them; returns the READINGS payload it sent."""
    framing.send_tag(conn, framing.FRAME_POLL)
    framing.send_batch(
        conn,
        framing.FRAME_CAPS,
        b"".join(encode(kind, unit, w) for unit, w in caps),
    )
    framing.send_tag(conn, framing.FRAME_QUIT)
    try:
        client.serve_forever()
    finally:
        readings = framing.recv_batch(conn, framing.FRAME_READINGS)
    return readings


def caps_of(client):
    return [unit.domain.cap_w for unit in client.node.sockets]


class TestCapsBatch:
    def test_valid_batch_in_any_order_programs_every_socket(self, scripted):
        client, conn = scripted
        readings = serve_one_cycle(
            client, conn, [(2, 90.0), (0, 70.0), (1, 80.0)]
        )
        assert caps_of(client) == [70.0, 80.0, 90.0]
        assert client.cycles_served == 1
        _, units, _ = decode_batch(readings)
        assert units.tolist() == [0, 1, 2]

    @pytest.mark.parametrize(
        ("caps", "match"),
        [
            ([(0, 70.0), (1, 80.0), (3, 90.0)], "out of range"),
            ([(0, 70.0), (1, 80.0), (1, 90.0)], "repeats or omits"),
            ([(0, 70.0), (1, 80.0)], "2 caps for 3 units"),
            ([(0, 70.0), (1, 80.0), (2, 90.0), (0, 60.0)], "4 caps"),
        ],
        ids=["unit-beyond-node", "repeated-unit", "missing-unit", "extra"],
    )
    def test_malformed_batch_raises_and_programs_nothing(
        self, scripted, caps, match
    ):
        client, conn = scripted
        before = caps_of(client)
        with pytest.raises(ValueError, match=match):
            serve_one_cycle(client, conn, caps)
        assert caps_of(client) == before
        assert client.cycles_served == 0

    def test_reading_kind_batch_raises_and_programs_nothing(self, scripted):
        client, conn = scripted
        before = caps_of(client)
        with pytest.raises(ValueError, match="expected cap"):
            serve_one_cycle(
                client, conn, [(0, 70.0), (1, 80.0), (2, 90.0)],
                kind=MSG_READING,
            )
        assert caps_of(client) == before
        assert client.cycles_served == 0
