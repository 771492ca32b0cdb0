"""The controller/node-agent service over the 3-byte wire protocol."""

import socket
import threading

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.comm.protocol import MESSAGE_SIZE_BYTES, MSG_CAP, encode
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from repro.deploy import framing
from repro.deploy.client import DeployClient
from repro.deploy.loopback import run_loopback
from repro.deploy.server import DeployServer

SPEC = ClusterSpec(n_nodes=2, sockets_per_node=2)


def make_cluster():
    return Cluster(SPEC, RaplConfig(noise_std_w=0.0), np.random.default_rng(0))


class TestCycle:
    def test_dps_manager_works_over_service(self):
        cycles = 10
        result = run_loopback(
            make_cluster(),
            create_manager("dps"),
            lambda step: np.full(SPEC.n_units, 120.0),
            cycles=cycles,
        )
        assert result.cycles == cycles
        assert result.client_cycles == [cycles] * SPEC.n_nodes
        # One 3-byte message per unit each way, every cycle.
        assert result.bytes_total == (
            cycles * SPEC.n_units * MESSAGE_SIZE_BYTES * 2
        )
        assert result.caps_history.sum(axis=1).max() <= SPEC.budget_w + 1e-6


class TestClient:
    def test_apply_rejects_unknown_unit(self):
        node = make_cluster().nodes[0]
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = DeployClient(node, listener.getsockname(), timeout_s=2.0)
            client.connect()
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(2.0)
                framing.recv_hello(conn)
                framing.send_tag(conn, framing.FRAME_POLL)
                framing.send_batch(
                    conn,
                    framing.FRAME_CAPS,
                    encode(MSG_CAP, 0, 100.0) + encode(MSG_CAP, 9, 100.0),
                )
                with pytest.raises(ValueError, match="out of range"):
                    client.serve_forever()
        assert [s.domain.cap_w for s in node.sockets] == [
            SPEC.tdp_w, SPEC.tdp_w
        ]


class TestServerValidation:
    def test_rejects_unit_mismatch(self):
        cluster = make_cluster()
        manager = create_manager("slurm")
        manager.bind(3, 330.0, 165.0, 30.0)  # Wrong unit count.
        with DeployServer(manager, timeout_s=2.0) as server:
            clients = [
                DeployClient(n, server.address, timeout_s=2.0)
                for n in cluster.nodes
            ]
            errors = []

            def accept():
                try:
                    server.accept_clients(len(clients))
                except ValueError as exc:
                    errors.append(exc)

            t = threading.Thread(target=accept)
            t.start()
            for client in clients:
                client.connect()
            t.join(2.0)
            for client in clients:
                client.kill()
        assert not t.is_alive()
        assert errors and "bound" in str(errors[0])

    def test_rejects_no_clients(self):
        manager = create_manager("slurm")
        manager.bind(2, 220.0, 165.0, 30.0)
        with DeployServer(manager) as server:
            with pytest.raises(RuntimeError, match="no clients"):
                server.control_cycle()
