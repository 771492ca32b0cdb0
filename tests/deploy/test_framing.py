"""TCP frame encoding/decoding over socket pairs."""

import socket

import pytest

from repro.deploy import framing


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.settimeout(2.0)
    b.settimeout(2.0)
    yield a, b
    a.close()
    b.close()


class TestHello:
    def test_round_trip(self, pair):
        a, b = pair
        framing.send_hello(a, node_id=7, n_units=2)
        hello = framing.recv_hello(b)
        assert hello == (7, 2)

    def test_rejects_wide_node_id(self, pair):
        a, _ = pair
        with pytest.raises(ValueError, match="node_id"):
            framing.send_hello(a, node_id=70000, n_units=2)

    def test_rejects_zero_units(self, pair):
        a, _ = pair
        with pytest.raises(ValueError, match="n_units"):
            framing.send_hello(a, node_id=1, n_units=0)

    def test_wrong_tag_raises(self, pair):
        a, b = pair
        framing.send_tag(a, framing.FRAME_POLL)
        with pytest.raises(ValueError, match="HELLO"):
            framing.recv_hello(b)


class TestBatch:
    def test_round_trip(self, pair):
        a, b = pair
        payload = b"\x00\x01\x02\x03\x04\x05"
        sent = framing.send_batch(a, framing.FRAME_READINGS, payload)
        assert sent == 6
        assert framing.recv_batch(b, framing.FRAME_READINGS) == payload

    def test_tag_mismatch(self, pair):
        a, b = pair
        framing.send_batch(a, framing.FRAME_CAPS, b"abc")
        with pytest.raises(ValueError, match="expected"):
            framing.recv_batch(b, framing.FRAME_READINGS)

    def test_rejects_bad_message_size(self, pair):
        a, _ = pair
        with pytest.raises(ValueError, match="3 bytes"):
            framing.send_batch(a, framing.FRAME_CAPS, b"toolong")

    def test_rejects_empty_batch(self, pair):
        a, _ = pair
        with pytest.raises(ValueError, match="batch size"):
            framing.send_batch(a, framing.FRAME_CAPS, b"")

    def test_rejects_non_batch_tag(self, pair):
        a, _ = pair
        with pytest.raises(ValueError, match="batch tag"):
            framing.send_batch(a, framing.FRAME_POLL, b"abc")


class TestControlTags:
    def test_poll_and_quit(self, pair):
        a, b = pair
        framing.send_tag(a, framing.FRAME_POLL)
        framing.send_tag(a, framing.FRAME_QUIT)
        assert framing.recv_tag(b) == framing.FRAME_POLL
        assert framing.recv_tag(b) == framing.FRAME_QUIT

    def test_rejects_batch_tag_as_control(self, pair):
        a, _ = pair
        with pytest.raises(ValueError, match="control tag"):
            framing.send_tag(a, framing.FRAME_CAPS)


class TestRecvExact:
    def test_eof_raises(self, pair):
        a, b = pair
        a.sendall(b"ab")
        a.close()
        with pytest.raises(ConnectionError, match="outstanding"):
            framing.recv_exact(b, 5)
