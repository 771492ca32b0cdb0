"""Network latency/traffic model (§6.5)."""

import pytest

from repro.comm.network import NetworkModel


class TestTransfer:
    def test_serialized_latency_components(self):
        net = NetworkModel(
            base_latency_s=1e-4,
            server_per_message_s=2e-6,
            bandwidth_bytes_per_s=1e6,
        )
        latency = net.transfer(1000)
        assert latency == pytest.approx(2e-6 + 1e-3)

    def test_propagation_separate(self):
        net = NetworkModel(base_latency_s=1e-4)
        assert net.propagation_s() == pytest.approx(1e-4)

    def test_rejects_negative_per_message(self):
        with pytest.raises(ValueError, match="server_per_message_s"):
            NetworkModel(server_per_message_s=-1.0)

    def test_stats_accumulate(self):
        net = NetworkModel()
        net.transfer(3)
        net.transfer(3)
        assert net.stats.messages == 2
        assert net.stats.bytes == 6
        assert net.stats.busy_s > 0

    def test_reset(self):
        net = NetworkModel()
        net.transfer(3)
        net.reset_stats()
        assert net.stats.messages == 0

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError, match="n_bytes"):
            NetworkModel().transfer(-1)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="base_latency_s"):
            NetworkModel(base_latency_s=-1.0)
        with pytest.raises(ValueError, match="bandwidth"):
            NetworkModel(bandwidth_bytes_per_s=0.0)

    def test_paper_scaling_claim(self):
        """§6.5: 1M nodes' worth of 3-byte requests is ~3 MB — trivially
        within a GB/s link's capacity per 1 s decision loop."""
        net = NetworkModel()
        total_bytes = 1_000_000 * 3
        assert total_bytes / net.bandwidth_bytes_per_s < 0.01


class TestChargeCycle:
    def test_three_bytes_per_unit_each_way(self):
        net = NetworkModel()
        net.charge_cycle(4)
        assert net.stats.messages == 8
        assert net.stats.bytes == 4 * 3 * 2

    def test_propagation_once_per_direction(self):
        net = NetworkModel(
            base_latency_s=1e-4,
            server_per_message_s=2e-6,
            bandwidth_bytes_per_s=1e6,
        )
        latency = net.charge_cycle(4)
        assert latency == pytest.approx(2 * 1e-4 + 8 * (2e-6 + 3e-6))
        assert net.stats.busy_s == pytest.approx(8 * (2e-6 + 3e-6))
