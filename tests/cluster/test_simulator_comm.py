"""Comm-in-the-loop simulation: the control loop over the real protocol."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.simulator import Assignment, Simulation
from repro.comm.protocol import quantize_w
from repro.core.config import ClusterSpec, SimulationConfig
from repro.core.managers import create_manager
from repro.workloads.phases import Hold, PhaseProgram, Ramp
from repro.workloads.spec import WorkloadSpec

SPEC = ClusterSpec(n_nodes=2, sockets_per_node=2)


def tiny_workload(name="tiny", duration=20.0, level=140.0):
    return WorkloadSpec(
        name=name,
        suite="spark",
        power_class="mid",
        program=PhaseProgram(
            [Ramp(2, 20, level), Hold(duration, level), Ramp(2, level, 20)]
        ),
        active_units=None,
        paper_duration_s=duration,
        paper_above_110_pct=50.0,
        data_size="test",
    )


def make_sim(manager_name="dps", use_comm=True, seed=1):
    cluster = Cluster(SPEC)
    return Simulation(
        cluster_spec=SPEC,
        manager=create_manager(manager_name),
        assignments=[
            Assignment(spec=tiny_workload("a"), unit_ids=cluster.half_unit_ids(0)),
            Assignment(spec=tiny_workload("b"), unit_ids=cluster.half_unit_ids(1)),
        ],
        target_runs=1,
        sim_config=SimulationConfig(max_steps=5000, inter_run_gap_s=2.0),
        seed=seed,
        use_comm=use_comm,
        record_telemetry=True,
    )


class TestCommLoop:
    def test_completes_and_counts_traffic(self):
        result = make_sim().run()
        assert not result.truncated
        # 3 bytes per unit per direction per step.
        assert result.comm_bytes == result.steps * SPEC.n_units * 6
        assert result.comm_turnaround_s > 0

    def test_direct_loop_reports_no_traffic(self):
        result = make_sim(use_comm=False).run()
        assert result.comm_bytes == 0
        assert result.comm_turnaround_s == 0.0

    def test_budget_respected_over_the_wire(self):
        result = make_sim().run()
        assert result.max_caps_sum_w <= result.budget_w * (1 + 1e-6)

    def test_hardware_holds_wire_caps(self):
        """Caps reach the domains as the clients decode them: on the
        0.1 W grid."""
        caps = make_sim(manager_name="slurm").run().telemetry.caps_w
        assert np.array_equal(caps, quantize_w(caps))

    def test_readings_recorded_in_telemetry(self):
        result = make_sim().run()
        tl = result.telemetry
        assert tl is not None
        # Quantized readings still track true power.
        err = np.abs(tl.readings_w - tl.power_w).mean()
        assert err < 5.0

    def test_oracle_rejected_over_comm(self):
        with pytest.raises(ValueError, match="demand"):
            make_sim(manager_name="oracle")

    @pytest.mark.parametrize("manager", ["slurm", "dps", "dps+", "hierarchical"])
    def test_all_wire_managers_work(self, manager):
        result = make_sim(manager_name=manager).run()
        assert not result.truncated
