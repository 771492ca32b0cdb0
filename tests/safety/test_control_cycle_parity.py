"""Differential suite: every driver runs the same control cycle.

The simulator's wire path, the TCP loopback session and a one-shard
fleet all decide through one :class:`~repro.safety.cycle.ControlCycle`.
Fed the same demand, the same noiseless hardware and managers seeded
from the same stream, they must produce bit-identical traces — with the
budget-safety envelope off and on.  Cases that the simulator's wire path
once rejected (checkpointing, the envelope) run here too.
"""

import json

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.simulator import Assignment, Simulation
from repro.core.config import RaplConfig, SimulationConfig
from repro.core.managers import create_manager
from repro.deploy.loopback import RecoveryOptions, run_loopback
from repro.safety import SafetyConfig
from repro.shard import run_sharded
from tests.cluster.test_simulator_comm import SPEC, tiny_workload

MANAGERS = ("dps", "slurm")
SAFETY = SafetyConfig(guard=True, invariant_mode="strict")
RAPL = RaplConfig(noise_std_w=0.0)
SIM_SEED = 7
SHARD_RNG_SEED = 3
#: Off the 0.1 W grid, so the wire quantization shows in every trace.
LEVEL_W = 137.37
#: run_sharded draws each shard's seed from its ``rng`` and the shard
#: server seeds its manager with ``seed + 1``; every other driver's
#: manager is seeded from that same stream.
MANAGER_SEED = int(np.random.default_rng(SHARD_RNG_SEED).integers(2**31)) + 1


def seeded_manager(name):
    """A manager whose ``bind`` draws from the shared manager stream."""
    manager = create_manager(name)
    bind = manager.bind

    def bind_from_shared_stream(**kwargs):
        kwargs["rng"] = np.random.default_rng(MANAGER_SEED)
        bind(**kwargs)

    manager.bind = bind_from_shared_stream
    return manager


def simulate(name, safety=None, **kwargs):
    """One wire-path simulation and the demand it drew at every step."""
    demands = []
    step_physics = Cluster.step_physics

    def recording(cluster, demand_w, dt_s):
        demands.append(np.array(demand_w, dtype=np.float64))
        return step_physics(cluster, demand_w, dt_s)

    cluster = Cluster(SPEC)
    assignments = [
        Assignment(tiny_workload(w, level=LEVEL_W), cluster.half_unit_ids(h))
        for h, w in enumerate("ab")
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cluster, "step_physics", recording)
        result = Simulation(
            cluster_spec=SPEC,
            manager=seeded_manager(name),
            assignments=assignments,
            sim_config=SimulationConfig(max_steps=5000, inter_run_gap_s=2.0),
            rapl_config=RAPL,
            seed=SIM_SEED,
            use_comm=True,
            record_telemetry=True,
            safety=safety,
            **kwargs,
        ).run()
    assert not result.truncated
    return result, np.asarray(demands)


def dump_events(events, tmp_path, name):
    """Write a run's event log where the CI artifact upload finds it."""
    rows = [
        {"time_s": e.time_s, "kind": e.kind, "unit": e.unit,
         "detail": e.detail}
        for e in events
    ]
    (tmp_path / f"{name}_events.json").write_text(json.dumps(rows, indent=1))


@pytest.fixture(scope="module")
def traces():
    """Every driver's run, per manager and safety setting (computed once)."""
    cache = {}

    def get(name, safety):
        key = (name, safety is not None)
        if key not in cache:
            sim, demands = simulate(name, safety)
            session = run_loopback(
                Cluster(SPEC, RAPL, np.random.default_rng(SIM_SEED)),
                seeded_manager(name),
                demand_fn=lambda step: demands[step],
                cycles=len(demands),
                safety=safety,
            )
            cache[key] = (sim, demands, session)
        return cache[key]

    return get


@pytest.mark.parametrize("safety", [None, SAFETY], ids=["bare", "guarded"])
@pytest.mark.parametrize("name", MANAGERS)
class TestSimulatorMatchesLoopback:
    def test_power_and_readings_identical(self, traces, name, safety,
                                          tmp_path):
        sim, demands, session = traces(name, safety)
        dump_events(session.events, tmp_path, f"loopback-{name}")
        assert session.cycles == sim.steps == len(demands)
        assert np.array_equal(session.power_history, sim.telemetry.power_w)
        assert np.array_equal(
            session.readings_history, sim.telemetry.readings_w
        )

    def test_traffic_identical(self, traces, name, safety):
        sim, _, session = traces(name, safety)
        assert sim.comm_bytes == session.bytes_total


@pytest.mark.parametrize("name", MANAGERS)
class TestEnvelopeOverTheWire:
    def test_clean_guard_changes_nothing(self, traces, name, tmp_path):
        bare = traces(name, None)[0]
        guarded = traces(name, SAFETY)[0]
        dump_events(guarded.safety_events, tmp_path, f"sim-{name}")
        assert guarded.safety_events is not None
        assert not guarded.safety_events.of_kind("invariant_violation")
        assert guarded.guard_rungs == {}
        assert np.array_equal(
            guarded.telemetry.power_w, bare.telemetry.power_w
        )
        assert np.array_equal(
            guarded.telemetry.readings_w, bare.telemetry.readings_w
        )


@pytest.mark.parametrize("name", MANAGERS)
def test_one_shard_fleet_matches_simulator(traces, name, tmp_path):
    sim, demands, _ = traces(name, SAFETY)
    fleet = run_sharded(
        Cluster(SPEC, RAPL, np.random.default_rng(SIM_SEED)),
        n_shards=1,
        manager_factory=lambda i: create_manager(name),
        demand_fn=lambda step: demands[step],
        cycles=len(demands),
        checkpoint_dir=tmp_path / "ckpt",
        recovery=RecoveryOptions(checkpoint_dir=tmp_path / "ckpt"),
        rng=np.random.default_rng(SHARD_RNG_SEED),
        manager_name=name,
    )
    dump_events(fleet.events, tmp_path, f"fleet-{name}")
    assert np.array_equal(fleet.power_history, sim.telemetry.power_w)
    # The fleet records the caps each cycle leaves on the hardware; the
    # simulator records the caps each step runs under — one step later.
    assert np.array_equal(fleet.caps_history[:-1], sim.telemetry.caps_w[1:])


def test_checkpointed_wire_run_matches(traces, tmp_path):
    """The wire path journals through the recoverable controller like
    every other driver, and journaling changes no decision."""
    plain = traces("dps", None)[0]
    journaled, _ = simulate(
        "dps", checkpoint_dir=tmp_path, checkpoint_every=5
    )
    assert journaled.checkpoints_written > 0
    assert (tmp_path / "journal.log").exists()
    assert np.array_equal(
        journaled.telemetry.power_w, plain.telemetry.power_w
    )
    assert np.array_equal(
        journaled.telemetry.readings_w, plain.telemetry.readings_w
    )
