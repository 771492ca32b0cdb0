"""The multi-shard harness: clean runs and the chaos acceptance.

The acceptance bar (mirrored by the CI ``shard-chaos`` job): eight
shard-server processes over localhost TCP under one arbiter, with a
shard killed mid-session, another hung until its watchdog fires, a link
partitioned and healed, and the arbiter itself killed and restarted from
its checkpoint — the global budget-conservation invariant holds on every
arbiter cycle and every recovery step is a structured event.
"""

import json

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.constant import ConstantManager
from repro.deploy.loopback import RecoveryOptions
from repro.shard import (
    ArbiterConfig,
    ShardChaosSchedule,
    run_sharded,
)
from repro.telemetry.export import leases_to_csv
from repro.telemetry.log import SHARD_EVENT_KINDS


def make_cluster(n_nodes, sockets_per_node=2, seed=0):
    return Cluster(
        ClusterSpec(n_nodes=n_nodes, sockets_per_node=sockets_per_node),
        RaplConfig(noise_std_w=0.0),
        np.random.default_rng(seed),
    )


def run(cluster, tmp_path, n_shards, cycles, chaos=None, config=None,
        recovery=None, seed=1):
    demand = np.full(cluster.n_units, 0.6)
    return run_sharded(
        cluster,
        n_shards=n_shards,
        manager_factory=lambda i: ConstantManager(),
        demand_fn=lambda step: demand,
        cycles=cycles,
        checkpoint_dir=tmp_path / "ckpt",
        config=config or ArbiterConfig(period_cycles=2),
        chaos=chaos,
        recovery=recovery
        or RecoveryOptions(checkpoint_dir=tmp_path / "ckpt"),
        rng=np.random.default_rng(seed),
        manager_name="constant",
    )


def dump_artifacts(result, tmp_path, name):
    """Write the logs the CI soak job uploads on failure."""
    rows = [
        {
            "time_s": e.time_s,
            "kind": e.kind,
            "node_id": e.node_id,
            "detail": e.detail,
        }
        for e in result.events
    ]
    (tmp_path / f"{name}_events.json").write_text(json.dumps(rows, indent=1))
    (tmp_path / f"{name}_leases.csv").write_text(
        leases_to_csv(result.timeline)
    )


class TestScheduleValidation:
    def test_heal_must_follow_partition(self):
        with pytest.raises(ValueError, match="heals"):
            ShardChaosSchedule(partition_at={0: 5}, heal_at={0: 4})

    def test_kill_and_hang_cannot_collide(self):
        with pytest.raises(ValueError, match="killed and hung"):
            ShardChaosSchedule(shard_kill_at={1: 3}, shard_hang_at={1: 3})

    def test_arbiter_restart_must_follow_kill(self):
        with pytest.raises(ValueError, match="restarts"):
            ShardChaosSchedule(arbiter_kill_at=5, arbiter_restart_at=5)

    def test_unknown_shard_rejected(self, tmp_path):
        cluster = make_cluster(n_nodes=4, sockets_per_node=1)
        with pytest.raises(ValueError, match="unknown shard"):
            run(
                cluster,
                tmp_path,
                n_shards=2,
                cycles=4,
                chaos=ShardChaosSchedule(shard_kill_at={7: 1}),
            )

    def test_shard_count_bounds(self, tmp_path):
        cluster = make_cluster(n_nodes=2, sockets_per_node=1)
        with pytest.raises(ValueError, match="n_shards"):
            run(cluster, tmp_path, n_shards=3, cycles=2)


class TestCleanRun:
    def test_two_shards_conserve_budget(self, tmp_path):
        cluster = make_cluster(n_nodes=4)
        result = run(cluster, tmp_path, n_shards=2, cycles=8)
        assert result.cycles == 8
        assert result.n_shards == 2
        assert result.failed_shards == ()
        assert result.shard_restarts == [0, 0]
        assert result.invariant_violations == 0
        assert result.arbiter_cycles == 4
        assert result.invariant_sweeps == result.arbiter_cycles
        assert float(result.leases_w.sum()) <= result.budget_w * (1 + 1e-9)
        assert result.worst_case_w <= result.budget_w * (1 + 1e-9)
        # Every arbiter cycle sampled every shard.
        assert len(result.timeline) == result.arbiter_cycles * 2
        assert result.bytes_links > 0
        assert np.isfinite(result.power_history).all()
        assert result.cycle_wall_s.shape == (8,)
        assert len(result.events.of_kind("shard_registered")) == 2

    def test_arbiter_kill_without_restart_freezes_shards(self, tmp_path):
        cluster = make_cluster(n_nodes=4)
        result = run(
            cluster,
            tmp_path,
            n_shards=2,
            cycles=12,
            config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
            chaos=ShardChaosSchedule(arbiter_kill_at=4),
        )
        assert result.failed_shards == ()
        assert result.invariant_violations == 0
        assert result.events.of_kind("arbiter_killed")
        # With the arbiter dark past the lease term, every shard froze
        # itself at its last confirmed committed power.
        frozen = {e.node_id for e in result.events.of_kind("shard_frozen")}
        assert frozen == {0, 1}
        assert not result.events.of_kind("shard_unfrozen")
        # Final leases are the killed arbiter's last grants.
        assert float(result.leases_w.sum()) <= result.budget_w * (1 + 1e-9)


class TestChaosAcceptance:
    def test_eight_shards_full_failure_matrix(self, tmp_path):
        cluster = make_cluster(n_nodes=16, sockets_per_node=2)
        chaos = ShardChaosSchedule(
            shard_kill_at={2: 8},
            shard_hang_at={5: 12},
            partition_at={1: 10},
            heal_at={1: 18},
            arbiter_kill_at=20,
            arbiter_restart_at=24,
        )
        result = run(
            cluster,
            tmp_path,
            n_shards=8,
            cycles=28,
            config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
            chaos=chaos,
            recovery=RecoveryOptions(
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every=2,
                hang_timeout_s=0.5,
            ),
        )
        dump_artifacts(result, tmp_path, "shard_chaos")

        # The global invariant held on every arbiter cycle, across both
        # arbiter incarnations.
        assert result.invariant_violations == 0
        assert result.invariant_sweeps == result.arbiter_cycles > 0
        assert result.worst_case_w <= result.budget_w * (1 + 1e-6)
        assert float(result.leases_w.sum()) <= result.budget_w * (1 + 1e-9)

        # Every injected failure recovered.
        assert result.failed_shards == ()
        assert result.shard_restarts[2] == 1  # The kill.
        assert result.shard_restarts[5] == 1  # The hang.
        assert result.arbiter_restarts == 1

        # No silent failover: every transition is a structured event.
        kinds = {e.kind for e in result.events}
        for expected in (
            "shard_registered",
            "shard_lease_granted",
            "shard_lease_applied",
            "shard_lease_expired",
            "shard_frozen",
            "shard_unfrozen",
            "shard_quarantined",
            "shard_rejoined",
            "shard_killed",
            "shard_hung",
            "shard_restarted",
            "shard_partitioned",
            "shard_partition_healed",
            "arbiter_killed",
            "arbiter_restarted",
            "controller_killed",
            "controller_hung",
            "controller_restarted",
        ):
            assert expected in kinds, f"missing {expected} event"
        assert "shard_dead" not in kinds
        assert kinds & set(SHARD_EVENT_KINDS) <= set(SHARD_EVENT_KINDS)

        # Restart accounting matches the structured trail.
        restarted = result.events.of_kind("shard_restarted")
        assert len(restarted) == sum(result.shard_restarts)

        # The partitioned shard froze during the partition and was
        # unfrozen after the heal.
        frozen_1 = [
            e for e in result.events.of_kind("shard_frozen")
            if e.node_id == 1
        ]
        unfrozen_1 = [
            e for e in result.events.of_kind("shard_unfrozen")
            if e.node_id == 1
        ]
        assert frozen_1 and unfrozen_1
        assert unfrozen_1[-1].time_s > frozen_1[0].time_s

        # The restarted arbiter resumed from its checkpoint.
        [restart] = result.events.of_kind("arbiter_restarted")
        assert "resumed_from_checkpoint=True" in restart.detail
