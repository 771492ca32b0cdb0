"""Shard-server fleet acceptance: OS chaos, live membership, codecs.

:mod:`tests.shard.test_harness` holds the eight-shard failure matrix.
This module adds the drills only live membership makes possible —
admitting a new shard and draining an old one mid-chaos — with each
shard a ``dps-repro shard-server`` subprocess behind a real TCP link,
SIGKILL standing in for a crash, SIGTERM for a graceful drain, and a
severed socket for a partition.  It also pins the clock codecs to one
trace, and the session's inputs (seed, RAPL noise, manager) to the
fleet that runs.  The acceptance bar: the global budget-conservation
invariant holds on every arbiter cycle and every recovery or membership
step is a structured event.  Mirrored by the CI ``shard-chaos`` job.
"""

import json

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.constant import ConstantManager
from repro.core.managers import create_manager
from repro.deploy.loopback import RecoveryOptions
from repro.shard import ArbiterConfig, ShardChaosSchedule, run_sharded
from repro.telemetry.export import leases_to_csv


def make_cluster(n_nodes, sockets_per_node=1, seed=0):
    return Cluster(
        ClusterSpec(n_nodes=n_nodes, sockets_per_node=sockets_per_node),
        RaplConfig(noise_std_w=0.0),
        np.random.default_rng(seed),
    )


def run_process(cluster, tmp_path, n_shards, cycles, chaos=None, config=None,
                recovery=None, **kwargs):
    demand = np.full(cluster.n_units, 0.6)
    options = {
        "manager_factory": lambda i: ConstantManager(),
        "demand_fn": lambda step: demand,
        "manager_name": "constant",
        **kwargs,
    }
    return run_sharded(
        cluster,
        n_shards=n_shards,
        cycles=cycles,
        checkpoint_dir=tmp_path / "ckpt",
        config=config or ArbiterConfig(period_cycles=2),
        chaos=chaos,
        recovery=recovery
        or RecoveryOptions(checkpoint_dir=tmp_path / "ckpt"),
        **options,
    )


def dump_artifacts(result, tmp_path, name):
    """Write the logs the CI chaos job uploads on failure."""
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
    def test_drained_shard_cannot_be_killed(self):
        with pytest.raises(ValueError, match="drained and killed"):
            ShardChaosSchedule(drain_at={1: 4}, shard_kill_at={1: 6})

    def test_drained_shard_cannot_be_hung(self):
        with pytest.raises(ValueError, match="drained and killed"):
            ShardChaosSchedule(drain_at={2: 4}, shard_hang_at={2: 8})

    def test_admit_cannot_fall_inside_arbiter_outage(self):
        with pytest.raises(ValueError, match="inside the .*outage"):
            ShardChaosSchedule(
                admit_at=10, arbiter_kill_at=8, arbiter_restart_at=14
            )

    def test_drain_cannot_fall_inside_arbiter_outage(self):
        with pytest.raises(ValueError, match="inside .*the .*outage"):
            ShardChaosSchedule(
                drain_at={0: 10}, arbiter_kill_at=8, arbiter_restart_at=14
            )

    def test_thread_mode_is_gone(self, tmp_path):
        cluster = make_cluster(4)
        with pytest.raises(ValueError, match="thread mode was removed"):
            run_process(cluster, tmp_path, n_shards=2, cycles=4,
                        mode="thread")

    def test_factory_must_build_the_named_manager(self, tmp_path):
        cluster = make_cluster(4)
        with pytest.raises(ValueError, match="'dps'.*'constant'"):
            run_process(cluster, tmp_path, n_shards=2, cycles=4,
                        manager_factory=lambda i: create_manager("dps"))

    def test_process_mode_requires_manager_name(self, tmp_path):
        cluster = make_cluster(4)
        with pytest.raises(ValueError, match="manager_name"):
            run_sharded(
                cluster,
                n_shards=2,
                manager_factory=lambda i: ConstantManager(),
                demand_fn=lambda step: np.full(cluster.n_units, 0.5),
                cycles=4,
                checkpoint_dir=tmp_path / "ckpt",
                recovery=RecoveryOptions(checkpoint_dir=tmp_path / "ckpt"),
                mode="process",
            )


class TestProcessCleanRun:
    def test_two_shard_fleet_matches_thread_guarantees(self, tmp_path):
        cluster = make_cluster(4)
        result = run_process(cluster, tmp_path, n_shards=2, cycles=8)
        dump_artifacts(result, tmp_path, "process_clean")

        assert result.invariant_violations == 0
        assert result.invariant_sweeps == result.arbiter_cycles > 0
        assert result.failed_shards == ()
        assert result.shard_restarts == [0, 0]
        assert result.worst_case_w <= result.budget_w * (1 + 1e-6)
        assert np.nansum(result.leases_w) <= result.budget_w * (1 + 1e-6)
        # No process died, so every cycle of every unit reported power.
        assert np.isfinite(result.power_history).all()
        assert np.isfinite(result.caps_history).all()
        assert result.bytes_links > 0
        kinds = {e.kind for e in result.events}
        assert "shard_registered" in kinds
        assert "shard_lease_applied" in kinds
        # A healthy fleet never trips the recovery machinery.
        assert "shard_killed" not in kinds
        assert "link_reconnect" not in kinds


class TestProcessChaosAcceptance:
    def test_full_failure_matrix_with_live_membership(self, tmp_path):
        """The PR-7 matrix over real processes, plus admit and drain.

        Four shard-servers; one SIGKILLed, one hung until the watchdog
        SIGKILLs it, one partitioned and healed at the socket level, a
        fifth admitted live, a fourth drained via SIGTERM, and the
        arbiter itself killed and restarted from its checkpoint with
        the drifted membership.  Budget conservation is swept on every
        arbiter cycle of every arbiter incarnation.
        """
        cluster = make_cluster(8)
        chaos = ShardChaosSchedule(
            shard_kill_at={1: 6},
            shard_hang_at={2: 10},
            partition_at={0: 8},
            heal_at={0: 14},
            admit_at=10,
            drain_at={3: 12},
            arbiter_kill_at=16,
            arbiter_restart_at=20,
        )
        result = run_process(
            cluster,
            tmp_path,
            n_shards=4,
            cycles=24,
            chaos=chaos,
            config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
            recovery=RecoveryOptions(
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every=2,
                hang_timeout_s=2.0,
                restart_delay_cycles=1,
            ),
        )
        dump_artifacts(result, tmp_path, "process_matrix")

        # Conservation: swept every arbiter cycle, never violated.
        assert result.invariant_violations == 0
        assert result.invariant_sweeps == result.arbiter_cycles > 0
        assert result.worst_case_w <= result.budget_w * (1 + 1e-6)
        assert np.nansum(result.leases_w) <= result.budget_w * (1 + 1e-6)

        # Every failure recovered within its restart budget.
        assert result.failed_shards == ()
        assert result.shard_restarts[1] == 1  # SIGKILL -> --resume respawn
        assert result.shard_restarts[2] == 1  # watchdog SIGKILL -> respawn
        assert result.arbiter_restarts == 1

        # Live membership: one admit, one drain, drain exited cleanly.
        assert result.admitted == (4,)
        assert result.drained == (3,)
        assert result.drained_rcs[3] == 0

        # The partitioned link re-dialed at least once after healing,
        # and the SIGKILLed shards forced reconnects of their own.
        assert result.link_reconnects >= 1

        kinds = {e.kind for e in result.events}
        expected = {
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
            "shard_admitted",
            "shard_draining",
            "shard_drained",
            "link_reconnect",
            "arbiter_killed",
            "arbiter_restarted",
            "controller_killed",
            "controller_hung",
            "controller_restarted",
        }
        missing = expected - kinds
        assert not missing, f"missing event kinds: {sorted(missing)}"
        assert "shard_dead" not in kinds

        # Every supervised respawn is one structured event.
        restarted = [e for e in result.events if e.kind == "shard_restarted"]
        assert len(restarted) == sum(result.shard_restarts)

        # Restart bookkeeping is stamped with the cycle, so a log sorted
        # on time puts it at or after the fault that caused it.
        fault_at: dict[int, float] = {}
        for e in result.events:
            if e.kind in ("shard_killed", "shard_hung"):
                fault_at[e.node_id] = min(e.time_s, fault_at.get(e.node_id, e.time_s))
        assert (fault_at[1], fault_at[2]) == (6.0, 10.0)
        for event in result.events:
            if event.kind in (
                "controller_killed",
                "controller_restarted",
                "shard_restarted",
            ):
                assert event.time_s >= fault_at[event.node_id], event

        # Membership events carry the member they concern.
        admitted = [e for e in result.events if e.kind == "shard_admitted"]
        assert [e.node_id for e in admitted] == [4]
        drained = [e for e in result.events if e.kind == "shard_drained"]
        assert [e.node_id for e in drained] == [3]
        assert "reclaimed" in drained[0].detail

        # The partitioned shard froze at its committed power, then
        # thawed once the healed link delivered a fresh lease.
        times = {
            kind: [e.time_s for e in result.events if e.kind == kind]
            for kind in ("shard_frozen", "shard_unfrozen")
        }
        assert times["shard_frozen"] and times["shard_unfrozen"]
        assert min(times["shard_frozen"]) < max(times["shard_unfrozen"])

        # The restarted arbiter resumed from its checkpoint snapshot.
        restarts = [
            e for e in result.events if e.kind == "arbiter_restarted"
        ]
        assert len(restarts) == 1
        assert "resumed_from_checkpoint=True" in restarts[0].detail


class TestLinkChaos:
    def test_heal_right_after_a_mid_period_partition(self, tmp_path):
        """A one-cycle partition off the arbiter boundary still heals.

        The partition (cycle 4) and the heal (cycle 5) fall inside one
        arbiter period, where the pipeline dispatches cycle 5 before it
        finalizes cycle 4; the heal must still land after the
        partition, or the link stays severed for good.
        """
        cluster = make_cluster(4)
        result = run_process(
            cluster,
            tmp_path,
            n_shards=2,
            cycles=16,
            chaos=ShardChaosSchedule(partition_at={0: 4}, heal_at={0: 5}),
            config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
        )
        assert result.invariant_violations == 0
        assert result.link_reconnects == 1
        kinds = [e.kind for e in result.events]
        assert "shard_partition_healed" in kinds
        assert "shard_dead" not in kinds
        # Shard 0 reports to the arbiter again, on a live lease.
        last = result.timeline.for_shard(0)[-1]
        assert not last.dark and not last.frozen


class TestCodecParity:
    def test_binary_codec_bit_identical_under_chaos(self, tmp_path):
        """The binary wire is an encoding, not a different computation.

        Run the same seeded chaos session twice — once over the JSON
        clock plane, once over the binary one — and demand bit-identical
        powers and caps in every surviving cell of the history, the same
        NaN mask for the dead ones, and zero invariant violations on
        both.  Anything less means the codec moved a value.
        """
        chaos = ShardChaosSchedule(shard_kill_at={1: 4}, drain_at={0: 8})
        results = {}
        for codec in ("json", "binary"):
            cluster = make_cluster(4, seed=7)
            results[codec] = run_process(
                cluster,
                tmp_path / codec,
                n_shards=2,
                cycles=12,
                chaos=chaos,
                config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
                recovery=RecoveryOptions(
                    checkpoint_dir=tmp_path / codec / "ckpt",
                    checkpoint_every=2,
                ),
                codec=codec,
            )
        ref, bin_ = results["json"], results["binary"]
        assert ref.codec == "json" and bin_.codec == "binary"
        assert ref.invariant_violations == 0
        assert bin_.invariant_violations == 0
        assert np.array_equal(
            ref.power_history, bin_.power_history, equal_nan=True
        )
        assert np.array_equal(
            ref.caps_history, bin_.caps_history, equal_nan=True
        )
        # Both planes meter their traffic.  (The binary codec's byte
        # win is a scale effect — at two units per shard the array
        # headers dominate; benchmarks/bench_shards.py measures the
        # ratio at fleet scale.)
        assert ref.bytes_clock > 0
        assert bin_.bytes_clock > 0

    def test_full_node_frames_bit_identical_across_codecs(self, tmp_path):
        """The json and binary clock planes give one DPS trace.

        Two shards of two 200-socket nodes each, so every node-agent
        frame carries 200 messages of the packed 3-byte wire, under a
        mixed idle/steady/bursty demand and no chaos.  The caps and
        power histories must match bit for bit across both codecs, and
        a session with no ``codec`` must pick the binary wire.
        """
        spec = ClusterSpec(n_nodes=4, sockets_per_node=200)
        rng = np.random.default_rng(5)
        n_units = spec.n_nodes * spec.sockets_per_node
        kind = rng.choice(3, size=n_units, p=[0.4, 0.35, 0.25])
        level = spec.idle_power_w + rng.uniform(0.35, 0.95, n_units) * (
            spec.tdp_w - spec.idle_power_w
        )
        period = rng.integers(4, 13, n_units)
        base = np.where(kind == 0, spec.idle_power_w, level)

        def demand(step):
            off = (kind == 2) & ((step % period) >= period // 2)
            return np.where(off, spec.idle_power_w, base)

        runs = {}
        for name, codec in (("json", {"codec": "json"}), ("binary", {})):
            cluster = Cluster(
                spec, RaplConfig(noise_std_w=0.0), np.random.default_rng(0)
            )
            root = tmp_path / name
            runs[name] = run_sharded(
                cluster,
                n_shards=2,
                manager_factory=lambda i: create_manager("dps"),
                demand_fn=demand,
                cycles=12,
                checkpoint_dir=root / "ckpt",
                config=ArbiterConfig(period_cycles=2),
                recovery=RecoveryOptions(checkpoint_dir=root / "ckpt"),
                rng=np.random.default_rng(0),
                manager_name="dps",
                **codec,
            )
        ref, bin_ = runs["json"], runs["binary"]
        assert bin_.codec == "binary"
        assert ref.caps_history.shape == (12, n_units)
        assert np.isfinite(ref.caps_history).all()
        for result in (ref, bin_):
            assert result.invariant_violations == 0
        assert np.array_equal(ref.caps_history, bin_.caps_history)
        assert np.array_equal(ref.power_history, bin_.power_history)

    def test_ack_event_cap_truncates_with_marker(self, tmp_path):
        """An over-cap ack drops the tail and says so, once per ack."""
        cluster = make_cluster(4)
        result = run_process(
            cluster,
            tmp_path,
            n_shards=2,
            cycles=8,
            max_ack_events=0,
        )
        assert result.invariant_violations == 0
        truncated = [
            e for e in result.events if e.kind == "events_truncated"
        ]
        assert truncated, "cap of 0 never tripped on a live fleet"
        assert "cap of 0" in truncated[0].detail
        # With a zero cap no raw shard event survives the wire.
        assert "shard_lease_applied" not in {e.kind for e in result.events}


class TestGracefulDrain:
    def test_sigterm_drain_reclaims_budget(self, tmp_path):
        cluster = make_cluster(4)
        chaos = ShardChaosSchedule(drain_at={1: 4})
        result = run_process(
            cluster,
            tmp_path,
            n_shards=2,
            cycles=12,
            chaos=chaos,
            config=ArbiterConfig(period_cycles=2, lease_term_cycles=2),
        )
        dump_artifacts(result, tmp_path, "process_drain")

        assert result.invariant_violations == 0
        assert result.failed_shards == ()
        assert result.drained == (1,)
        assert result.drained_rcs[1] == 0
        kinds = {e.kind for e in result.events}
        assert "shard_draining" in kinds
        assert "shard_drained" in kinds
        # Graceful: the drain never looked like a failure.
        assert "shard_killed" not in kinds
        assert "controller_killed" not in kinds
        assert np.nansum(result.leases_w) <= result.budget_w * (1 + 1e-6)
        # The drained shard leaves the timeline after its final frozen
        # summary is acknowledged; the survivor keeps being arbitrated,
        # and never below its original fair share.
        drained_samples = result.timeline.for_shard(1)
        survivor_samples = result.timeline.for_shard(0)
        assert drained_samples and survivor_samples
        assert (
            max(s.cycle for s in drained_samples)
            < max(s.cycle for s in survivor_samples)
        )
        assert survivor_samples[-1].lease_w >= survivor_samples[0].lease_w


class TestSessionInputs:
    def _dps_run(self, tmp_path, seed, noise_std_w=1.5):
        cluster = Cluster(
            ClusterSpec(n_nodes=4, sockets_per_node=2),
            RaplConfig(noise_std_w=noise_std_w),
            np.random.default_rng(0),
        )
        level = np.linspace(60.0, 140.0, cluster.n_units)
        return run_process(
            cluster,
            tmp_path,
            n_shards=2,
            cycles=8,
            manager_factory=lambda i: create_manager("dps"),
            manager_name="dps",
            demand_fn=lambda step: level * (1.0 + 0.2 * (step % 3)),
            rng=np.random.default_rng(seed),
        )

    def test_seed_and_noise_reach_the_shards(self, tmp_path):
        """Meter noise is forwarded and each shard's seed comes from ``rng``.

        With the cluster's 1.5 W noise, one seed replays bit for bit,
        another seed moves the trace, and so does the same seed on a
        noise-free cluster.
        """
        first = self._dps_run(tmp_path / "a", seed=3)
        again = self._dps_run(tmp_path / "b", seed=3)
        other = self._dps_run(tmp_path / "c", seed=4)
        quiet = self._dps_run(tmp_path / "d", seed=3, noise_std_w=0.0)
        for result in (first, again, other, quiet):
            assert result.invariant_violations == 0
            assert np.isfinite(result.power_history).all()
        assert np.array_equal(first.power_history, again.power_history)
        assert np.array_equal(first.caps_history, again.caps_history)
        assert not np.array_equal(first.power_history, other.power_history)
        assert not np.array_equal(first.power_history, quiet.power_history)

