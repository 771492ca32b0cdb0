"""Inputs of the three workloads, generated from the run's seed.

The program receives only what these functions generate: the campaign
seed inside ``ExperimentConfig`` (``paper``), the per-unit demand profile
(``fleet``, ``fleet-restart``) and the kill schedule (``fleet-restart``).
Everything else is fixed here so that two seeds differ only in data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FLEET",
    "PAPER",
    "demand_profile",
    "restart_schedule",
]


@dataclass(frozen=True)
class PaperShape:
    """``Campaign(limit_pairs=1)`` over all three §5.2 groups."""

    limit_pairs: int = 1
    time_scale: float = 0.2
    repeats: int = 2


@dataclass(frozen=True)
class FleetShape:
    """2 DPS shards x 6,400 units, 32 node agents per shard."""

    n_shards: int = 2
    nodes_per_shard: int = 32
    sockets_per_node: int = 200
    period_cycles: int = 2
    #: Cycles of one untraced session; the first ``warmup`` are dropped.
    cycles: int = 45
    warmup: int = 5
    #: Cycles of the traced session (and of its untraced twin).
    traced_cycles: int = 20
    #: Ack deadline: far above any cycle, so no watchdog sets a time.
    hang_timeout_s: float = 30.0

    @property
    def n_nodes(self) -> int:
        return self.n_shards * self.nodes_per_shard

    @property
    def n_units(self) -> int:
        return self.n_nodes * self.sockets_per_node


PAPER = PaperShape()
FLEET = FleetShape()


def demand_profile(seed: int, n_units: int, tdp_w: float, idle_w: float):
    """A mixed overprovisioned fleet: ~40 % idle, ~35 % steady, ~25 % bursty.

    Steady units hold one seeded level; bursty units follow phase-shifted
    square waves between idle and their level, so DPS's priority and
    readjust stages keep working.

    Returns:
        ``demand(step) -> np.ndarray`` of per-unit demand in watts.
    """
    rng = np.random.default_rng([seed, 1])
    kind = rng.choice(3, size=n_units, p=[0.40, 0.35, 0.25])
    level = idle_w + rng.uniform(0.35, 0.95, n_units) * (tdp_w - idle_w)
    period = rng.integers(4, 13, n_units)
    phase = rng.integers(0, 12, n_units)
    base = np.where(kind == 0, idle_w, level)
    bursty = kind == 2

    def demand(step: int) -> np.ndarray:
        off = bursty & (((step + phase) % period) >= period // 2)
        return np.where(off, idle_w, base)

    return demand


@dataclass(frozen=True)
class RestartSchedule:
    """Shard kills and one arbiter kill/restart of one session."""

    shard_kills: tuple[tuple[int, int], ...]  # (shard, cycle), cycle order
    arbiter_kill_at: int
    arbiter_restart_at: int
    cycles: int


#: Cycles a shard kill is given before the next scheduled event: two
#: outage cycles, the respawn, and the rejoin on the next arbiter period.
_KILL_GAP = 8
#: Steady cycles after the last recovery, so a run holds enough steady
#: cycles for its 90th percentile.
_STEADY_TAIL = 20


def restart_schedule(seed: int, session: int) -> RestartSchedule:
    """Seeded kill plan: each shard killed once, then an arbiter outage.

    ``run_sharded`` takes at most one kill per shard per session.  Kills
    are one per ``_KILL_GAP``-cycle window with seeded jitter and a
    seeded shard order; the arbiter outage sits in its own window, so
    recoveries never overlap.
    """
    rng = np.random.default_rng([seed, 2, session])
    order = rng.permutation(FLEET.n_shards)
    start = FLEET.warmup + 1
    kills = tuple(
        (int(shard), start + i * _KILL_GAP + int(rng.integers(0, 3)))
        for i, shard in enumerate(order)
    )
    arbiter_kill = start + len(kills) * _KILL_GAP + int(rng.integers(0, 3))
    return RestartSchedule(
        shard_kills=kills,
        arbiter_kill_at=arbiter_kill,
        arbiter_restart_at=arbiter_kill + 2,
        cycles=arbiter_kill + 2 + _KILL_GAP + _STEADY_TAIL,
    )
