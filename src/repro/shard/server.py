"""One shard of the sharded control plane.

A :class:`ShardServer` owns a contiguous slice of the cluster's clients
and runs them under a full crash-recoverable stack: a
:class:`~repro.recovery.controller.RecoverableController` (journal +
checkpoints) driving a :class:`~repro.deploy.server.DeployServer` with
the budget-safety envelope enabled.  Its budget is a **lease** from the
:class:`~repro.shard.arbiter.BudgetArbiter`: renewals arrive over the
shard's :class:`~repro.shard.lease.ShardLink` ahead of every control
cycle, and a lease that outlives its term without renewal makes the
shard *freeze itself* — it drops its own budget to its last confirmed
committed power (never below its floor) and holds there until grants
flow again.  Freezing is the shard-local half of partition safety: even
with the arbiter dark forever, a frozen shard cannot grow into budget
another shard may have been handed.

The durable parts (controller, lease state, link) live on this object
across crashes; the :class:`~repro.deploy.server.DeployServer` and its
sockets are per-attempt and rebuilt by :meth:`start` after every
supervised restart.
"""

from __future__ import annotations

import numpy as np

from repro.deploy.server import DeployCycleStats, DeployServer
from repro.recovery.controller import RecoverableController
from repro.resilience.health import ResilienceConfig
from repro.safety import SafetyConfig, walk_manager_stack
from repro.shard.lease import ArbiterConfig, BudgetLease, ShardLink, ShardSummary
from repro.telemetry.log import ResilienceEventLog

__all__ = ["ShardServer"]


class ShardServer:
    """A leased, crash-recoverable slice of the control plane.

    Args:
        shard_id: this shard's index (rides shard events as ``node_id``).
        controller: the shard's recoverable controller, already bound to
            the shard's slice topology with the initial lease as budget.
        link: the channel to the arbiter.
        config: the lease protocol's shared knobs.
        events: structured event sink shared with the arbiter/harness.
        resilience: client quarantine configuration for the deploy
            server (defaults applied when omitted).
        safety: deploy-server safety envelope configuration; the
            envelope must be enabled (it is both the source of the
            shard's committed-power summaries and the budget enforcement
            at the shard's actuation boundary), so a config with
            ``guard=True`` is substituted when omitted.
    """

    def __init__(
        self,
        shard_id: int,
        controller: RecoverableController,
        link: ShardLink,
        config: ArbiterConfig | None = None,
        events: ResilienceEventLog | None = None,
        resilience: ResilienceConfig | None = None,
        safety: SafetyConfig | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.controller = controller
        self.link = link
        self.config = config or ArbiterConfig()
        self.events = events if events is not None else ResilienceEventLog()
        self.resilience = resilience or ResilienceConfig()
        self.safety = safety or SafetyConfig(guard=True)
        #: The budget currently leased to this shard (W).
        self.lease_w = float(controller.budget_w)
        #: Sequence number of the last applied grant (0 = the initial
        #: lease the shard was constructed with).
        self.lease_seq = 0
        #: Control cycles since the last applied grant.
        self.lease_age = 0
        #: True while the shard has frozen itself on an expired lease.
        self.frozen = False
        self.server: DeployServer | None = None
        self._last_stats: DeployCycleStats | None = None

    @property
    def n_units(self) -> int:
        return self.controller.n_units

    @property
    def floor_w(self) -> float:
        """The lowest budget this shard can operate under."""
        return self.controller.n_units * self.controller.min_cap_w

    # ------------------------------------------------------------------
    # Per-attempt lifecycle.
    # ------------------------------------------------------------------

    def start(self, host: str = "127.0.0.1", timeout_s: float = 5.0) -> DeployServer:
        """Build this attempt's deploy server (always on an ephemeral port).

        The previous attempt's server, if any, is shut down first — its
        sockets are dead after a crash either way.
        """
        if self.server is not None:
            self.server.shutdown()
        self.server = DeployServer(
            self.controller,
            host=host,
            port=0,
            timeout_s=timeout_s,
            resilience=self.resilience,
            events=self.events,
            safety=self.safety,
        )
        return self.server

    def stop(self) -> None:
        """Shut down the current attempt's server (idempotent)."""
        if self.server is not None:
            self.server.shutdown()
            self.server = None

    # ------------------------------------------------------------------
    # The lease state machine.
    # ------------------------------------------------------------------

    def poll_grants(self, now: float) -> bool:
        """Apply the newest pending grant, if any.

        Grants are idempotent renewals: any grant with a sequence number
        at or below the last applied one only resets the lease age (the
        arbiter re-sends the current value as the renewal); a newer one
        also re-leases the budget through the whole stack — controller,
        manager, and the deploy server's envelope/guard.

        Returns:
            True when any grant (renewal or new) was consumed.
        """
        newest: BudgetLease | None = None
        for doc in self.link.take_grants():
            grant = BudgetLease.from_doc(doc)
            if newest is None or grant.seq > newest.seq:
                newest = grant
        if newest is None:
            return False
        self.lease_age = 0
        if newest.seq > self.lease_seq:
            self.lease_seq = newest.seq
            self._apply_budget(newest.budget_w)
            self.lease_w = newest.budget_w
            self.events.emit(
                now,
                "shard_lease_applied",
                node_id=self.shard_id,
                detail=f"seq={newest.seq} lease={newest.budget_w:.1f}W",
            )
        elif self.frozen or self.controller.budget_w != self.lease_w:
            # A renewal after a freeze restores the full lease.
            self._apply_budget(self.lease_w)
        if self.frozen:
            self.frozen = False
            self.events.emit(
                now,
                "shard_unfrozen",
                node_id=self.shard_id,
                detail=f"lease renewed at seq={self.lease_seq}",
            )
        return True

    def resume_lease_state(self) -> None:
        """Rebuild the lease state machine after a crash-restore.

        In-memory lease state dies with the process; what survives is
        the checkpointed manager budget (re-converged through the
        journal's per-step budget records by
        :meth:`~repro.recovery.controller.RecoverableController.resume`).
        That budget *is* the recovered lease.  The sequence number
        restarts at 0 — any grant the arbiter sends is newer by
        definition, and the arbiter's applied view stays at its own
        conservative value until the shard echoes a fresh sequence.
        """
        self.lease_w = float(self.controller.budget_w)
        self.lease_seq = 0
        self.lease_age = 0
        self.frozen = False

    def _apply_budget(self, budget_w: float) -> None:
        """Push a budget through controller, manager, and safety stack."""
        self.controller.set_budget_w(budget_w)
        if self.server is not None and self.server.cycle.envelope is not None:
            self.server.cycle.envelope.budget_w = float(budget_w)

    def _expire_lease(self, now: float) -> None:
        """Freeze at the last confirmed committed power (floor-clipped)."""
        self.events.emit(
            now,
            "shard_lease_expired",
            node_id=self.shard_id,
            detail=(
                f"seq={self.lease_seq} age={self.lease_age} "
                f"term={self.config.lease_term_cycles}"
            ),
        )
        self._freeze(now)

    def _freeze(self, now: float) -> None:
        committed = self._steady_committed_w()
        frozen_w = float(
            np.clip(
                committed if np.isfinite(committed) else self.lease_w,
                self.floor_w,
                self.lease_w,
            )
        )
        self.frozen = True
        self._apply_budget(frozen_w)
        self.events.emit(
            now,
            "shard_frozen",
            node_id=self.shard_id,
            detail=f"held at {frozen_w:.1f}W of {self.lease_w:.1f}W lease",
        )

    def drain(self, now: float) -> bool:
        """Graceful shutdown: checkpoint, freeze, send the final summary.

        The SIGTERM half of the drain protocol: the shard checkpoints
        its controller, pins its budget at the last confirmed committed
        power (so its hardware can never rise again), and reports one
        last summary with ``final=True`` — the acknowledgement the
        arbiter's :meth:`~repro.shard.arbiter.BudgetArbiter.drain` waits
        for before reclaiming the lease.

        Returns:
            True when the final summary was accepted by the link.
        """
        self.events.emit(
            now,
            "shard_draining",
            node_id=self.shard_id,
            detail="graceful drain requested",
        )
        self.controller.checkpoint()
        if not self.frozen:
            self._freeze(now)
        return self.summarize(cycle=int(now), final=True)

    # ------------------------------------------------------------------
    # The control cycle and the summary.
    # ------------------------------------------------------------------

    def run_cycle(self, now: float) -> DeployCycleStats:
        """One shard control cycle: grants → deploy cycle → lease aging."""
        if self.server is None:
            raise RuntimeError("shard server not started")
        self.poll_grants(now)
        stats = self.server.control_cycle()
        self._last_stats = stats
        self.lease_age += 1
        if not self.frozen and self.lease_age > self.config.lease_term_cycles:
            self._expire_lease(now)
        return stats

    def _committed(self) -> tuple[float, float]:
        """(steady, worst-case) committed power of the shard (W)."""
        assert self.server is not None
        env = self.server.cycle.envelope
        assert env is not None
        candidate = np.where(
            np.isfinite(env.dispatched_w), env.dispatched_w, env.applied_w
        )
        cp = env.assess(
            candidate_w=candidate,
            unreachable=self.server.quarantined_units,
            assume_tdp=self.resilience.fallback == "assume-tdp",
        )
        return cp.steady_total_w, cp.worst_case_total_w

    def _steady_committed_w(self) -> float:
        if self.server is None or self.server.cycle.envelope is None:
            return float("nan")
        return self._committed()[0]

    def _high_priority(self) -> bool:
        """Whether this shard carries high-priority demand.

        Prefers the manager stack's own priority introspection (the DPS
        step info); falls back to a utilization heuristic — committed
        power near the lease means the shard would use more.
        """
        for node in walk_manager_stack(self.controller.manager):
            info = getattr(node, "last_info", None)
            if info is not None and hasattr(info, "priority"):
                return bool(np.any(np.asarray(info.priority, dtype=bool)))
        steady = self._steady_committed_w()
        budget = float(self.controller.budget_w)
        return bool(np.isfinite(steady) and steady >= 0.85 * budget)

    def summarize(self, cycle: int, final: bool = False) -> bool:
        """Build and send this cycle's summary to the arbiter.

        Args:
            cycle: the shard control cycle the summary describes.
            final: True on a drain's last summary (the shard's frozen
                state will never change again).

        Returns:
            True when the summary was accepted by the link (False under
            a partition — the shard cannot tell a dropped frame from a
            dead arbiter; the lease term handles both identically).
        """
        steady, worst = self._committed()
        summary = ShardSummary(
            shard_id=self.shard_id,
            cycle=cycle,
            seq=self.lease_seq,
            lease_w=self.lease_w,
            committed_w=steady,
            worst_w=worst,
            headroom_w=self.lease_w - steady,
            high_priority=self._high_priority(),
            n_units=self.n_units,
            frozen=self.frozen,
            final=final,
        )
        return self.link.send_summary(summary.to_doc())
