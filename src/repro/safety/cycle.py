"""One control-cycle core: decide → guard, then monitor after dispatch.

The paper's controller is one loop (§4.3): read power, decide caps,
program them.  Every driver — the simulator and the TCP deploy server
(and, through the latter, every shard) — keeps its own I/O (meters, the
0.1 W wire, sockets) and its own envelope feeds (hardware read-back or
client acknowledgements), and runs the decision half of each cycle
through one :class:`ControlCycle`:

1. :meth:`ControlCycle.decide` steps the manager stack (a bare manager
   or a :class:`~repro.recovery.controller.RecoverableController`),
   records the commanded view, and gates the candidate caps through the
   :class:`~repro.safety.guard.BudgetGuard`;
2. the driver dispatches the guarded caps and records what it sent;
3. :meth:`ControlCycle.check` runs the invariant monitors.

Without a :class:`~repro.safety.config.SafetyConfig` the cycle is the
bare step: no envelope, guard or monitor exists and the caps pass
through untouched.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.safety.config import SafetyConfig
from repro.safety.envelope import BudgetEnvelope
from repro.safety.guard import BudgetGuard, last_readjust_grants
from repro.safety.invariants import (
    InvariantContext,
    InvariantMonitor,
    walk_manager_stack,
)
from repro.telemetry.log import ResilienceEventLog

__all__ = ["ControlCycle"]


class ControlCycle:
    """The decision half of one control loop, shared by every driver.

    Args:
        stepper: the bound manager stack to step — anything with the
            :class:`~repro.core.managers.PowerManager` surface.
        safety: budget-safety envelope configuration; None runs the
            bare step.
        events: sink of the ``budget_*`` / ``invariant_violation``
            events (a fresh log is created when omitted).

    Attributes:
        envelope / guard: the cap-view ledger and the budget guard
            (None without ``safety``).
        monitor: the invariant monitor (None without ``safety`` or with
            ``invariant_mode="off"``).
        now: time of the cycle in progress; stamps every event the
            cycle emits, manager-level budget rescales included.
        rung: the ladder rung the guard took in the latest
            :meth:`decide` (None when it took none).
    """

    def __init__(
        self,
        stepper,
        safety: SafetyConfig | None = None,
        events: ResilienceEventLog | None = None,
    ) -> None:
        self.stepper = stepper
        self.events = events if events is not None else ResilienceEventLog()
        self.now = 0.0
        self.rung: str | None = None
        self.envelope: BudgetEnvelope | None = None
        self.guard: BudgetGuard | None = None
        self.monitor: InvariantMonitor | None = None
        if safety is None:
            return
        self.envelope = BudgetEnvelope(
            stepper.n_units, stepper.budget_w, stepper.max_cap_w
        )
        self.guard = BudgetGuard(
            self.envelope,
            min_cap_w=stepper.min_cap_w,
            events=self.events,
            dry_run=not safety.guard,
        )
        if safety.invariant_mode != "off":
            self.monitor = InvariantMonitor(
                mode=safety.invariant_mode,
                sample_every=safety.sample_every,
                events=self.events,
                raise_on_violation=safety.raise_on_violation,
            )
        # Surface manager-level budget rescales as structured events:
        # every stack member without a callback gets one, and only
        # whoever actually rescales ever fires.
        for node in walk_manager_stack(stepper):
            if getattr(node, "on_budget_rescaled", False) is None:
                node.on_budget_rescaled = self._emit_rescaled

    def _emit_rescaled(self, name: str, over_w: float) -> None:
        self.events.emit(
            self.now,
            "budget_rescaled",
            detail=f"manager={name} overshoot={over_w:.3f}W",
        )

    def decide(
        self,
        readings_w: np.ndarray,
        now: float,
        demand_w: np.ndarray | None = None,
        unreachable: np.ndarray | None = None,
        assume_tdp: bool = False,
        pending: Sequence[np.ndarray] = (),
    ) -> np.ndarray:
        """Readings in, guarded caps out: step → commanded → guard.

        Args:
            readings_w: the reading vector the manager consumes.
            now: the cycle's time (simulated seconds or cycle index).
            demand_w: true demand, for managers that require it.
            unreachable / assume_tdp / pending: the driver's view of
                what no dispatch can reach this cycle (see
                :meth:`~repro.safety.guard.BudgetGuard.enforce`).

        Returns:
            The caps to dispatch.
        """
        self.now = now
        caps = self.stepper.step(readings_w, demand_w)
        self.rung = None
        if self.guard is None:
            return caps
        self.envelope.record_commanded(caps)
        decision = self.guard.enforce(
            caps,
            now=now,
            unreachable=unreachable,
            assume_tdp=assume_tdp,
            pending=pending,
            grants_w=last_readjust_grants(self.stepper),
        )
        self.rung = decision.rung
        return decision.caps_w

    def check(self, caps_w: np.ndarray, readings_w: np.ndarray) -> None:
        """Run the invariant monitors on this cycle's guarded caps.

        Called after dispatch on purpose: a strict-mode raise still
        fails the run this very cycle, but no client is left half-polled
        awaiting caps that never come.
        """
        if self.monitor is None:
            return
        stepper = self.stepper
        self.monitor.run(
            InvariantContext(
                budget_w=stepper.budget_w,
                min_cap_w=stepper.min_cap_w,
                max_cap_w=stepper.max_cap_w,
                caps_w=caps_w,
                readings_w=readings_w,
                manager=stepper,
            ),
            now=self.now,
        )
