"""Cap actuation across RAPL domains, one vector write per bank.

The paper's clients receive cap commands from the server and program them
into RAPL; commands computed from the readings of interval *t* take effect
for interval *t+1*.  :class:`CapActuator` models exactly that one-interval
command pipeline (optionally zero-delay for idealized studies) plus command
quantization to whole microwatts, and counts how many caps actually changed
— the quantity the stateless module's ``set_flag`` tracks and the §6.5
overhead analysis charges for.

With ``verify=True`` every write is checked by reading the limit back (the
powercap sysfs returns what actually got programmed); a mismatch is retried
up to ``max_retries`` times with bounded backoff, and exhaustion is
*reported, never raised* — an unverifiable unit must degrade the telemetry,
not kill the control loop.  Verification outcomes accumulate in
:attr:`events` as ``(kind, unit, detail)`` tuples for the caller to drain
into its telemetry channel.
"""

from __future__ import annotations

import time

import numpy as np

from repro.powercap.rapl import RaplDomain, bank_runs
from repro.recovery.state import decode_array, encode_array

__all__ = ["CapActuator"]


class CapActuator:
    """Applies per-unit cap vectors to RAPL domains.

    Args:
        domains: the domains actuated, one per unit, in unit order.
            Consecutive units of one bank (a cluster's domains) are
            written as one array operation.
        delay_steps: number of control intervals between a command being
            issued and it taking effect (0 = immediate, 1 = next interval,
            matching a networked client).
        verify: read each programmed limit back and retry on mismatch.
        max_retries: bounded retry budget per unit per command (>= 0).
        backoff_s: sleep before the first retry, doubled per attempt
            (0.0 — the default — never sleeps; simulations retry
            immediately, hardware deployments pass a real base delay).
    """

    def __init__(
        self,
        domains: list[RaplDomain],
        delay_steps: int = 0,
        verify: bool = False,
        max_retries: int = 3,
        backoff_s: float = 0.0,
    ) -> None:
        if not domains:
            raise ValueError("at least one domain is required")
        if delay_steps < 0:
            raise ValueError(f"delay_steps must be >= 0, got {delay_steps}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        self._domains = list(domains)
        self._runs = bank_runs(self._domains)
        self.delay_steps = delay_steps
        self.verify = verify
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._pipeline: list[np.ndarray] = []
        self.commands_applied = 0
        #: Write retries performed across all units (verify mode).
        self.retries = 0
        #: Commands whose verification exhausted the retry budget.
        self.verify_failures = 0
        #: Pending ``(kind, unit, detail)`` verification events; the owner
        #: of the actuator drains these into its telemetry channel.
        self.events: list[tuple[str, int, str]] = []

    @property
    def n_units(self) -> int:
        """Number of actuated units."""
        return len(self._domains)

    @property
    def pending(self) -> list[np.ndarray]:
        """Copies of the queued (not yet applied) command vectors, oldest
        first — the in-flight pipeline a crash would lose."""
        return [caps.copy() for caps in self._pipeline]

    def reset(self) -> None:
        """Drop all in-flight commands and counters.

        Required between runs that reuse one actuator: without it, stale
        queued commands from the previous run would actuate into the next
        one's first intervals.
        """
        self._pipeline.clear()
        self.commands_applied = 0
        self.retries = 0
        self.verify_failures = 0
        self.events.clear()

    def issue(self, caps_w: np.ndarray) -> int:
        """Issue a cap command vector; apply whatever is due this interval.

        Args:
            caps_w: per-unit caps (W), shape ``(n_units,)``.

        Returns:
            Number of domains whose effective limit changed this interval.
        """
        caps = np.asarray(caps_w, dtype=np.float64)
        if caps.shape != (self.n_units,):
            raise ValueError(f"caps shape {caps.shape} != ({self.n_units},)")
        self._pipeline.append(caps.copy())
        if len(self._pipeline) <= self.delay_steps:
            return 0
        return self._apply(self._pipeline.pop(0))

    def _caps(self) -> np.ndarray:
        """Read back every actuated unit's programmed limit."""
        caps = np.empty(self.n_units)
        for bank, pos, units in self._runs:
            caps[pos] = bank.cap_w[units]
        return caps

    def _apply(self, due: np.ndarray) -> int:
        before = self._caps()
        # Quantize to whole microwatts, as a sysfs write would (half to
        # even, exactly like the builtin round()).
        quantized = np.round(due * 1e6) / 1e6
        expected = np.empty(self.n_units)
        for bank, pos, units in self._runs:
            expected[pos] = bank.set_caps(units, quantized[pos])
        self.commands_applied += self.n_units
        if self.verify:
            # What a correct write reads back is the sysfs clamp of the
            # request; only the units that read back something else
            # take the per-unit retry path.
            for unit in np.flatnonzero(self._caps() != expected).tolist():
                self._retry(unit, float(quantized[unit]), float(expected[unit]))
        return int(np.count_nonzero(self._caps() != before))

    def _retry(self, unit: int, cap_w: float, expected: float) -> None:
        """Re-program one unverified limit with bounded backoff."""
        dom = self._domains[unit]
        delay = self.backoff_s
        for attempt in range(1, self.max_retries + 1):
            if delay > 0:
                time.sleep(delay)
                delay *= 2.0
            self.retries += 1
            dom.set_cap_w(cap_w)
            if dom.cap_w == expected:
                self.events.append(
                    (
                        "actuation_retried",
                        unit,
                        f"verified after {attempt} retr"
                        f"{'y' if attempt == 1 else 'ies'}",
                    )
                )
                return
        self.verify_failures += 1
        self.events.append(
            (
                "actuation_retry_exhausted",
                unit,
                f"cap {cap_w:.3f} W unverified after "
                f"{self.max_retries} retries (read {dom.cap_w:.3f} W)",
            )
        )

    def flush(self) -> None:
        """Apply all queued commands immediately (end-of-run cleanup)."""
        while self._pipeline:
            self._apply(self._pipeline.pop(0))

    def snapshot(self) -> dict:
        """JSON-able document of the in-flight pipeline and counters."""
        return {
            "pipeline": [encode_array(caps) for caps in self._pipeline],
            "commands_applied": self.commands_applied,
            "retries": self.retries,
            "verify_failures": self.verify_failures,
        }

    def restore(self, state: dict) -> None:
        """Overwrite the pipeline and counters with a snapshot's content."""
        pipeline = [decode_array(doc) for doc in state["pipeline"]]
        for caps in pipeline:
            if caps.shape != (self.n_units,):
                raise ValueError(
                    f"snapshot command shape {caps.shape} != "
                    f"({self.n_units},)"
                )
        self._pipeline = pipeline
        self.commands_applied = int(state["commands_applied"])
        self.retries = int(state.get("retries", 0))
        self.verify_failures = int(state.get("verify_failures", 0))
        self.events.clear()
