"""Measurement- and actuation-fault injection for robustness testing.

The paper "assume[s] pessimistically that RAPL bares certain measurement
noise" (§4.3) and builds the Kalman filter against it.  Real telemetry
fails in more ways than Gaussian noise: counters stall (stuck readings),
samplers drop (zero readings), and transients spike.  :class:`MeterFaults`
corrupts a whole bank's readings with those three fault modes (and
:class:`FaultyMeter` one meter's) so the test suite can verify the
managers degrade gracefully — budgets still respected, no crashes,
recovery after the fault clears.

The write path fails too: a powercap sysfs write can be silently dropped
(EAGAIN under MSR contention, firmware-clamped limits, stale cached
values).  :class:`FlakyDomain` makes one unit's writes sometimes not
take, which is exactly the fault the actuator's read-back verification
exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.powercap.rapl import PowerMeter, RaplBank, RaplDomain

__all__ = ["FaultConfig", "FaultyMeter", "FlakyDomain", "MeterFaults"]


@dataclass(frozen=True)
class FaultConfig:
    """Per-reading fault probabilities and magnitudes.

    Attributes:
        stuck_prob: probability a reading repeats the previous value
            (counter stall).
        dropout_prob: probability a reading is 0.0 (sampler miss).
        spike_prob: probability a reading is multiplied by ``spike_gain``
            (electrical transient / decode glitch).
        spike_gain: multiplier applied on a spike.
    """

    stuck_prob: float = 0.0
    dropout_prob: float = 0.0
    spike_prob: float = 0.0
    spike_gain: float = 3.0

    def __post_init__(self) -> None:
        for name in ("stuck_prob", "dropout_prob", "spike_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        total = self.stuck_prob + self.dropout_prob + self.spike_prob
        if total > 1.0:
            raise ValueError(
                f"fault probabilities sum to {total}, must be <= 1"
            )
        if self.spike_gain <= 0:
            raise ValueError(f"spike_gain must be > 0, got {self.spike_gain}")


class MeterFaults:
    """Stuck/dropout/spike faults over a bank of meters.

    Installed as a :class:`~repro.powercap.rapl.RaplBank`'s
    ``meter_faults``, it corrupts every healthy reading the bank's meters
    return.  Each unit keeps its own fault stream, draws one roll per
    reading, and remembers its last output for the stuck fault.

    Args:
        config: fault probabilities.
        rngs: fault randomness, one generator per unit of the bank.
    """

    def __init__(
        self, config: FaultConfig, rngs: Sequence[np.random.Generator]
    ) -> None:
        self.config = config
        self._rngs = np.empty(len(rngs), dtype=object)
        self._rngs[:] = list(rngs)
        self._last_w = np.zeros(len(rngs))
        self._has_last = np.zeros(len(rngs), dtype=bool)
        #: Faulted readings so far, per unit.
        self.injected = np.zeros(len(rngs), dtype=np.int64)

    def apply(self, idx, healthy_w: np.ndarray) -> np.ndarray:
        """Corrupt the healthy readings of the selected units.

        A stuck fault needs a previous value to repeat; on a unit's very
        first reading it passes the healthy value through instead of
        returning the meaningless 0.0 initial state (which would be a
        dropout, not a stall).
        """
        cfg = self.config
        roll = np.fromiter(
            (rng.random() for rng in self._rngs[idx]),
            dtype=np.float64,
            count=healthy_w.size,
        )
        stuck = roll < cfg.stuck_prob
        roll -= cfg.stuck_prob
        dropout = ~stuck & (roll < cfg.dropout_prob)
        roll -= cfg.dropout_prob
        spike = ~stuck & ~dropout & (roll < cfg.spike_prob)
        repeat = stuck & self._has_last[idx]
        out = np.where(repeat, self._last_w[idx], healthy_w)
        out[dropout] = 0.0
        out[spike] = healthy_w[spike] * cfg.spike_gain
        self.injected[idx] += repeat | dropout | spike
        self._last_w[idx] = out
        self._has_last[idx] = True
        return out


class FaultyMeter:
    """A power meter wrapper injecting stuck/dropout/spike faults.

    Exposes the same ``read_power_w`` interface as
    :class:`~repro.powercap.rapl.PowerMeter`, so it drops into any code
    that meters one socket; a whole cluster's meters take a
    :class:`MeterFaults` instead
    (:meth:`~repro.cluster.cluster.Cluster.set_meter_faults`).

    Args:
        meter: the healthy meter being wrapped.
        config: fault probabilities.
        rng: fault randomness (seed for reproducibility).
    """

    def __init__(
        self,
        meter: PowerMeter,
        config: FaultConfig,
        rng: np.random.Generator,
    ) -> None:
        self.meter = meter
        self._faults = MeterFaults(config, [rng])

    @property
    def config(self) -> FaultConfig:
        return self._faults.config

    @config.setter
    def config(self, config: FaultConfig) -> None:
        self._faults.config = config

    @property
    def faults_injected(self) -> int:
        return int(self._faults.injected[0])

    def read_power_w(self, dt_s: float) -> float:
        """Read the underlying meter, possibly corrupted.

        The healthy meter is *always* advanced (its energy-counter cursor
        must track real time), then the returned value may be replaced.
        """
        healthy = np.array([self.meter.read_power_w(dt_s)])
        return float(self._faults.apply(slice(None), healthy)[0])

    def rebaseline(self) -> None:
        """Re-anchor the wrapped meter's energy cursor (see PowerMeter)."""
        self.meter.rebaseline()


class FlakyDomain:
    """A RAPL domain wrapper whose cap writes sometimes do not take.

    Drops each write to the wrapped domain's unit with probability
    ``drop_prob`` (the limit silently keeps its previous value, as a
    failed sysfs write leaves it), optionally only for the first
    ``max_drops`` writes so tests can model transient contention that a
    bounded retry rides out.  The fault is installed on the unit's bank,
    so vector writes through the bank drop exactly like ``set_cap_w``.
    Reads and physics pass straight through to the wrapped domain.

    Args:
        domain: the healthy domain being wrapped.
        drop_prob: probability any given write is silently dropped.
        rng: fault randomness (seed for reproducibility).
        max_drops: total writes ever dropped (None = unlimited).
    """

    def __init__(
        self,
        domain: RaplDomain,
        drop_prob: float,
        rng: np.random.Generator,
        max_drops: int | None = None,
    ) -> None:
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1], got {drop_prob}")
        if max_drops is not None and max_drops < 0:
            raise ValueError(f"max_drops must be >= 0, got {max_drops}")
        self.domain = domain
        self.drop_prob = drop_prob
        self._rng = rng
        self.max_drops = max_drops
        #: Writes silently dropped so far.
        self.writes_dropped = 0
        domain.bank.write_faults[domain.index] = self._drops

    def _drops(self) -> bool:
        """Decide whether the current write is the one that fails."""
        budget_left = (
            self.max_drops is None or self.writes_dropped < self.max_drops
        )
        if budget_left and self._rng.random() < self.drop_prob:
            self.writes_dropped += 1
            return True
        return False

    @property
    def bank(self) -> RaplBank:
        return self.domain.bank

    @property
    def index(self) -> int:
        return self.domain.index

    @property
    def name(self) -> str:
        return self.domain.name

    @property
    def max_power_w(self) -> float:
        return self.domain.max_power_w

    @property
    def min_power_w(self) -> float:
        return self.domain.min_power_w

    @property
    def cap_w(self) -> float:
        return self.domain.cap_w

    @property
    def power_w(self) -> float:
        return self.domain.power_w

    def set_cap_w(self, cap_w: float) -> float:
        """Program a limit — unless this write is the one that fails.

        Returns:
            The limit in effect after the write.
        """
        self.domain.set_cap_w(cap_w)
        return self.domain.cap_w

    def read_energy_uj(self) -> int:
        return self.domain.read_energy_uj()

    def power_off(self) -> None:
        self.domain.power_off()

    def step(self, demand_w: float, dt_s: float) -> float:
        return self.domain.step(demand_w, dt_s)
