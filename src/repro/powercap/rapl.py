"""Simulated RAPL domains (paper §4.2; DESIGN.md substitution table row 1).

DPS interacts with the hardware in exactly two ways: reading power and
setting power caps, both via Intel RAPL.  This module provides a faithful
software stand-in for a bank of RAPL domains (one per socket / package):

* a monotonically increasing **energy counter** in microjoules that wraps at
  ``max_energy_range_uj``, exactly like the MSR/sysfs counter — consumers
  must derive power from counter differences, wraps included;
* **cap enforcement**: a domain's true power never exceeds its limit
  (RAPL's running-average window is far shorter than the 1 s control loop,
  so within one step the limit is simply met);
* a **first-order lag** with which true power approaches its target
  (``min(demand, cap)``) — power changes with inertia (§3.3);
* **metering**: counter reads converted into power samples plus Gaussian
  measurement noise, the noise DPS's Kalman filter exists to absorb
  (§4.3.2).

The state lives in one struct-of-arrays :class:`RaplBank` — the unit axis
is the long one (DESIGN.md §8), so physics, metering and cap writes are
each one array operation per interval.  :class:`RaplDomain` and
:class:`PowerMeter` are thin ``(bank, index)`` views with the per-socket
interface the sysfs emulation and single-domain callers use; constructed
standalone, each owns a one-unit bank.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.core.config import RaplConfig
from repro.recovery.state import decode_array, encode_array, make_rng, rng_state

__all__ = ["ALL", "RaplBank", "RaplDomain", "PowerMeter", "bank_runs"]

#: Every unit of a bank.
ALL = slice(None)


class RaplBank:
    """Struct-of-arrays state of ``n_units`` RAPL domains and their meters.

    Per unit: the programmed cap, the true power, the float µJ energy
    accumulator, the meter's ``last_uj`` counter cursor and the meter's
    noise generator.  Unit selections (``idx``) are anything that indexes
    a 1-D array — :data:`ALL`, a slice, an index or boolean array.

    Args:
        n_units: domains in the bank.
        max_power_w: hardware maximum power / highest accepted cap (TDP).
        min_power_w: lowest accepted cap.
        config: noise, lag, and counter-wrap behaviour.
        initial_power_w: true power at construction (idle floor).
        rngs: one measurement-noise generator per unit (a unit without
            one can be stepped and capped, not metered with noise).
    """

    def __init__(
        self,
        n_units: int,
        max_power_w: float,
        min_power_w: float = 0.0,
        config: RaplConfig | None = None,
        initial_power_w: float = 0.0,
        rngs: Sequence[np.random.Generator | None] | None = None,
    ) -> None:
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        if max_power_w <= 0:
            raise ValueError(f"max_power_w must be > 0, got {max_power_w}")
        if not 0 <= min_power_w <= max_power_w:
            raise ValueError(
                f"min_power_w must be in [0, max_power_w], got {min_power_w}"
            )
        if not 0 <= initial_power_w <= max_power_w:
            raise ValueError(
                f"initial_power_w must be in [0, max_power_w], "
                f"got {initial_power_w}"
            )
        if rngs is not None and len(rngs) != n_units:
            raise ValueError(f"{len(rngs)} generators for {n_units} units")
        self.n_units = n_units
        self.max_power_w = float(max_power_w)
        self.min_power_w = float(min_power_w)
        self.config = config or RaplConfig()
        self.cap_w = np.full(n_units, self.max_power_w)
        self.power_w = np.full(n_units, float(initial_power_w))
        self.energy_uj = np.zeros(n_units)
        self.last_uj = np.zeros(n_units, dtype=np.int64)
        self.rngs = np.empty(n_units, dtype=object)
        if rngs is not None:
            self.rngs[:] = list(rngs)
        #: Optional reading corruption (a
        #: :class:`~repro.powercap.faults.MeterFaults`) applied to every
        #: healthy reading of the bank's meters.
        self.meter_faults = None
        #: Per-unit write faults: ``unit -> drops()``, called once per
        #: write to that unit; True leaves the old limit in place.
        self.write_faults: dict[int, Callable[[], bool]] = {}

    def step(
        self, demand_w: np.ndarray, dt_s: float, idx=ALL
    ) -> np.ndarray:
        """Advance the selected domains by one interval.

        True power relaxes toward ``min(demand, cap)`` through a
        first-order lag and is hard-clipped at the cap (RAPL enforcement);
        the energy counter integrates the trajectory.

        Args:
            demand_w: uncapped power the workloads would draw (W), one per
                selected unit.
            dt_s: interval length (s).

        Returns:
            True power of the selected units at the end of the interval.
        """
        demand = np.asarray(demand_w, dtype=np.float64)
        negative = demand < 0
        if negative.any():
            raise ValueError(
                f"demand_w must be >= 0, got {float(demand[negative][0])}"
            )
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s}")
        cap = self.cap_w[idx]
        old = self.power_w[idx]
        alpha = 1.0 - math.exp(-dt_s / self.config.lag_tau_s)
        target = np.minimum(demand, cap)
        new = np.maximum(np.minimum(old + (target - old) * alpha, cap), 0.0)
        # Trapezoidal energy over the exponential approach is within a few
        # percent of exact for dt ~ tau; use the midpoint of old/new power.
        self.energy_uj[idx] += (old + new) * 0.5 * dt_s * 1e6
        self.power_w[idx] = new
        return new

    def read_energy_uj(self, idx=ALL) -> np.ndarray:
        """Current values of the wrapping energy counters (µJ)."""
        return (self.energy_uj[idx] % self.config.counter_wrap_uj).astype(
            np.int64
        )

    def read(self, idx, dt_s: float) -> np.ndarray:
        """Sample average power over the interval since each unit's
        previous read.

        This is how the paper's clients obtain power: two counter reads
        one interval apart, wrap-corrected, divided by the interval — plus
        the measurement noise the paper pessimistically assumes (§4.3).
        Each unit draws its noise from its own generator, so a unit's
        stream does not depend on which other units are read with it.

        Args:
            idx: the units read.
            dt_s: elapsed time since the last read (s).

        Returns:
            Noisy, non-negative power samples (W), corrupted by
            :attr:`meter_faults` when installed.
        """
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s}")
        now = self.read_energy_uj(idx)
        # Both cursors lie in [0, wrap), so the floored modulo adds one
        # wrap exactly when the counter wrapped between reads.
        delta = np.remainder(now - self.last_uj[idx], self.config.counter_wrap_uj)
        self.last_uj[idx] = now
        power = delta / dt_s * 1e-6
        noise_std = self.config.noise_std_w
        if noise_std > 0:
            # ``normal(0, s)`` is ``0 + s * standard_normal()`` from the
            # same stream; the ``0 +`` only turns a -0.0 into 0.0, which
            # the sum with a non-negative power absorbs.
            power += noise_std * np.fromiter(
                (rng.standard_normal() for rng in self.rngs[idx]),
                dtype=np.float64,
                count=power.size,
            )
        power = np.maximum(power, 0.0)
        if self.meter_faults is not None:
            power = self.meter_faults.apply(idx, power)
        return power

    def set_caps(self, idx, caps_w) -> np.ndarray:
        """Program new power limits, clamped to the accepted range.

        Returns:
            The effective (clamped) limits a correct write programs,
            mirroring how the powercap sysfs interface clamps out-of-range
            writes.  A unit in :attr:`write_faults` may keep its old limit.

        Raises:
            ValueError: a non-finite cap (nothing is programmed).
        """
        caps = np.asarray(caps_w, dtype=np.float64)
        finite = np.isfinite(caps)
        if not finite.all():
            raise ValueError(
                f"cap must be finite, got {float(caps[~finite][0])!r}"
            )
        lo, hi = self.min_power_w, self.max_power_w
        clamped = np.where(caps < lo, lo, np.where(caps > hi, hi, caps))
        written = clamped
        if self.write_faults:
            dropped = [
                unit in self.write_faults and self.write_faults[unit]()
                for unit in np.arange(self.n_units)[idx].tolist()
            ]
            written = np.where(dropped, self.cap_w[idx], clamped)
        self.cap_w[idx] = written
        return clamped

    def power_off(self, idx) -> None:
        """Hard power loss: true power drops to zero instantly.

        Models a node crash — unlike stepping with zero demand (which
        decays through the first-order lag), a dead machine stops drawing
        power immediately.  The energy counters and the programmed caps
        are preserved, exactly as RAPL state survives in the simulator's
        bookkeeping of a host that will later reboot.
        """
        self.power_w[idx] = 0.0

    def rebaseline(self, idx=ALL) -> None:
        """Re-anchor the meters' counter cursors at the current energy.

        A restarted metering daemon takes a new first read; an in-process
        restart must do the same, or the energy accumulated while the
        controller was down is charged to the first post-restart interval
        and the reading comes back inflated.
        """
        self.last_uj[idx] = self.read_energy_uj(idx)

    def snapshot(self) -> dict:
        """JSON-able document of the bank's physical and meter state.

        Arrays travel bit-exactly as encoded bytes.  A noise-free bank
        never draws from its generators, so their states are omitted — at
        fleet scale the dead RNG states would dominate the document.
        """
        doc = {
            "cap_w": encode_array(self.cap_w),
            "power_w": encode_array(self.power_w),
            "energy_uj": encode_array(self.energy_uj),
            "last_uj": encode_array(self.last_uj),
        }
        if self.config.noise_std_w > 0:
            doc["rng"] = [rng_state(rng) for rng in self.rngs]
        return doc

    def restore(self, state: dict) -> None:
        """Overwrite the bank's state with a snapshot's content.

        Raises:
            ValueError: the snapshot holds a different number of units.
        """
        arrays = {
            name: decode_array(state[name])
            for name in ("cap_w", "power_w", "energy_uj", "last_uj")
        }
        rngs = state.get("rng")
        sizes = {a.shape for a in arrays.values()}
        if sizes != {(self.n_units,)} or (
            rngs is not None and len(rngs) != self.n_units
        ):
            raise ValueError(
                f"snapshot holds arrays of shape {sorted(sizes)}, the bank "
                f"has {self.n_units} units"
            )
        self.cap_w[:] = arrays["cap_w"]
        self.power_w[:] = arrays["power_w"]
        self.energy_uj[:] = arrays["energy_uj"]
        self.last_uj[:] = arrays["last_uj"]
        if rngs is not None:
            self.rngs[:] = [make_rng(doc) for doc in rngs]

    def domain(self, index: int, name: str) -> RaplDomain:
        """A :class:`RaplDomain` view of one unit."""
        view = RaplDomain.__new__(RaplDomain)
        view._bind(self, index, name)
        return view


def bank_runs(domains: Sequence) -> list[tuple[RaplBank, slice, slice]]:
    """Split domain views into maximal runs of consecutive bank units.

    Returns:
        ``(bank, positions, units)`` triples: ``domains[positions]`` are
        ``bank`` units ``units``.  The domains of one cluster node, or of
        a whole cluster, form a single run, so an operation over them is
        one array operation per run.
    """
    runs = []
    start = 0
    for pos in range(1, len(domains) + 1):
        if (
            pos == len(domains)
            or domains[pos].bank is not domains[start].bank
            or domains[pos].index != domains[pos - 1].index + 1
        ):
            first = domains[start].index
            runs.append(
                (
                    domains[start].bank,
                    slice(start, pos),
                    slice(first, first + pos - start),
                )
            )
            start = pos
    return runs


class RaplDomain:
    """One power-capping unit with RAPL read/cap semantics.

    A view of one unit of a :class:`RaplBank`; constructed directly, it
    owns a one-unit bank.

    Args:
        name: identifier (e.g. ``"package-0"``), surfaced in the sysfs tree.
        max_power_w: hardware maximum power / highest accepted cap (TDP).
        min_power_w: lowest accepted cap.
        config: noise, lag, and counter-wrap behaviour.
        initial_power_w: true power at construction (idle floor).
    """

    def __init__(
        self,
        name: str,
        max_power_w: float,
        min_power_w: float = 0.0,
        config: RaplConfig | None = None,
        initial_power_w: float = 0.0,
    ) -> None:
        bank = RaplBank(1, max_power_w, min_power_w, config, initial_power_w)
        self._bind(bank, 0, name)

    def _bind(self, bank: RaplBank, index: int, name: str) -> None:
        self.bank = bank
        self.index = index
        self.name = name
        self._unit = slice(index, index + 1)

    @property
    def max_power_w(self) -> float:
        return self.bank.max_power_w

    @property
    def min_power_w(self) -> float:
        return self.bank.min_power_w

    @property
    def config(self) -> RaplConfig:
        return self.bank.config

    @property
    def cap_w(self) -> float:
        """Current power limit (W)."""
        return float(self.bank.cap_w[self.index])

    @property
    def power_w(self) -> float:
        """True instantaneous power (W) — hidden from managers, who must
        estimate it through the (noisy) meter."""
        return float(self.bank.power_w[self.index])

    def set_cap_w(self, cap_w: float) -> float:
        """Program a new power limit, clamped to the accepted range.

        Returns:
            The effective (clamped) limit.
        """
        return float(self.bank.set_caps(self._unit, [cap_w])[0])

    def read_energy_uj(self) -> int:
        """Current value of the wrapping energy counter (µJ)."""
        return int(self.bank.read_energy_uj(self._unit)[0])

    def power_off(self) -> None:
        """Hard power loss (see :meth:`RaplBank.power_off`)."""
        self.bank.power_off(self._unit)

    def snapshot(self) -> dict:
        """JSON-able document of the domain's physical state."""
        bank, i = self.bank, self.index
        return {
            "cap_w": float(bank.cap_w[i]),
            "power_w": float(bank.power_w[i]),
            "energy_uj": float(bank.energy_uj[i]),
        }

    def restore(self, state: dict) -> None:
        """Overwrite the physical state with a snapshot's content."""
        bank, i = self.bank, self.index
        bank.cap_w[i] = float(state["cap_w"])
        bank.power_w[i] = float(state["power_w"])
        bank.energy_uj[i] = float(state["energy_uj"])

    def step(self, demand_w: float, dt_s: float) -> float:
        """Advance the domain by one interval (see :meth:`RaplBank.step`).

        Returns:
            True power at the end of the interval (W).
        """
        return float(self.bank.step([demand_w], dt_s, self._unit)[0])


class PowerMeter:
    """Derives power samples from a domain's energy-counter differences.

    A view of the meter state (counter cursor, noise generator) the
    domain's bank keeps for its unit; constructing one attaches ``rng``
    to the unit and anchors the cursor at the current counter value.

    Args:
        domain: the RAPL domain being metered.
        rng: noise source; pass a seeded generator for reproducibility.
    """

    def __init__(self, domain: RaplDomain, rng: np.random.Generator) -> None:
        self.domain = domain
        domain.bank.rngs[domain.index] = rng
        domain.bank.rebaseline(domain._unit)

    @classmethod
    def of(cls, domain: RaplDomain) -> PowerMeter:
        """A view of the meter state already attached to ``domain``."""
        view = cls.__new__(cls)
        view.domain = domain
        return view

    def rebaseline(self) -> None:
        """Re-anchor the counter cursor (see :meth:`RaplBank.rebaseline`)."""
        self.domain.bank.rebaseline(self.domain._unit)

    def snapshot(self) -> dict:
        """JSON-able document of the meter cursor and noise stream.

        A noise-free meter never draws from its generator, so its state is
        omitted.
        """
        bank, i = self.domain.bank, self.domain.index
        doc: dict = {"last_uj": int(bank.last_uj[i])}
        if bank.config.noise_std_w > 0:
            doc["rng"] = rng_state(bank.rngs[i])
        return doc

    def restore(self, state: dict) -> None:
        """Overwrite the cursor and noise stream with a snapshot's content."""
        bank, i = self.domain.bank, self.domain.index
        bank.last_uj[i] = int(state["last_uj"])
        if "rng" in state:
            bank.rngs[i] = make_rng(state["rng"])

    def read_power_w(self, dt_s: float) -> float:
        """Sample average power over the interval since the previous read.

        Args:
            dt_s: elapsed time since the last call (s).

        Returns:
            Noisy, non-negative power sample (W).
        """
        return float(self.domain.bank.read(self.domain._unit, dt_s)[0])
