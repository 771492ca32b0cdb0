"""RaplBank is bit-identical to the per-domain scalar loops it replaced.

The oracle below is the per-object substrate — ``RaplDomain.step`` /
``set_cap_w`` and ``PowerMeter.read_power_w`` one unit at a time — kept
here only as a reference.  Hypothesis drives both through random runs
(demand, caps in and out of range, intervals, counter wraps, noise,
power loss, snapshot/restore) and requires exact array equality.
"""

import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.powercap.faults import FaultConfig, MeterFaults
from repro.powercap.rapl import ALL, PowerMeter, RaplBank, RaplDomain

MAX_W, MIN_W, IDLE_W = 165.0, 30.0, 12.0


def budget(n: int) -> int:
    """At least ``n`` examples; more under a larger loaded profile."""
    return max(n, settings.default.max_examples)


class ScalarDomain:
    """One domain and its meter, exactly as the per-object code ran."""

    def __init__(self, config, rng):
        self.config = config
        self.rng = rng
        self.cap_w = MAX_W
        self.power_w = IDLE_W
        self.energy_uj = 0.0
        self.last_uj = self.read_energy_uj()

    def read_energy_uj(self):
        return int(self.energy_uj % self.config.counter_wrap_uj)

    def set_cap_w(self, cap_w):
        if not math.isfinite(cap_w):
            raise ValueError(f"cap must be finite, got {cap_w!r}")
        cap = float(cap_w)
        if cap < MIN_W:
            cap = MIN_W
        elif cap > MAX_W:
            cap = MAX_W
        self.cap_w = cap
        return cap

    def step(self, demand_w, dt_s):
        target = min(demand_w, self.cap_w)
        alpha = 1.0 - math.exp(-dt_s / self.config.lag_tau_s)
        old = self.power_w
        new = min(old + (target - old) * alpha, self.cap_w)
        self.power_w = max(new, 0.0)
        self.energy_uj += (old + self.power_w) * 0.5 * dt_s * 1e6
        return self.power_w

    def read_power_w(self, dt_s):
        now = self.read_energy_uj()
        delta = now - self.last_uj
        if delta < 0:
            delta += self.config.counter_wrap_uj
        self.last_uj = now
        power = delta / dt_s * 1e-6
        if self.config.noise_std_w > 0:
            power += self.rng.normal(0.0, self.config.noise_std_w)
        return max(power, 0.0)


class ScalarFaults:
    """One unit's stuck/dropout/spike logic, as the per-meter wrapper ran."""

    def __init__(self, config, rng):
        self.config = config
        self.rng = rng
        self.last_w = 0.0
        self.has_last = False

    def corrupt(self, healthy):
        roll = self.rng.random()
        cfg = self.config
        if roll < cfg.stuck_prob:
            if self.has_last:
                return self.last_w
            self.last_w, self.has_last = healthy, True
            return healthy
        roll -= cfg.stuck_prob
        if roll < cfg.dropout_prob:
            self.last_w, self.has_last = 0.0, True
            return 0.0
        roll -= cfg.dropout_prob
        if roll < cfg.spike_prob:
            self.last_w, self.has_last = healthy * cfg.spike_gain, True
            return self.last_w
        self.last_w, self.has_last = healthy, True
        return healthy


def rngs(seed, n):
    return [np.random.default_rng([seed, i]) for i in range(n)]


def make_pair(n, config, seed):
    bank = RaplBank(n, MAX_W, MIN_W, config, IDLE_W, rngs(seed, n))
    ref = [ScalarDomain(config, rng) for rng in rngs(seed, n)]
    return bank, ref


def assert_same_state(bank, ref):
    for name in ("cap_w", "power_w", "energy_uj", "last_uj"):
        expected = np.asarray([getattr(d, name) for d in ref])
        actual = getattr(bank, name)
        assert np.array_equal(actual, expected), name


demand_w = st.floats(min_value=0.0, max_value=300.0)
cap_w = st.one_of(
    st.floats(min_value=-50.0, max_value=400.0),
    st.sampled_from(
        [0.0, MIN_W, MAX_W, np.nextafter(MIN_W, 0.0), np.nextafter(MAX_W, 1e9)]
    ),
)
dt_s = st.floats(min_value=0.01, max_value=5.0)


@st.composite
def runs(draw):
    """A bank size, a RAPL config and a list of operations."""
    n = draw(st.integers(min_value=1, max_value=6))
    config = RaplConfig(
        noise_std_w=draw(st.sampled_from([0.0, 1.5])),
        lag_tau_s=draw(st.floats(min_value=0.05, max_value=3.0)),
        # Tiny wraps force a counter wrap between most reads.
        counter_wrap_uj=draw(
            st.sampled_from([1_000, 77_777_777, 262_143_328_850])
        ),
    )
    vec = lambda elem: st.lists(elem, min_size=n, max_size=n)  # noqa: E731
    op = st.one_of(
        st.tuples(st.just("step"), vec(demand_w), dt_s),
        st.tuples(st.just("caps"), vec(cap_w)),
        st.tuples(st.just("read"), dt_s),
        st.tuples(st.just("off"), vec(st.booleans())),
        st.tuples(st.just("restore")),
    )
    ops = draw(st.lists(op, min_size=1, max_size=25))
    return n, config, ops, draw(st.integers(min_value=0, max_value=2**16))


@settings(max_examples=budget(200), deadline=None)
@given(run=runs())
def test_bank_matches_scalar_loops(run):
    n, config, ops, seed = run
    bank, ref = make_pair(n, config, seed)
    for op in ops:
        kind = op[0]
        if kind == "step":
            out = bank.step(np.asarray(op[1]), op[2])
            expected = [d.step(x, op[2]) for d, x in zip(ref, op[1])]
            assert np.array_equal(out, expected)
        elif kind == "caps":
            out = bank.set_caps(ALL, op[1])
            expected = [d.set_cap_w(c) for d, c in zip(ref, op[1])]
            assert np.array_equal(out, expected)
        elif kind == "read":
            out = bank.read(ALL, op[1])
            expected = [d.read_power_w(op[1]) for d in ref]
            assert np.array_equal(out, expected)
        elif kind == "off":
            bank.power_off(np.asarray(op[1], dtype=bool))
            for d, off in zip(ref, op[1]):
                if off:
                    d.power_w = 0.0
        else:
            # A restart: the state travels through JSON into a fresh bank
            # whose own generators are replaced by the snapshot's.
            doc = json.loads(json.dumps(bank.snapshot()))
            fresh = rngs(seed + 2**17, n)
            bank = RaplBank(n, MAX_W, MIN_W, config, IDLE_W, fresh)
            bank.restore(doc)
        assert_same_state(bank, ref)


@settings(max_examples=budget(100), deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    probs=st.tuples(
        st.floats(0.0, 0.4), st.floats(0.0, 0.3), st.floats(0.0, 0.3)
    ),
    readings=st.lists(
        st.floats(min_value=0.0, max_value=300.0), min_size=5, max_size=60
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_meter_faults_match_scalar_wrapper(n, probs, readings, seed):
    config = FaultConfig(*probs, spike_gain=2.5)
    faults = MeterFaults(config, rngs(seed, n))
    ref = [ScalarFaults(config, rng) for rng in rngs(seed, n)]
    for start in range(0, len(readings) - n + 1, n):
        healthy = np.asarray(readings[start : start + n])
        out = faults.apply(ALL, healthy)
        expected = [f.corrupt(h) for f, h in zip(ref, healthy.tolist())]
        assert np.array_equal(out, expected)


@settings(max_examples=budget(100), deadline=None)
@given(run=runs(), unit=st.integers(min_value=0, max_value=5))
def test_view_matches_bank_slice(run, unit):
    """A standalone one-unit domain and meter behave exactly like the
    same unit read, stepped and capped as a slice of a larger bank."""
    n, config, ops, seed = run
    unit = unit % n
    bank = RaplBank(n, MAX_W, MIN_W, config, IDLE_W, rngs(seed, n))
    dom = RaplDomain("pkg", MAX_W, MIN_W, config, IDLE_W)
    meter = PowerMeter(dom, rngs(seed, n)[unit])
    one = slice(unit, unit + 1)
    for op in ops:
        kind = op[0]
        if kind == "step":
            out = bank.step(np.asarray(op[1][unit : unit + 1]), op[2], one)
            assert out[0] == dom.step(op[1][unit], op[2])
        elif kind == "caps":
            out = bank.set_caps(one, op[1][unit : unit + 1])
            assert out[0] == dom.set_cap_w(op[1][unit])
        elif kind == "read":
            assert bank.read(one, op[1])[0] == meter.read_power_w(op[1])
        elif kind == "off" and op[1][unit]:
            bank.power_off(one)
            dom.power_off()
        assert bank.cap_w[unit] == dom.cap_w
        assert bank.power_w[unit] == dom.power_w
        assert bank.read_energy_uj(one)[0] == dom.read_energy_uj()


def test_node_agents_share_one_bank_without_lost_writes():
    """Node agents read and cap disjoint slices of one bank from their
    own threads; no write may be lost or land on another node's units."""
    cluster = Cluster(
        ClusterSpec(n_nodes=8, sockets_per_node=4),
        RaplConfig(noise_std_w=0.0),
        np.random.default_rng(0),
    )

    def agent(node):
        for k in range(300):
            node.set_caps_w(np.full(4, 40.0 + node.node_id + k % 7))
            node.read_powers_w(1.0)

    threads = [
        threading.Thread(target=agent, args=(node,)) for node in cluster.nodes
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = np.repeat(40.0 + np.arange(8) + 299 % 7, 4)
    assert np.array_equal(cluster.caps_w(), expected)


class TestValidation:
    def test_non_finite_cap_programs_nothing(self):
        bank, _ = make_pair(3, RaplConfig(noise_std_w=0.0), 0)
        with pytest.raises(ValueError, match="finite"):
            bank.set_caps(ALL, [100.0, float("nan"), 100.0])
        assert np.array_equal(bank.cap_w, [MAX_W] * 3)

    def test_negative_demand_rejected(self):
        bank, _ = make_pair(2, RaplConfig(), 0)
        with pytest.raises(ValueError, match="demand_w"):
            bank.step(np.asarray([10.0, -1.0]), 1.0)

    def test_restore_rejects_other_width(self):
        small, _ = make_pair(2, RaplConfig(), 0)
        wide, _ = make_pair(3, RaplConfig(), 0)
        with pytest.raises(ValueError, match="snapshot holds"):
            wide.restore(small.snapshot())

    def test_noise_free_snapshot_omits_generators(self):
        bank, _ = make_pair(4, RaplConfig(noise_std_w=0.0), 0)
        assert "rng" not in bank.snapshot()
