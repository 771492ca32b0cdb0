"""Data generators for the paper's tables and the §6.5 overhead analysis."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.simulator import Assignment, Simulation
from repro.comm.network import NetworkModel
from repro.comm.protocol import MAX_VALUE_W, MESSAGE_SIZE_BYTES, quantize_w
from repro.core.config import ClusterSpec
from repro.experiments.harness import ExperimentConfig
from repro.safety import ControlCycle
from repro.workloads.registry import get_workload, workload_names

__all__ = [
    "WorkloadRow",
    "OverheadRow",
    "table2",
    "table3",
    "table4",
    "overhead_analysis",
]


@dataclass(frozen=True)
class WorkloadRow:
    """One row of Table 2 or Table 4: paper values beside measured ones.

    Attributes:
        name: workload name.
        power_class: Table 2 label (or ``npb``).
        data_size: the paper's input-size string.
        paper_duration_s: published constant-cap latency.
        measured_duration_s: simulated constant-cap latency, rescaled to
            full time scale.
        paper_above_110_pct: published time fraction above 110 W.
        measured_above_110_pct: the program's uncapped fraction above 110 W.
    """

    name: str
    power_class: str
    data_size: str
    paper_duration_s: float
    measured_duration_s: float
    paper_above_110_pct: float
    measured_above_110_pct: float


def _constant_cap_duration(name: str, config: ExperimentConfig) -> float:
    """Solo constant-cap run of one workload, full-scale seconds."""
    cluster = Cluster(config.cluster)
    sim = Simulation(
        cluster_spec=config.cluster,
        manager=config.make_manager("constant"),
        assignments=[
            Assignment(
                spec=get_workload(name), unit_ids=cluster.half_unit_ids(0)
            )
        ],
        target_runs=config.repeats,
        sim_config=config.sim,
        perf_config=config.perf,
        rapl_config=config.rapl,
        seed=config.derive_seed("table", name),
    )
    result = sim.run()
    if result.truncated:
        raise RuntimeError(f"constant-cap run of {name} truncated")
    mean = result.execution(name).mean_duration_s()
    return mean / config.sim.time_scale


def _workload_rows(names: list[str], config: ExperimentConfig) -> list[WorkloadRow]:
    rows = []
    for name in names:
        spec = get_workload(name)
        rows.append(
            WorkloadRow(
                name=name,
                power_class=spec.power_class,
                data_size=spec.data_size,
                paper_duration_s=spec.paper_duration_s,
                measured_duration_s=_constant_cap_duration(name, config),
                paper_above_110_pct=spec.paper_above_110_pct,
                measured_above_110_pct=spec.program.fraction_above(110.0) * 100,
            )
        )
    return rows


def table2(config: ExperimentConfig | None = None) -> list[WorkloadRow]:
    """Table 2: the 11 Spark workloads under the constant 110 W cap."""
    return _workload_rows(
        workload_names(suite="spark"), config or ExperimentConfig()
    )


def table3() -> list[tuple[str, int, int]]:
    """Table 3: Spark computing resources (power class, executors, cores)."""
    from repro.workloads.registry import executor_config

    return [
        (cls, *executor_config(cls)) for cls in ("low", "mid", "high")
    ]


def table4(config: ExperimentConfig | None = None) -> list[WorkloadRow]:
    """Table 4: the 8 NPB workloads under the constant 110 W cap."""
    return _workload_rows(
        workload_names(suite="npb"), config or ExperimentConfig()
    )


# ---------------------------------------------------------------------------
# §6.5 overhead analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverheadRow:
    """Measured/projected control-plane cost at one cluster size.

    Attributes:
        n_nodes: nodes in the deployment.
        n_units: power-capping units.
        bytes_per_cycle: protocol traffic per decision loop (up + down).
        network_s: per-cycle network turnaround (slowest client).
        compute_s: per-cycle controller decision time.
        turnaround_s: total cycle latency.
        projected: True when extrapolated from the measured per-unit costs
            instead of simulated directly.
    """

    n_nodes: int
    n_units: int
    bytes_per_cycle: int
    network_s: float
    compute_s: float
    turnaround_s: float
    projected: bool


def overhead_analysis(
    measured_nodes: int = 10,
    projected_nodes: tuple[int, ...] = (100, 1_000, 10_000, 1_000_000),
    cycles: int = 30,
    manager_name: str = "dps",
    config: ExperimentConfig | None = None,
) -> list[OverheadRow]:
    """Reproduce the §6.5 overhead analysis.

    Runs the control loop across the 3-byte protocol at ``measured_nodes``
    nodes — readings and caps quantized to the wire's 0.1 W grid, every
    cycle's messages charged to the latency-modelled network, the decision
    timed through the shared :class:`~repro.safety.cycle.ControlCycle` —
    then projects the measured per-unit costs to larger deployments
    exactly the way the paper argues its scaling (serial per-message
    latency on the server NIC, linear controller compute).

    Returns:
        One row per cluster size, measured first.
    """
    cfg = config or ExperimentConfig()
    spec = ClusterSpec(
        n_nodes=measured_nodes,
        sockets_per_node=cfg.cluster.sockets_per_node,
        tdp_w=cfg.cluster.tdp_w,
        min_cap_w=cfg.cluster.min_cap_w,
        budget_fraction=cfg.cluster.budget_fraction,
        idle_power_w=cfg.cluster.idle_power_w,
    )
    cluster = Cluster(spec, cfg.rapl, np.random.default_rng(cfg.seed))
    manager = cfg.make_manager(manager_name)
    manager.bind(
        n_units=spec.n_units,
        budget_w=spec.budget_w,
        max_cap_w=spec.tdp_w,
        min_cap_w=spec.min_cap_w,
        dt_s=cfg.sim.dt_s,
        rng=np.random.default_rng(cfg.derive_seed("overhead")),
    )
    network = NetworkModel()
    cycle = ControlCycle(manager)
    dt = cfg.sim.dt_s

    rng = np.random.default_rng(cfg.derive_seed("overhead", "demand"))
    cycle_network_s: list[float] = []
    cycle_compute_s: list[float] = []
    for step in range(cycles):
        demand = rng.uniform(40.0, 160.0, size=spec.n_units)
        cluster.step_physics(demand, dt)
        readings = quantize_w(
            np.minimum(cluster.read_powers_w(dt), MAX_VALUE_W)
        )
        started = time.perf_counter()
        caps = cycle.decide(readings, now=float(step))
        cycle_compute_s.append(time.perf_counter() - started)
        cycle_network_s.append(network.charge_cycle(spec.n_units))
        wire = quantize_w(np.clip(caps, 0.0, MAX_VALUE_W))
        cluster.set_caps_w(wire)

    bytes_per_cycle = network.stats.bytes // cycles
    network_s = float(np.mean(cycle_network_s))
    compute_s = float(np.median(cycle_compute_s))
    rows = [
        OverheadRow(
            n_nodes=measured_nodes,
            n_units=spec.n_units,
            bytes_per_cycle=bytes_per_cycle,
            network_s=network_s,
            compute_s=compute_s,
            turnaround_s=network_s + compute_s,
            projected=False,
        )
    ]

    # Projection (the paper's §6.5 argument): propagation overlaps and is
    # paid once per direction; controller-side message handling and wire
    # bytes serialize, so they and the decision compute scale linearly.
    per_unit_net = 2 * (
        network.server_per_message_s
        + MESSAGE_SIZE_BYTES / network.bandwidth_bytes_per_s
    )
    per_unit_compute = compute_s / spec.n_units
    for n_nodes in projected_nodes:
        n_units = n_nodes * spec.sockets_per_node
        proj_net = 2 * network.propagation_s() + per_unit_net * n_units
        proj_compute = per_unit_compute * n_units
        rows.append(
            OverheadRow(
                n_nodes=n_nodes,
                n_units=n_units,
                bytes_per_cycle=n_units * MESSAGE_SIZE_BYTES * 2,
                network_s=proj_net,
                compute_s=proj_compute,
                turnaround_s=proj_net + proj_compute,
                projected=True,
            )
        )
    return rows


def _mixed_cluster_power(
    rng: np.random.Generator, n_units: int, t: int
) -> np.ndarray:
    """One sampling step of the overprovisioned-cluster power profile.

    The scaling benchmark's canonical workload: 40 % of units idle around
    45 W, 35 % run steady compute phases around 110 W, and 25 % are bursty
    — large phase swings plus heavy noise.  This is the population the
    paper overprovisions against (most units are *not* at peak at any
    instant); it exercises every decision-path branch while keeping the
    per-unit dynamics realistic, unlike an all-units-chaotic i.i.d. draw.
    """
    base = np.empty(n_units)
    i1 = int(0.40 * n_units)
    i2 = int(0.75 * n_units)
    base[:i1] = 45.0
    base[i1:i2] = 110.0
    base[i2:] = 80.0 + 70.0 * np.sin(
        0.3 * t + np.linspace(0.0, 2.0 * np.pi, n_units - i2)
    )
    noise = np.empty(n_units)
    noise[:i1] = rng.normal(0.0, 1.5, i1)
    noise[i1:i2] = rng.normal(0.0, 3.0, i2 - i1)
    noise[i2:] = rng.normal(0.0, 12.0, n_units - i2)
    return np.clip(base + noise, 5.0, 165.0)


def _set_decision_core(manager, core: str) -> None:
    """Force a manager's decision core before it is bound."""
    if hasattr(manager, "decision_core"):
        manager.decision_core = core
    elif hasattr(manager.config, "decision_core"):
        manager.config = manager.config.replace(decision_core=core)
    else:
        raise ValueError(
            f"manager {type(manager).__name__} has no decision core switch"
        )


def measure_decision_time(
    manager_name: str = "dps",
    n_units: int = 20,
    steps: int = 200,
    config: ExperimentConfig | None = None,
    decision_core: str | None = None,
    workload: str = "uniform",
    warmup: int = 0,
) -> float:
    """Median wall time of one bare manager decision (no network).

    Used by the overhead bench to separate controller compute from
    messaging cost, and by the scaling bench to compare the loop and
    vectorized decision cores.

    Args:
        manager_name: registry name of the manager under test.
        n_units: cluster size in power-capping units.
        steps: timed decision steps (the median is over these).
        config: campaign configuration the manager is built from.
        decision_core: override the manager's decision core
          (``"loop"``/``"vectorized"``); ``None`` keeps the config default.
        workload: per-step power draw — ``"uniform"`` (i.i.d. 40–160 W,
          every unit chaotic; a stress profile) or ``"mixed"`` (the
          overprovisioned-cluster profile of :func:`_mixed_cluster_power`).
        warmup: untimed steps run first, so the median measures the
          steady state (history full, flags settled) rather than the
          cheaper warm-up transient.
    """
    if workload not in ("uniform", "mixed"):
        raise ValueError(f"unknown workload {workload!r}")
    cfg = config or ExperimentConfig()
    manager = cfg.make_manager(manager_name)
    if decision_core is not None:
        _set_decision_core(manager, decision_core)
    manager.bind(
        n_units=n_units,
        budget_w=110.0 * n_units,
        max_cap_w=165.0,
        min_cap_w=30.0,
        dt_s=1.0,
        rng=np.random.default_rng(0),
    )
    rng = np.random.default_rng(1)
    times = []
    for t in range(warmup + steps):
        if workload == "mixed":
            power = _mixed_cluster_power(rng, n_units, t)
        else:
            power = rng.uniform(40.0, 160.0, size=n_units)
        started = time.perf_counter()
        manager.step(power, power if manager.requires_demand else None)
        if t >= warmup:
            times.append(time.perf_counter() - started)
    return float(np.median(times))
