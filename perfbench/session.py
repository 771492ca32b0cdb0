"""One benchmark session in a fresh interpreter.

``run.py`` starts this script once per session so that every session
pays its own imports and set-up, exactly as a user's first call does:

    python3 perfbench/session.py --workload fleet --seed 3 --session 0 \\
        --launched-at <perf_counter> --work-dir <dir> --out <file> [--trace]

A session is one ``Campaign.run`` (``paper``) or one ``run_sharded``
call (``fleet``, ``fleet-restart``).  It writes one JSON document to
``--out``: timings, correctness facts, and, with ``--trace``, the
per-layer span summary of this process and of every shard-server child
(this process's raw spans also go to ``parent-<session>.json`` in
``--work-dir``, next to the children's dumps).
``--launched-at`` is the parent's ``time.perf_counter()`` just before it
started this interpreter (the monotonic clock is shared between
processes), so set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

from layers import install, observe

HERE = Path(__file__).resolve().parent


# -- paper ----------------------------------------------------------------


def run_paper(args, tracer) -> dict:
    import hashlib
    from dataclasses import asdict

    from repro.cluster.cluster import Cluster
    from repro.cluster.simulator import Simulation
    from repro.core.config import SimulationConfig
    from repro.experiments.campaign import Campaign
    from repro.experiments.harness import ExperimentConfig
    from workloads import PAPER

    sims: list[dict] = []
    first: list[float] = []
    # Start of every simulation step of the running simulation: the
    # simulator calls Cluster.step_physics once per step, so the gap
    # between two calls is one whole step of the control loop.
    step_starts: list[float] = []
    step_ms: list[float] = []

    def before_run(sim, args_, kwargs) -> None:
        if not first:
            first.append(time.perf_counter())
        step_starts.clear()

    def before_step(cluster, args_, kwargs) -> None:
        step_starts.append(time.perf_counter())

    def after_run(sim, args_, kwargs, result) -> None:
        step_ms.extend(
            (b - a) * 1e3 for a, b in zip(step_starts, step_starts[1:])
        )
        sims.append(
            {
                "steps": int(result.steps),
                "truncated": bool(result.truncated),
                "max_caps_sum_w": float(result.max_caps_sum_w),
                "budget_w": float(result.budget_w),
                "actuation_retries": int(result.actuation_retries),
            }
        )

    observe(Simulation, "run", before=before_run, after=after_run)
    observe(Cluster, "step_physics", before=before_step)
    if tracer is not None:
        install(tracer, cycle_from_steps=True)

    config = ExperimentConfig(
        sim=SimulationConfig(time_scale=PAPER.time_scale),
        repeats=PAPER.repeats,
        seed=args.seed,
    )
    campaign = Campaign(config, limit_pairs=PAPER.limit_pairs)
    error = None
    t0 = time.perf_counter()
    try:
        result = campaign.run(jobs=1)
    except Exception as exc:  # noqa: BLE001 - reported as failed simulations
        error = f"{type(exc).__name__}: {exc}"
        result = None
    t1 = time.perf_counter()

    out = {
        "setup_s": (first[0] if first else t1) - args.launched_at,
        "wall_s": t1 - t0,
        "window": [t0, t1],
        "step_ms": step_ms,
        "sims": sims,
        "planned_sims": None,
        "error": error,
    }
    if result is not None:
        records = [asdict(r) for r in result.records]
        out["digest"] = hashlib.sha256(
            json.dumps(records, sort_keys=True).encode()
        ).hexdigest()
        out["hmean"] = {
            f"{group}/{manager}": stats.mean
            for (group, manager), stats in result.summary().items()
        }
        engine = result.engine
        out["planned_sims"] = engine.n_jobs
        out["engine"] = {
            "job_n": engine.n_jobs,
            "cache_hit_n": engine.cache_hits,
            "job_wall_s": sum(t.wall_s for t in engine.job_timings),
        }
    return out


# -- fleet ----------------------------------------------------------------

#: Deploy-layer events that put a shard's units on a fallback reading.
_QUARANTINE, _REJOIN = "client_quarantined", "client_rejoined"


def run_fleet(args, tracer) -> dict:
    import resource
    import tempfile

    import numpy as np

    from repro.cluster.cluster import Cluster
    from repro.core.config import ClusterSpec, RaplConfig
    from repro.core.managers import create_manager
    from repro.deploy.loopback import RecoveryOptions
    from repro.shard import ArbiterConfig, ShardChaosSchedule, run_sharded
    from repro.shard.supervisor import ShardProcess
    from workloads import FLEET, demand_profile, restart_schedule

    restart = args.workload == "fleet-restart"
    step_t: dict[int, float] = {}
    acks: list[tuple[int, int, float, bool]] = []
    quarantined: dict[int, set[int]] = {}

    def after_ack(proc, a, kw, ack) -> None:
        shard = proc.spec.shard_id
        step = int(a[0] if a else kw["step"])
        clean = ack is not None and ack.get("status") == "ok"
        if ack is not None:
            nodes = quarantined.setdefault(shard, set())
            for event in ack.get("events", ()):
                if event.get("kind") == _QUARANTINE:
                    nodes.add(event.get("node_id"))
                elif event.get("kind") == _REJOIN:
                    nodes.discard(event.get("node_id"))
            clean = clean and not nodes
        acks.append((shard, step, time.perf_counter(), clean))

    def after_launch(proc, a, kw, result) -> None:
        # A respawned shard starts with fresh node agents.
        quarantined.pop(proc.spec.shard_id, None)

    observe(ShardProcess, "await_ack", after=after_ack)
    observe(ShardProcess, "launch", after=after_launch)

    if tracer is not None:
        install(tracer)
        child_dir = Path(args.work_dir) / f"children-{args.session}"
        child_dir.mkdir(parents=True, exist_ok=True)
        os.environ["PERFBENCH_CHILD_TRACE"] = str(child_dir)
        existing = os.environ.get("PYTHONPATH")
        trace_path = str(HERE / "childtrace")
        os.environ["PYTHONPATH"] = (
            f"{existing}{os.pathsep}{trace_path}" if existing else trace_path
        )

    if restart:
        schedule = restart_schedule(args.seed, args.session)
        cycles = schedule.cycles
        chaos = ShardChaosSchedule(
            shard_kill_at=dict(schedule.shard_kills),
            arbiter_kill_at=schedule.arbiter_kill_at,
            arbiter_restart_at=schedule.arbiter_restart_at,
        )
    else:
        schedule = None
        cycles = FLEET.traced_cycles if args.short else FLEET.cycles
        chaos = None

    spec = ClusterSpec(
        n_nodes=FLEET.n_nodes, sockets_per_node=FLEET.sockets_per_node
    )
    cluster = Cluster(spec, RaplConfig(noise_std_w=0.0), np.random.default_rng(0))
    demand = demand_profile(args.seed, cluster.n_units, spec.tdp_w, spec.idle_power_w)

    def demand_fn(step: int) -> np.ndarray:
        step_t[step] = time.perf_counter()
        if tracer is not None:
            tracer.cycle = step
        return demand(step)

    ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=args.work_dir)
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = run_sharded(
        cluster,
        n_shards=FLEET.n_shards,
        manager_factory=lambda i: create_manager("dps"),
        demand_fn=demand_fn,
        cycles=cycles,
        checkpoint_dir=ckpt,
        config=ArbiterConfig(period_cycles=FLEET.period_cycles),
        chaos=chaos,
        recovery=RecoveryOptions(
            checkpoint_dir=ckpt, hang_timeout_s=FLEET.hang_timeout_s
        ),
        rng=np.random.default_rng(args.seed),
        mode="process",
        manager_name="dps",
    )
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu_s = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)

    # Cycles that absorb a kill (from one before the kill to one after
    # the victim's first good ack) and the arbiter outage are not steady.
    excluded = set(range(FLEET.warmup))
    restart_s: list[float] = []
    if schedule is not None:
        for shard, kill_at in schedule.shard_kills:
            back = next(
                (
                    (step, t)
                    for s, step, t, clean in acks
                    if s == shard and step > kill_at and clean
                ),
                None,
            )
            if back is None:
                excluded.update(range(kill_at - 1, cycles))
                continue
            restart_s.append(back[1] - step_t[kill_at])
            excluded.update(range(kill_at - 1, back[0] + 2))
        excluded.update(
            range(schedule.arbiter_kill_at - 1, schedule.arbiter_restart_at + 2)
        )
    cycle_ms = (result.cycle_wall_s * 1e3).tolist()
    steady_ms = [w for i, w in enumerate(cycle_ms) if i not in excluded]

    caps = result.caps_history[np.isfinite(result.caps_history)]
    checks = {
        "no_invariant_violations": result.invariant_violations == 0,
        "worst_case_within_budget": result.worst_case_w is not None
        and result.worst_case_w <= result.budget_w * (1 + 1e-6),
        "caps_within_bounds": caps.size > 0
        and float(caps.min()) >= spec.min_cap_w
        and float(caps.max()) <= spec.tdp_w,
        "no_failed_shards": not result.failed_shards,
    }
    if schedule is not None:
        kinds = Counter((event.kind, event.node_id) for event in result.events)
        checks["every_kill_restarted_and_rejoined"] = all(
            kinds.get(("shard_restarted", shard), 0) >= 1
            and kinds.get(("shard_rejoined", shard), 0) >= 1
            for shard, _ in schedule.shard_kills
        )
        checks["arbiter_restarted"] = result.arbiter_restarts == 1

    return {
        "setup_s": step_t[0] - args.launched_at,
        "window": [step_t[0], step_t[0] + float(result.cycle_wall_s.sum())],
        "cycles": cycles,
        "cycle_ms": cycle_ms,
        "steady_ms": steady_ms,
        # Throughput counts every cycle after warm-up, kill cycles too, so
        # on fleet-restart the time a recovery costs shows in it.
        "timed_cycles": cycles - FLEET.warmup,
        "timed_wall_s": float(result.cycle_wall_s[FLEET.warmup:].sum()),
        "restart_s": restart_s,
        "attempted": len(acks),
        "failed": sum(1 for *_, clean in acks if not clean),
        "outage_shard_cycles": cycles * FLEET.n_shards - len(acks),
        "checks": checks,
        "child_cpu_ms_per_cycle": child_cpu_s * 1e3 / cycles,
        "clock_bytes_per_cycle": result.bytes_clock / cycles,
        "link_bytes_per_cycle": result.bytes_links / cycles,
        "link_reconnect_n": result.link_reconnects,
    }


def _trace_summary(tracer, out: dict, work_dir: Path, session: int) -> dict:
    """Span summaries of this process and of every shard-server child."""
    from spans import summarize

    lo, hi = out["window"]
    dump = tracer.dump()
    (work_dir / f"parent-{session}.json").write_text(
        json.dumps(dump), encoding="utf-8"
    )
    own = summarize(dump, window=(lo, hi))
    procs = [own]
    lost = 0
    child_dir = work_dir / f"children-{session}"
    if child_dir.is_dir():
        for count_file in sorted(child_dir.glob("child-*.count")):
            dump_file = count_file.with_suffix(".json")
            if dump_file.exists():
                procs.append(
                    summarize(json.loads(dump_file.read_text(encoding="utf-8")))
                )
            else:
                text = count_file.read_text(encoding="utf-8").strip()
                lost += int(text) if text else 0
    return {
        "own": own,
        "children": procs[1:],
        "spans_lost_n": lost,
        "unaccounted_frac": 1.0 - own["covered_main_s"] / (hi - lo),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--session", type=int, default=0)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--short", action="store_true", help="the traced run's fleet length"
    )
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    if args.workload == "paper":
        out = run_paper(args, tracer)
    else:
        out = run_fleet(args, tracer)
    if tracer is not None:
        out["trace"] = _trace_summary(
            tracer, out, Path(args.work_dir), args.session
        )
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
