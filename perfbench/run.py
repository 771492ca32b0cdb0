"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {paper,fleet,fleet-restart} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` runs back-to-back sessions of the workload, each in a fresh
interpreter (``session.py``), until ``--seconds`` have passed, checks
every session's outputs, and prints the end-to-end metrics.  ``--trace
1`` runs one untraced session and one traced session of the same shorter
work and prints the per-layer metrics, the share of wall time no span
covers, and the tracing overhead (traced minus untraced wall).

Every line before the last is for people: a host fingerprint, one line
per metric with its unit and sample count, and the correctness checks.
The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed check marks every operation of the
run failed and makes the exit code 1.  Run from the root of a checkout;
the benchmark reads and writes only inside it (``.perfbench-work/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "fleet", "fleet-restart")
#: Sessions a run makes however short ``--seconds`` is: the paper
#: workload compares the records of two same-seed campaigns.
MIN_SESSIONS = {"paper": 2, "fleet": 1, "fleet-restart": 1}
#: No session starts after this many seconds, and none outlives the
#: deadline, so a run ends within 180 s.
LAST_START_S = 100.0
DEADLINE_S = 170.0


def _median(values):
    return statistics.median(values) if values else float("nan")


# -- environment ------------------------------------------------------------


def _environment(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_NATIVE_CACHE"] = str(ROOT / ".perfbench-work" / "native")
    env["TMPDIR"] = str(work / "tmp")
    env.pop("PERFBENCH_CHILD_TRACE", None)
    return env


def _fingerprint(env: dict) -> dict:
    """Host facts, after compiling and loading the native peak kernel.

    The kernel is built (or found in the cache) here, before any timed
    session, so a one-time compile never lands in ``setup_s``.
    """
    probe = (
        "import sys, numpy; from repro.core._native import peak_features; "
        "print(numpy.__version__); print(peak_features() is not None)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    numpy_version, loaded = done.stdout.split()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "native_kernel_loaded": loaded == "True",
        "REPRO_NO_NATIVE": os.environ.get("REPRO_NO_NATIVE", ""),
        "machine": platform.machine(),
    }


def _session(
    args, work: Path, env: dict, index: int, trace: bool, short: bool,
    deadline: float,
) -> dict:
    out = work / f"session-{index}-{int(trace)}.json"
    cmd = [
        sys.executable,
        str(HERE / "session.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--session", str(index),
        "--work-dir", str(work),
        "--out", str(out),
    ]
    if trace:
        cmd.append("--trace")
    if short:
        cmd.append("--short")
    loadavg = os.getloadavg()
    cmd += ["--launched-at", repr(time.perf_counter())]
    # Own process group: a session cut by the deadline takes its
    # shard-server children with it.
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    try:
        log, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        log = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # Anything the session left.
    except ProcessLookupError:
        pass
    if log is None:
        log, _ = proc.communicate()
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(log)
        return {"crashed": True, "loadavg": loadavg}
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["loadavg"] = loadavg
    return doc


# -- correctness --------------------------------------------------------------


def _paper_checks(sessions: list[dict]) -> tuple[dict, int, int]:
    """Checks, attempted simulations, failed simulations."""
    planned = next(
        (s["planned_sims"] for s in sessions if s.get("planned_sims")), 13
    )
    attempted = failed = 0
    checks = {
        "no_session_crashed": True,
        "no_truncated_simulation": True,
        "caps_within_budget": True,
        "dps_not_below_slurm": True,
    }
    digests = set()
    for s in sessions:
        attempted += planned
        if s.get("crashed") or s.get("error"):
            checks["no_session_crashed"] = False
            failed += planned - len(s.get("sims", ()))
        for sim in s.get("sims", ()):
            bad = sim["truncated"]
            checks["no_truncated_simulation"] &= not sim["truncated"]
            if sim["max_caps_sum_w"] > sim["budget_w"] * (1 + 1e-6):
                checks["caps_within_budget"] = False
                bad = True
            failed += bad
        hmean = s.get("hmean", {})
        for group in ("low_utility", "high_utility", "spark_npb"):
            dps = hmean.get(f"{group}/dps")
            slurm = hmean.get(f"{group}/slurm")
            if dps is None or slurm is None or dps < slurm:
                checks["dps_not_below_slurm"] = False
        digests.add(s.get("digest"))
    checks["same_seed_same_records"] = len(digests) == 1 and None not in digests
    return checks, attempted, failed


def _fleet_checks(sessions: list[dict]) -> tuple[dict, int, int]:
    checks: dict[str, bool] = {"no_session_crashed": True}
    attempted = failed = 0
    for s in sessions:
        if s.get("crashed"):
            checks["no_session_crashed"] = False
            continue
        attempted += s["attempted"]
        failed += s["failed"]
        for name, ok in s["checks"].items():
            checks[name] = checks.get(name, True) and ok
    return checks, max(attempted, 1), failed


# -- metrics ------------------------------------------------------------------


def _end_to_end(workload: str, sessions: list[dict]) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric → (value, sample count).

    A control step is one simulation step on ``paper`` and one control
    cycle of the whole fleet on ``fleet`` and ``fleet-restart``.
    """
    ok = [s for s in sessions if not s.get("crashed") and not s.get("error")]
    setup = [s["setup_s"] for s in ok]
    if workload == "paper":
        steps = sum(x["steps"] for s in ok for x in s["sims"])
        wall = sum(s["wall_s"] for s in ok)
        step_ms = [w for s in ok for w in s["step_ms"]]
    else:
        steps = sum(s["timed_cycles"] for s in ok)
        wall = sum(s["timed_wall_s"] for s in ok)
        step_ms = [w for s in ok for w in s["steady_ms"]]
    p90 = statistics.quantiles(step_ms, n=10, method="inclusive")[8]
    return {
        "setup_s": (_median(setup), len(setup)),
        "sim_steps_per_s": (steps / wall, steps),
        "cycle_ms_p50": (_median(step_ms), len(step_ms)),
        "cycle_ms_p90": (p90, len(step_ms)),
    }


def _session_line(s: dict) -> str:
    """One session's own figures, to show how sessions of a run differ."""
    if "sims" in s:
        steps = sum(x["steps"] for x in s["sims"])
        rate, ms = steps / s["wall_s"], s["step_ms"]
    else:
        rate, ms = s["timed_cycles"] / s["timed_wall_s"], s["steady_ms"]
    return (
        f"setup_s={s['setup_s']:.4f} steps_per_s={rate:.4g} "
        f"step_ms_p50={_median(ms):.4g} (n={len(ms)})"
    )


def _merge_trace(trace: dict) -> tuple[dict, dict, dict]:
    """Span totals, counters and samples summed over every process."""
    names: dict[str, dict] = {}
    counters: dict[str, float] = {}
    samples: dict[str, list] = {}
    for proc in [trace["own"], *trace["children"]]:
        for name, stats in proc["names"].items():
            acc = names.setdefault(name, dict.fromkeys(stats, 0.0))
            for key, value in stats.items():
                acc[key] += value
        for name, value in proc["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for name, values in proc["samples"].items():
            samples.setdefault(name, []).extend(values)
    return names, counters, samples


def _per_layer(twin: dict, traced: dict) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``; 0 where a layer
    does not run on this workload."""
    names, counters, samples = _merge_trace(traced["trace"])

    def span(name: str, key: str = "self_s") -> float:
        return float(names.get(name, {}).get(key, 0.0))

    engine = traced.get("engine", {})

    def e2e_wall(session: dict) -> float:
        lo, hi = session["window"]
        return hi - lo

    return {
        "powercap.meter_read_s": span("powercap.meter_read"),
        "powercap.meter_read_n": span("powercap.meter_read", "n"),
        "powercap.cap_write_s": span("powercap.cap_write"),
        "powercap.cap_write_n": span("powercap.cap_write", "n"),
        "powercap.actuator_issue_s": span("powercap.actuator_issue"),
        "powercap.actuation_retries_n": float(
            sum(x["actuation_retries"] for x in traced.get("sims", ()))
        ),
        "cluster.step_physics_s": span("cluster.step_physics"),
        "cluster.step_physics_n": span("cluster.step_physics", "n"),
        "cluster.progress_rate_s": span("cluster.progress_rate"),
        "workloads.demand_s": span("workloads.demand"),
        "workloads.advance_s": span("workloads.advance"),
        "core.manager_step_s": span("core.manager_step"),
        "core.manager_step_n": span("core.manager_step", "outer_n"),
        "comm.protocol_s": span("comm.protocol"),
        "comm.protocol_msg_n": span("comm.protocol", "n"),
        "comm.frame_codec_s": span("comm.frame_codec"),
        "comm.clock_bytes_per_cycle": traced.get("clock_bytes_per_cycle", 0.0),
        "comm.link_bytes_per_cycle": traced.get("link_bytes_per_cycle", 0.0),
        "comm.link_reconnect_n": float(traced.get("link_reconnect_n", 0)),
        "deploy.collect_s": counters.get("deploy.collect_s", 0.0),
        "deploy.decide_s": counters.get("deploy.decide_s", 0.0),
        "deploy.dispatch_s": counters.get("deploy.dispatch_s", 0.0),
        "deploy.control_cycle_s": span("deploy.control_cycle"),
        "deploy.fallback_unit_cycle_n": counters.get(
            "deploy.fallback_unit_cycle_n", 0.0
        ),
        "safety.guard_enforce_s": span("safety.guard_enforce"),
        "safety.guard_enforce_n": span("safety.guard_enforce", "n"),
        "safety.guard_rung_n": counters.get("safety.guard_rung_n", 0.0),
        "safety.invariant_run_s": span("safety.invariant_run"),
        "recovery.journal_append_s": span("recovery.journal_append"),
        "recovery.journal_append_n": span("recovery.journal_append", "n"),
        "recovery.checkpoint_save_s": span("recovery.checkpoint_save"),
        "recovery.checkpoint_bytes": sum(
            samples.get("recovery.checkpoint_bytes", ())
        ),
        "recovery.resume_s": span("recovery.resume", "outer_s"),
        "recovery.journal_replayed_n": counters.get(
            "recovery.journal_replayed_n", 0.0
        ),
        "shard.arbiter_cycle_s": span("shard.arbiter_cycle"),
        "shard.arbiter_cycle_n": span("shard.arbiter_cycle", "n"),
        "shard.ack_wait_s": span("shard.ack_wait"),
        "shard.child_cpu_ms_per_cycle": twin.get("child_cpu_ms_per_cycle", 0.0),
        "shard.spawn_s": _median(samples["shard.spawn_s"])
        if samples.get("shard.spawn_s")
        else 0.0,
        "shard.restart_s_p50": _median(twin["restart_s"])
        if twin.get("restart_s")
        else 0.0,
        "experiments.job_wall_s": float(engine.get("job_wall_s", 0.0)),
        "experiments.job_n": float(engine.get("job_n", 0)),
        "experiments.cache_hit_n": float(engine.get("cache_hit_n", 0)),
        "unaccounted_frac": traced["trace"]["unaccounted_frac"],
        "trace_overhead_frac": e2e_wall(traced) / e2e_wall(twin) - 1.0,
        "trace_spans_lost_n": float(traced["trace"]["spans_lost_n"]),
    }


# -- main -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work)
    finally:
        if args.trace:
            _keep_spans(args, work)
        shutil.rmtree(work, ignore_errors=True)


def _keep_spans(args, work: Path) -> None:
    """Keep the traced session's raw span dumps for inspection."""
    keep = ROOT / ".perfbench-work" / "traces" / f"{args.workload}-{args.seed}"
    shutil.rmtree(keep, ignore_errors=True)
    keep.mkdir(parents=True)
    for path in [work / "parent-0.json", work / "children-0"]:
        if path.exists():
            shutil.move(str(path), str(keep / path.name))


def _run(args, work: Path) -> int:
    env = _environment(work)
    host = _fingerprint(env)
    print("host " + json.dumps(host))

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    if args.trace:
        twin = _session(args, work, env, 0, False, True, deadline)
        traced = _session(args, work, env, 0, True, True, deadline)
        sessions = [twin, traced]
    else:
        sessions = []
        while len(sessions) < MIN_SESSIONS[args.workload] or (
            time.perf_counter() - start < args.seconds
            and time.perf_counter() - start < LAST_START_S
        ):
            sessions.append(
                _session(args, work, env, len(sessions), False, False, deadline)
            )
    print("loadavg_before_sessions " + json.dumps([s["loadavg"] for s in sessions]))
    for i, s in enumerate(sessions):
        if not s.get("crashed") and not s.get("error"):
            print(f"session {i} {_session_line(s)}")

    if args.workload == "paper":
        checks, attempted, failed = _paper_checks(sessions)
    else:
        checks, attempted, failed = _fleet_checks(sessions)
    correct = all(checks.values())
    for name, ok in checks.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    if not correct:
        failed = attempted

    metrics: dict[str, dict] = {}
    if args.trace and correct:
        # Per-layer metrics and their units are listed in BENCHMARK.json.
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in doc["per_layer"]}
        for name, value in _per_layer(sessions[0], sessions[1]).items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"metric {name} = {value:.6g} {units[name]}")
    elif correct:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        values = _end_to_end(args.workload, sessions)
        for meta in doc["end_to_end"]:
            name, unit = meta["name"], meta["unit"]
            value, n = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(
        f"operations attempted={attempted} failed={failed} "
        f"sessions={len(sessions)} wall={time.perf_counter() - start:.1f}s"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
