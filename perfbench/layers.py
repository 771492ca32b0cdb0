"""Which public functions of the program the traced run wraps.

Each entry of :data:`TARGETS` names one span, the layer it belongs to
(the ``src/repro`` package name is the span-name prefix), and the public
function or method it times.  :func:`install` wraps every target; the
same table serves the benchmark's own process and, through
``childtrace/sitecustomize.py``, every shard-server child.

Module-level functions are replaced both where they are defined and in
every loaded ``repro`` module that imported them by name, so callers that
did ``from repro.comm.protocol import encode`` see the wrapper too.
"""

from __future__ import annotations

import importlib
import sys
import time

from spans import Tracer

__all__ = ["TARGETS", "install", "observe"]

#: (span name, module, attribute path, "span" | "folded").  "folded" marks
#: the per-unit scalar functions (see :mod:`spans`).
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("powercap.meter_read", "repro.powercap.rapl", "PowerMeter.read_power_w", "folded"),
    ("powercap.cap_write", "repro.powercap.rapl", "RaplDomain.set_cap_w", "folded"),
    ("powercap.actuator_issue", "repro.powercap.actuator", "CapActuator.issue", "span"),
    ("cluster.step_physics", "repro.cluster.cluster", "Cluster.step_physics", "span"),
    ("cluster.progress_rate", "repro.cluster.perfmodel", "progress_rate", "span"),
    ("workloads.demand", "repro.workloads.runtime", "WorkloadExecution.demand", "span"),
    ("workloads.advance", "repro.workloads.runtime", "WorkloadExecution.advance", "span"),
    ("core.manager_step", "repro.core.managers", "PowerManager.step", "span"),
    ("comm.protocol", "repro.comm.protocol", "encode", "folded"),
    ("comm.protocol", "repro.comm.protocol", "decode", "folded"),
    ("comm.frame_codec", "repro.comm.wire", "encode_frame", "span"),
    ("comm.frame_codec", "repro.comm.wire", "FrameAssembler.feed", "span"),
    ("deploy.control_cycle", "repro.deploy.server", "DeployServer.control_cycle", "span"),
    ("safety.guard_enforce", "repro.safety.guard", "BudgetGuard.enforce", "span"),
    ("safety.invariant_run", "repro.safety.invariants", "InvariantMonitor.run", "span"),
    ("recovery.journal_append", "repro.recovery.checkpoint", "CycleJournal.append", "span"),
    ("recovery.checkpoint_save", "repro.recovery.checkpoint", "CheckpointStore.save", "span"),
    ("recovery.resume", "repro.recovery.controller", "RecoverableController.resume", "span"),
    ("recovery.resume", "repro.recovery.checkpoint", "CheckpointStore.load_latest", "span"),
    ("recovery.resume", "repro.recovery.checkpoint", "CycleJournal.read", "span"),
    ("shard.arbiter_cycle", "repro.shard.arbiter", "BudgetArbiter.cycle_once", "span"),
    ("shard.ack_wait", "repro.shard.supervisor", "ShardProcess.await_ack", "span"),
    ("shard.server_cycle", "repro.shard.server", "ShardServer.run_cycle", "span"),
)


def _resolve(module: str, path: str):
    mod = importlib.import_module(module)
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _replace_everywhere(original, wrapper) -> None:
    for name, mod in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _hooks(tracer: Tracer, cycle_from_steps: bool):
    """Per-target cycle-id and after-call hooks (counters and samples).

    Returns the hooks keyed by target path, and the observer that stamps
    each shard-server (re)launch for the spawn → first-ack timing.
    """
    launched: dict[int, float] = {}

    def before_launch(proc, args, kwargs):
        launched[proc.spec.shard_id] = time.perf_counter()

    def step_cycle(args, kwargs):
        return tracer.cycle + 1

    def run_cycle_id(args, kwargs):
        now = kwargs.get("now", args[1] if len(args) > 1 else tracer.cycle)
        return int(now)

    def after_control_cycle(args, kwargs, stats):
        server = args[0]
        timings = server.timings[len(server.timings) - 1]
        tracer.count("deploy.poll_s", timings.poll_s)
        tracer.count("deploy.collect_s", timings.collect_s)
        tracer.count("deploy.decide_s", timings.decide_s)
        tracer.count("deploy.dispatch_s", timings.dispatch_s)
        tracer.count("deploy.fallback_unit_cycle_n", stats.fallback_units)

    def after_enforce(args, kwargs, decision):
        if decision.rung is not None:
            tracer.count("safety.guard_rung_n")

    def after_save(args, kwargs, path):
        tracer.sample("recovery.checkpoint_bytes", path.stat().st_size)

    def after_resume(args, kwargs, resumed):
        tracer.count("recovery.journal_replayed_n", args[0].replayed)

    def after_await_ack(args, kwargs, ack):
        proc = args[0]
        started = launched.pop(proc.spec.shard_id, None)
        if ack is not None and started is not None:
            tracer.sample("shard.spawn_s", time.perf_counter() - started)

    hooks = {
        "DeployServer.control_cycle": (None, after_control_cycle),
        "BudgetGuard.enforce": (None, after_enforce),
        "CheckpointStore.save": (None, after_save),
        "RecoverableController.resume": (None, after_resume),
        "ShardProcess.await_ack": (None, after_await_ack),
        "ShardServer.run_cycle": (run_cycle_id, None),
    }
    if cycle_from_steps:
        hooks["Cluster.step_physics"] = (step_cycle, None)
    return hooks, before_launch


def observe(owner, attr: str, before=None, after=None) -> None:
    """Wrap one method with untimed observers.

    ``before(self, args, kwargs)`` runs before the call and
    ``after(self, args, kwargs, result)`` after it.
    """
    original = getattr(owner, attr)

    def observed(self, *args, **kwargs):
        if before is not None:
            before(self, args, kwargs)
        result = original(self, *args, **kwargs)
        if after is not None:
            after(self, args, kwargs, result)
        return result

    setattr(owner, attr, observed)


def install(tracer: Tracer, cycle_from_steps: bool = False) -> None:
    """Wrap every target; a target the program no longer has raises,
    so a renamed function cannot silently read as zero.

    Args:
        tracer: where spans go.
        cycle_from_steps: number cycles by ``Cluster.step_physics`` calls
            (the simulator, which has no cycle argument of its own).
    """
    from repro.shard.supervisor import ShardProcess

    hooks, before_launch = _hooks(tracer, cycle_from_steps)
    observe(ShardProcess, "launch", before=before_launch)
    for name, module, path, kind in TARGETS:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        if kind == "folded":
            wrapper = tracer.folded(name, original)
        else:
            cycle_of, after = hooks.get(path, (None, None))
            wrapper = tracer.span(name, original, after=after, cycle_of=cycle_of)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _replace_everywhere(original, wrapper)
