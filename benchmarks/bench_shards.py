"""Sharded control plane — cycle-time scaling with unit count.

The point of sharding the control plane is that the global cycle cost
grows with the number of units per shard, not with the whole cluster:
adding a shard adds its own controller, deploy server, and TCP clients,
while the arbiter's per-cycle work is O(n_shards) tiny summaries.  So
per-cycle wall time should scale *near-linearly* in total units when
every shard carries the same load — doubling the cluster by doubling the
shards roughly doubles the aggregate control work, with no superlinear
coordination blow-up at the arbiter.

This benchmark runs the real sharded driver (one ``shard-server``
subprocess per shard with its own ``DeployServer`` and TCP clients, a
real arbiter over TCP shard links) at each shard count in
``REPRO_BENCH_SHARD_COUNTS`` (default "1,2,4,8") with
``REPRO_BENCH_SHARD_UNITS`` units per shard (default 6400 — so the top
configuration is 51,200 units across 8 shards).  Units are packed as
many sockets per node so the TCP fan-out stays modest while the cap
vectors carry full width.

A further row (``process_full_scale``) reruns the top topology under
both clock codecs — JSON float lists and the binary array frames of
:mod:`repro.comm.wire` — recording per-codec wall time and wire
bytes/cycle, and asserts the binary-vs-JSON byte ratio.

Results are printed (run with ``-s``) and written to a
``BENCH_shards.json`` artifact (override via
``REPRO_BENCH_SHARDS_ARTIFACT``) so CI accumulates the perf history.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import create_manager
from repro.deploy.loopback import RecoveryOptions
from repro.shard import ArbiterConfig, run_sharded

SHARD_COUNTS = tuple(
    int(x)
    for x in os.environ.get("REPRO_BENCH_SHARD_COUNTS", "1,2,4,8").split(",")
)
#: Units each shard carries (held fixed while the shard count scales).
UNITS_PER_SHARD = int(os.environ.get("REPRO_BENCH_SHARD_UNITS", "6400"))
#: Nodes (TCP clients) per shard; sockets-per-node makes up the width
#: (a client frame addresses at most 255 units, so the default packs
#: 6400/32 = 200 sockets per node).
NODES_PER_SHARD = int(os.environ.get("REPRO_BENCH_SHARD_NODES", "32"))
#: Cycles per session.  Rows report the median of the steady cycles;
#: with a checkpoint every ``CYCLES // 2`` cycles, 12 keeps the slow
#: checkpoint cycles a minority the median ignores.
CYCLES = int(os.environ.get("REPRO_BENCH_SHARD_CYCLES", "12"))
ARTIFACT = os.environ.get("REPRO_BENCH_SHARDS_ARTIFACT", "BENCH_shards.json")

#: Sessions per shard count in the scaling rows, run round-robin so a
#: slow spell on the host lands on every row alike; each row reports
#: its median session.  One session per row left the spread gate at the
#: mercy of a single slow session on a 2-core host.
SCALING_ROUNDS = 3

#: Per-cycle ack deadline of every row: on a saturated runner a
#: fleet-wide cycle can take seconds, and a spurious watchdog SIGKILL
#: would turn a perf row into a chaos drill.
HANG_TIMEOUT_S = float(
    os.environ.get("REPRO_BENCH_SHARD_FULL_TIMEOUT", "120")
)


def _measure(
    n_shards: int,
    units_per_shard: int = UNITS_PER_SHARD,
    nodes_per_shard: int = NODES_PER_SHARD,
    codec: str = "binary",
) -> dict:
    """One sharded session; median steady-state cycle wall time."""
    if units_per_shard % nodes_per_shard:
        raise ValueError(
            f"units_per_shard={units_per_shard} must divide by "
            f"nodes_per_shard={nodes_per_shard}"
        )
    spec = ClusterSpec(
        n_nodes=n_shards * nodes_per_shard,
        sockets_per_node=units_per_shard // nodes_per_shard,
    )
    cluster = Cluster(
        spec, RaplConfig(noise_std_w=0.0), np.random.default_rng(7)
    )
    demand = np.full(cluster.n_units, 0.6)
    with tempfile.TemporaryDirectory(prefix="bench-shards-") as ckpt:
        result = run_sharded(
            cluster,
            n_shards=n_shards,
            manager_factory=lambda i: create_manager("constant"),
            demand_fn=lambda step: demand,
            cycles=CYCLES,
            checkpoint_dir=ckpt,
            config=ArbiterConfig(period_cycles=2),
            recovery=RecoveryOptions(
                checkpoint_dir=ckpt,
                checkpoint_every=max(2, CYCLES // 2),
                hang_timeout_s=HANG_TIMEOUT_S,
            ),
            rng=np.random.default_rng(7),
            manager_name="constant",
            codec=codec,
        )
    assert result.invariant_violations == 0
    assert result.worst_case_w is not None
    assert result.worst_case_w <= result.budget_w * (1 + 1e-6)
    # Cycle 0 pays connection warm-up and first-dispatch costs; the
    # steady-state cycles are the scaling signal.
    steady = result.cycle_wall_s[1:]
    bytes_total = result.bytes_links + result.bytes_clock
    return {
        "codec": result.codec,
        "n_shards": n_shards,
        "n_units": cluster.n_units,
        "cycle_s": float(np.median(steady)),
        "cycle_s_all": [float(w) for w in result.cycle_wall_s],
        "arbiter_cycles": result.arbiter_cycles,
        "invariant_sweeps": result.invariant_sweeps,
        "bytes_links": result.bytes_links,
        "bytes_clock": result.bytes_clock,
        "bytes_links_per_cycle": result.bytes_links / CYCLES,
        "bytes_clock_per_cycle": result.bytes_clock / CYCLES,
        "bytes_per_cycle": bytes_total / CYCLES,
        "worst_case_w": result.worst_case_w,
        "budget_w": result.budget_w,
    }


def test_shard_cycle_scaling(benchmark):
    rounds = benchmark.pedantic(
        lambda: [
            [_measure(n) for n in SHARD_COUNTS] for _ in range(SCALING_ROUNDS)
        ],
        rounds=1,
        iterations=1,
    )
    results = []
    for i, n in enumerate(SHARD_COUNTS):
        sessions = sorted((r[i] for r in rounds), key=lambda r: r["cycle_s"])
        row = dict(sessions[len(sessions) // 2])
        row["cycle_s_sessions"] = [r["cycle_s"] for r in sessions]
        results.append(row)

    print(
        f"\nsharded cycle time ({UNITS_PER_SHARD} units/shard, median of "
        f"{SCALING_ROUNDS} sessions x {CYCLES - 1} steady cycles):"
    )
    per_unit = {}
    for r in results:
        per_unit[r["n_shards"]] = r["cycle_s"] / r["n_units"]
        sessions_ms = "/".join(f"{t * 1e3:.0f}" for t in r["cycle_s_sessions"])
        print(
            f"  shards={r['n_shards']:2d} units={r['n_units']:6d}: "
            f"{r['cycle_s'] * 1e3:8.1f} ms/cycle "
            f"({r['cycle_s'] / r['n_units'] * 1e6:6.2f} us/unit; "
            f"sessions {sessions_ms} ms)"
        )

    doc = {
        "format": "repro-bench-shards-v1",
        "units_per_shard": UNITS_PER_SHARD,
        "nodes_per_shard": NODES_PER_SHARD,
        "cycles": CYCLES,
        "sessions": SCALING_ROUNDS,
        "results": results,
        "per_unit_cycle_s": {str(n): t for n, t in per_unit.items()},
    }
    with open(ARTIFACT, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {ARTIFACT}")

    n_max = max(SHARD_COUNTS)
    biggest = next(r for r in results if r["n_shards"] == n_max)
    if n_max >= 8 and UNITS_PER_SHARD >= 6400:
        # The acceptance bar: 8 shards carrying 50k+ units end to end.
        assert biggest["n_units"] >= 50_000, biggest["n_units"]
    # Near-linear scaling: normalized per-unit cycle time must not blow
    # up as shards are added — the arbiter and the process fan-out may
    # cost something, but nothing superlinear.
    if len(per_unit) >= 2:
        ratio = max(per_unit.values()) / min(per_unit.values())
        print(f"per-unit cycle-time spread: {ratio:.2f}x")
        assert ratio < 2.5, (
            f"per-unit cycle time varies {ratio:.2f}x across "
            f"{sorted(per_unit)} shards — scaling is not near-linear"
        )


def _merge_artifact(key: str, section: dict) -> None:
    try:
        with open(ARTIFACT) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        doc = {"format": "repro-bench-shards-v1"}
    doc[key] = section
    with open(ARTIFACT, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {ARTIFACT}")


def test_process_fleet_full_scale(benchmark):
    """The top topology under both clock codecs: 8 x 6400 units.

    Two sessions over the same topology — the JSON clock plane and the
    binary one — so the artifact records what the binary bulk codec
    buys at fleet scale, in wall time and in wire bytes per cycle.
    """
    n_shards = max(SHARD_COUNTS)
    rows = benchmark.pedantic(
        lambda: [
            _measure(n_shards, UNITS_PER_SHARD, NODES_PER_SHARD, codec)
            for codec in ("json", "binary")
        ],
        rounds=1,
        iterations=1,
    )

    by_codec = {r["codec"]: r for r in rows}
    pjson, pbin = by_codec["json"], by_codec["binary"]
    print(
        f"\nfull-scale fleet ({n_shards} shards x {UNITS_PER_SHARD} units"
        f" = {pjson['n_units']} units):"
    )
    for codec, r in by_codec.items():
        print(
            f"  {codec:6s}: {r['cycle_s'] * 1e3:8.1f} ms/cycle "
            f"({r['bytes_clock_per_cycle'] + r['bytes_links_per_cycle']:9.0f}"
            f" wire bytes/cycle)"
        )
    bytes_ratio = pjson["bytes_clock_per_cycle"] / pbin["bytes_clock_per_cycle"]
    print(f"binary moves {bytes_ratio:.1f}x fewer clock bytes/cycle")

    _merge_artifact(
        "process_full_scale",
        {
            "n_shards": n_shards,
            "units_per_shard": UNITS_PER_SHARD,
            "nodes_per_shard": NODES_PER_SHARD,
            "cycles": CYCLES,
            "results": rows,
            "clock_bytes_ratio_json_over_binary": bytes_ratio,
        },
    )

    # The codec win is topology-determined, not load-determined.
    assert bytes_ratio >= 5.0, (
        f"binary codec moves only {bytes_ratio:.1f}x fewer clock "
        f"bytes/cycle than JSON (expected >= 5x)"
    )
