"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` records one span per call into a wrapped public
function: name, start, end, the enclosing span on the same thread, and
the control-cycle (or simulation-step) id current when the call began.
Spans stay in memory and are written out once, when the run ends.

Per-unit scalar functions (meter read, 3-byte encode/decode, cap write)
run 12,800 times per fleet cycle.  Recording each as its own span would
cost more memory than the run itself, so those are *folded*: their time
and call count accumulate under (name, enclosing span, cycle) and still
count as child time of the enclosing span.  Self time of a span is its
duration minus the time its child spans and folded calls cover.

Nothing here imports the program under test; :mod:`layers` decides what
to wrap.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable

__all__ = ["Tracer", "summarize"]

# Span record layout (a list, mutated in place by its own thread only).
_SERIAL, _NAME, _START, _END, _PARENT, _CYCLE, _MAIN, _CHILD = range(8)


class Tracer:
    """Span and counter store of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        #: Current cycle / step id; set by the cycle hooks in :mod:`layers`.
        self.cycle = -1
        self._serial = itertools.count()
        self._local = threading.local()
        self._folded_by_thread: list[tuple[bool, dict]] = []
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    # -- per-thread state ----------------------------------------------

    def _state(self) -> tuple[list, dict]:
        local = self._local
        try:
            return local.stack, local.folded
        except AttributeError:
            local.stack = []
            local.folded = {}
            is_main = threading.get_ident() == self._main
            self._folded_by_thread.append((is_main, local.folded))
            return local.stack, local.folded

    # -- wrappers ------------------------------------------------------

    def span(
        self,
        name: str,
        fn: Callable,
        after: Callable | None = None,
        cycle_of: Callable | None = None,
    ):
        """Wrap ``fn`` so each call records one span.

        ``cycle_of(args, kwargs)`` sets the current cycle id before the
        span opens; ``after(args, kwargs, result)`` runs after it closes.
        """
        perf = time.perf_counter
        serial = self._serial
        spans = self.spans
        main = self._main
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cycle_of is not None:
                tracer.cycle = cycle_of(args, kwargs)
            stack, _ = tracer._state()
            parent = stack[-1] if stack else None
            rec = [
                next(serial),
                name,
                0.0,
                0.0,
                parent[_SERIAL] if parent is not None else -1,
                tracer.cycle,
                threading.get_ident() == main,
                0.0,
            ]
            spans.append(rec)
            stack.append(rec)
            rec[_START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = end = perf()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += end - rec[_START]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def folded(self, name: str, fn: Callable):
        """Wrap a per-unit scalar function; calls fold into counters."""
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack, folded = tracer._state()
                parent = stack[-1] if stack else None
                key = (
                    name,
                    parent[_SERIAL] if parent is not None else -1,
                    tracer.cycle,
                )
                acc = folded.get(key)
                if acc is None:
                    folded[key] = acc = [0.0, 0]
                acc[0] += dt
                acc[1] += 1
                if parent is not None:
                    parent[_CHILD] += dt

        return wrapper

    # -- counters ------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(float(value))

    def n_records(self) -> int:
        """Spans plus folded calls recorded so far (approximate, racy)."""
        folded = sum(
            acc[1]
            for _, table in list(self._folded_by_thread)
            for acc in list(table.values())
        )
        return len(self.spans) + folded

    # -- output --------------------------------------------------------

    def dump(self) -> dict:
        folded = []
        for is_main, table in list(self._folded_by_thread):
            for (name, parent, cycle), (total, n) in list(table.items()):
                folded.append([name, parent, cycle, total, n, is_main])
        return {
            "pid": os.getpid(),
            "spans": [rec for rec in self.spans if rec[_END] > 0.0],
            "folded": folded,
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def write(self, path: str | Path) -> None:
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps(self.dump()), encoding="utf-8")
        os.replace(tmp, path)


def summarize(dump: dict, window: tuple[float, float] | None = None) -> dict:
    """Per-span-name totals of one process dump.

    Returns a mapping with, per name: ``self_s`` (busy time net of child
    spans and folded calls), ``total_s`` (inclusive duration), ``n``
    (calls) and ``outer_n`` / ``outer_s`` (calls not nested in a span of
    the same name); ``covered_main_s``, the wall time on the main thread
    covered by some span or folded call (top-level intervals do not
    overlap, so their durations add up; spans are clipped to ``window``
    when one is given, folded calls carry no timestamps and count
    whole); and the dump's counters and samples.
    """
    names: dict[str, dict] = {}

    def entry(name: str) -> dict:
        return names.setdefault(
            name,
            {"self_s": 0.0, "total_s": 0.0, "n": 0, "outer_n": 0, "outer_s": 0.0},
        )

    lo, hi = window if window is not None else (float("-inf"), float("inf"))
    by_serial = {rec[_SERIAL]: rec for rec in dump["spans"]}
    covered = 0.0
    for rec in dump["spans"]:
        dur = rec[_END] - rec[_START]
        e = entry(rec[_NAME])
        e["self_s"] += dur - rec[_CHILD]
        e["total_s"] += dur
        e["n"] += 1
        parent = by_serial.get(rec[_PARENT])
        if parent is None or parent[_NAME] != rec[_NAME]:
            e["outer_n"] += 1
            e["outer_s"] += dur
        if rec[_PARENT] == -1 and rec[_MAIN]:
            covered += max(0.0, min(rec[_END], hi) - max(rec[_START], lo))
    for name, parent, _cycle, total, n, is_main in dump["folded"]:
        e = entry(name)
        e["self_s"] += total
        e["total_s"] += total
        e["n"] += n
        e["outer_n"] += n
        e["outer_s"] += total
        if parent == -1 and is_main:
            covered += total
    return {
        "names": names,
        "covered_main_s": covered,
        "counters": dump["counters"],
        "samples": dump["samples"],
    }
