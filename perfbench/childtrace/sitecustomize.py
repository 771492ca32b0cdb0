"""Startup module that traces a shard-server child from outside the program.

Process-mode shard servers inherit the benchmark's environment, with the
program's ``src`` prepended to ``PYTHONPATH``.  The traced run puts this
directory on ``PYTHONPATH`` too, so the interpreter imports this module
at start-up, before ``python -m repro shard-server`` runs.  When
``PERFBENCH_CHILD_TRACE`` names a directory, the module wraps the same
public functions the benchmark wraps in its own process
(:mod:`layers`), writes ``child-<pid>.json`` there at interpreter exit,
and keeps ``child-<pid>.count`` current with the number of records held:
a child killed with SIGKILL never writes its spans, and the count file
tells the benchmark how many were lost.

Without the variable the module does nothing.
"""

import os

_TRACE_DIR = os.environ.get("PERFBENCH_CHILD_TRACE")


def _start(trace_dir: str) -> None:
    import atexit
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers
    from spans import Tracer

    tracer = Tracer()
    layers.install(tracer)
    pid = os.getpid()
    count_fd = os.open(
        os.path.join(trace_dir, f"child-{pid}.count"),
        os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
        0o644,
    )

    from repro.shard.server import ShardServer

    traced_run_cycle = ShardServer.run_cycle

    def run_cycle(self, *args, **kwargs):
        stats = traced_run_cycle(self, *args, **kwargs)
        os.pwrite(count_fd, f"{tracer.n_records():>20d}\n".encode(), 0)
        return stats

    ShardServer.run_cycle = run_cycle

    def flush() -> None:
        tracer.write(os.path.join(trace_dir, f"child-{pid}.json"))
        os.close(count_fd)

    atexit.register(flush)


if _TRACE_DIR:
    _start(_TRACE_DIR)
