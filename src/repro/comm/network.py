"""Simulated cluster network with latency and byte accounting (§6.5).

The paper measures tens of microseconds of BSD-socket latency per request
and argues scaling: "scaling to 1,000 nodes would only incur a several
millisecond latency ... scaling to even 1M nodes, requiring a network
traffic size of 3MB, would put little burden on a network bandwidth in
GB/s".  :class:`NetworkModel` encodes that cost model — a fixed per-message
latency plus a bandwidth term — and :class:`LinkStats` counts what actually
crossed the wire so the overhead bench reports measured, not assumed,
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.protocol import MESSAGE_SIZE_BYTES

__all__ = ["NetworkModel", "LinkStats"]


@dataclass
class LinkStats:
    """Running totals of one direction of traffic.

    Attributes:
        messages: messages transferred.
        bytes: payload bytes transferred.
        busy_s: cumulative transfer latency.
    """

    messages: int = 0
    bytes: int = 0
    busy_s: float = 0.0


@dataclass
class NetworkModel:
    """Latency/bandwidth model of the management network.

    The cost structure follows the paper's scaling argument: message
    *propagation* (tens of microseconds on a LAN) overlaps across clients,
    so a control cycle pays it roughly once per direction; what serializes
    at the controller is the per-message handling cost (socket syscall +
    dispatch, a few microseconds) and the wire bytes against the link
    bandwidth.  With these constants, 1,000 nodes cost several milliseconds
    per cycle and 1M nodes' 3-byte requests are ~MBs of traffic — exactly
    the §6.5 numbers.

    Attributes:
        base_latency_s: one-way propagation latency (default 50 µs),
            overlapped across concurrent clients.
        server_per_message_s: serialized controller-side cost per message
            (default 3 µs).
        bandwidth_bytes_per_s: link bandwidth (default 1.25 GB/s = 10 GbE).
        stats: accumulated traffic totals.
    """

    base_latency_s: float = 50e-6
    server_per_message_s: float = 3e-6
    bandwidth_bytes_per_s: float = 1.25e9
    stats: LinkStats = field(default_factory=LinkStats)

    def __post_init__(self) -> None:
        if self.base_latency_s < 0:
            raise ValueError(
                f"base_latency_s must be >= 0, got {self.base_latency_s}"
            )
        if self.server_per_message_s < 0:
            raise ValueError(
                "server_per_message_s must be >= 0, got "
                f"{self.server_per_message_s}"
            )
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError(
                "bandwidth_bytes_per_s must be > 0, got "
                f"{self.bandwidth_bytes_per_s}"
            )

    def transfer(self, n_bytes: int) -> float:
        """Account one message and return its *serialized* cost (s).

        The returned latency covers only the components that do not
        overlap across clients: controller-side handling plus wire time.
        Propagation is charged once per cycle direction via
        :meth:`propagation_s`.
        """
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        latency = (
            self.server_per_message_s + n_bytes / self.bandwidth_bytes_per_s
        )
        self.stats.messages += 1
        self.stats.bytes += n_bytes
        self.stats.busy_s += latency
        return latency

    def charge_cycle(self, n_units: int) -> float:
        """Account one control cycle's traffic and return its latency (s).

        A cycle moves one 3-byte reading up and one 3-byte cap down per
        unit; clients are polled concurrently, so propagation is paid
        once per direction while every message's serialized cost adds
        up.
        """
        serialized = sum(
            self.transfer(MESSAGE_SIZE_BYTES) for _ in range(2 * n_units)
        )
        return 2 * self.propagation_s() + serialized

    def propagation_s(self) -> float:
        """One direction's overlapped propagation latency (paid per cycle)."""
        return self.base_latency_s

    def reset_stats(self) -> None:
        """Zero the traffic totals."""
        self.stats = LinkStats()
