"""Central metrics collector.

One :class:`MetricsCollector` instance is shared by every routing agent in
a scenario (plus the eavesdropper monitor).  It receives fine-grained
events and exposes the aggregates the paper's figures are computed from.
Only data *kinds* relevant to each metric are counted:

* relay counts / participating nodes (Figures 5–7, Table I) count **data
  packets** (TCP data and TCP ACKs — everything an eavesdropper would find
  valuable), per intermediate node;
* the interception metrics compare **TCP data segments** overheard by the
  eavesdropper against TCP data segments that reached the destination;
* control overhead (Figure 11) counts every transmission of a routing
  control packet at every hop, as is conventional.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.net.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class MetricsCollector:
    """Aggregates packet-level events into the paper's metrics inputs.

    Parameters
    ----------
    sim:
        Simulation engine (for timestamps).
    track_flows:
        Optional set of ``(src, dst)`` pairs; when given, only packets
        belonging to those flows are counted (both directions are added
        automatically).  ``None`` counts everything.
    """

    def __init__(self, sim: "Simulator",
                 track_flows: Optional[List[Tuple[int, int]]] = None):
        self.sim = sim
        self._flows: Optional[Set[Tuple[int, int]]] = None
        if track_flows is not None:
            self._flows = set()
            for src, dst in track_flows:
                self._flows.add((src, dst))
                self._flows.add((dst, src))

        # data-plane counters
        self.data_originated: Dict[str, int] = defaultdict(int)
        self.data_delivered: Dict[str, int] = defaultdict(int)
        self.data_dropped: Dict[str, int] = defaultdict(int)
        self.drop_reasons: Dict[str, int] = defaultdict(int)
        self.delivery_delays: List[float] = []
        self.delivered_bytes: int = 0
        #: unique TCP data segment uids that reached their destination (Pr).
        self.delivered_tcp_uids: Set[int] = set()
        #: unique TCP data segment uids originated at sources.
        self.originated_tcp_uids: Set[int] = set()

        # relay accounting (per intermediate node)
        self.relay_counts: Dict[int, int] = defaultdict(int)
        self.relay_counts_tcp_data: Dict[int, int] = defaultdict(int)
        self.relay_unique_tcp: Dict[int, Set[int]] = defaultdict(set)

        # control overhead
        self.control_sent: Dict[str, int] = defaultdict(int)

        # eavesdropping
        self.eavesdropped_total: int = 0
        self.eavesdropped_tcp_uids: Set[int] = set()
        self.eavesdropper_nodes: Set[int] = set()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _tracked(self, packet: Packet) -> bool:
        if self._flows is None:
            return True
        return (packet.src, packet.dst) in self._flows

    # ------------------------------------------------------------------ #
    # data plane events (called by routing agents)
    # ------------------------------------------------------------------ #
    def on_data_originated(self, node: int, packet: Packet) -> None:
        """A transport agent handed a new data packet to routing at ``node``."""
        if not self._tracked(packet):
            return
        self.data_originated[packet.kind] += 1
        if packet.kind == PacketKind.TCP:
            self.originated_tcp_uids.add(packet.uid)

    def on_data_delivered(self, node: int, packet: Packet) -> None:
        """A data packet reached its final destination ``node``."""
        if not self._tracked(packet):
            return
        self.data_delivered[packet.kind] += 1
        self.delivered_bytes += packet.size
        self.delivery_delays.append(self.sim.now - packet.timestamp)
        if packet.kind == PacketKind.TCP:
            self.delivered_tcp_uids.add(packet.uid)

    def on_data_dropped(self, node: int, packet: Packet, reason: str) -> None:
        """A data packet was dropped at ``node`` for ``reason``."""
        if not self._tracked(packet):
            return
        self.data_dropped[packet.kind] += 1
        self.drop_reasons[reason] += 1

    def on_relay(self, node: int, packet: Packet) -> None:
        """Intermediate ``node`` relayed a data packet."""
        if not self._tracked(packet):
            return
        self.relay_counts[node] += 1
        if packet.kind == PacketKind.TCP:
            self.relay_counts_tcp_data[node] += 1
            self.relay_unique_tcp[node].add(packet.uid)

    def on_control_sent(self, node: int, packet: Packet) -> None:
        """``node`` transmitted a routing control packet (any hop)."""
        self.control_sent[packet.kind] += 1

    def on_eavesdrop(self, node: int, packet: Packet) -> None:
        """The eavesdropper at ``node`` decoded a data frame."""
        if not self._tracked(packet):
            return
        self.eavesdropper_nodes.add(node)
        self.eavesdropped_total += 1
        if packet.kind == PacketKind.TCP:
            self.eavesdropped_tcp_uids.add(packet.uid)

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    def total_data_originated(self) -> int:
        """All data packets handed to routing by transport agents."""
        return sum(self.data_originated.values())

    def total_data_delivered(self) -> int:
        """All data packets that reached their destinations."""
        return sum(self.data_delivered.values())

    def total_control_packets(self) -> int:
        """Total routing control transmissions (paper Figure 11)."""
        return sum(self.control_sent.values())

    def tcp_data_delivered(self) -> int:
        """TCP data segments delivered (transmissions, incl. duplicates)."""
        return self.data_delivered.get(PacketKind.TCP, 0)

    def unique_tcp_delivered(self) -> int:
        """Unique TCP data segments that reached the destination (Pr)."""
        return len(self.delivered_tcp_uids)

    def unique_tcp_eavesdropped(self) -> int:
        """Unique TCP data segments overheard by the eavesdropper (Pe)."""
        return len(self.eavesdropped_tcp_uids)

    def mean_delivery_delay(self) -> float:
        """Average end-to-end delay of delivered data packets (seconds)."""
        if not self.delivery_delays:
            return 0.0
        return sum(self.delivery_delays) / len(self.delivery_delays)

    def relay_count_map(self, tcp_only: bool = False) -> Dict[int, int]:
        """Per-node relay counts (β_i); excludes nodes with zero relays."""
        source = self.relay_counts_tcp_data if tcp_only else self.relay_counts
        return {node: count for node, count in source.items() if count > 0}

    def relay_unique_tcp_counts(self) -> Dict[int, int]:
        """Per-node count of *distinct* TCP data segments relayed.

        This is the quantity comparable with P_r (unique TCP segments at
        the destination), so it is what the worst-case "highest
        interception ratio" of Figure 7 is computed from.
        """
        return {node: len(uids) for node, uids in self.relay_unique_tcp.items()
                if uids}

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict summary convenient for logging and tests."""
        return {
            "data_originated": dict(self.data_originated),
            "data_delivered": dict(self.data_delivered),
            "data_dropped": dict(self.data_dropped),
            "control_sent": dict(self.control_sent),
            "relay_nodes": len(self.relay_count_map()),
            "eavesdropped_total": self.eavesdropped_total,
            "mean_delay": self.mean_delivery_delay(),
        }
