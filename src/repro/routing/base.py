"""Common machinery shared by every routing agent.

A routing agent sits between the transport layer and the link layer of one
node.  The :class:`RoutingAgent` base class provides:

* the downcall/upcall entry points (`route_output`, `route_input`,
  `link_failed`, `tap`) that :class:`~repro.net.node.Node` wires up;
* a bounded *send buffer* holding data packets while route discovery for
  their destination is in progress (NS-2's ``rqueue``);
* helpers for transmitting control packets and forwarding data packets
  that keep the metrics hooks (control overhead, relay counts) in exactly
  one place;
* TTL handling and common statistics.

Concrete protocols (DSR, AODV, MTS) implement the abstract
`_handle_*` methods.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

from repro.net.addressing import BROADCAST
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.collector import MetricsCollector
    from repro.net.node import Node
    from repro.sim.engine import Simulator


@dataclasses.dataclass
class RoutingConfig:
    """Parameters shared by all routing protocols.

    Attributes
    ----------
    send_buffer_size:
        Maximum number of data packets buffered while waiting for a route.
    send_buffer_timeout:
        Buffered packets older than this are dropped (seconds).
    max_rreq_retries:
        How many times a route discovery is retried before buffered
        packets for that destination are dropped.
    discovery_timeout:
        Time to wait for a RREP after sending an RREQ; doubled on each
        retry (binary exponential backoff).
    net_diameter_ttl:
        TTL assigned to flooded control packets and forwarded data.
    broadcast_jitter:
        Broadcast control packets (RREQ floods) are delayed by a uniform
        random jitter in ``[0, broadcast_jitter]`` seconds before hitting
        the interface queue.  Without it, neighbours that received the
        same flood copy at the same instant rebroadcast almost
        simultaneously and their (unacknowledged) broadcasts collide at
        common neighbours — the well-known broadcast-storm effect.  Both
        the AODV specification and NS-2's implementations jitter
        broadcasts; 10 ms matches NS-2's default.
    """

    send_buffer_size: int = 64
    send_buffer_timeout: float = 30.0
    max_rreq_retries: int = 3
    discovery_timeout: float = 1.0
    net_diameter_ttl: int = 32
    broadcast_jitter: float = 0.01


@dataclasses.dataclass
class BufferedPacket:
    """A data packet parked in the send buffer awaiting a route."""

    packet: Packet
    enqueue_time: float


class RoutingAgent:
    """Abstract base class for routing agents.

    Parameters
    ----------
    sim:
        Simulation engine.
    node:
        Owning node; the agent attaches itself via ``node.attach_routing``.
    config:
        Shared routing parameters.
    metrics:
        Optional metrics collector; when present the agent reports control
        transmissions, data relays, forwarding drops and delivery events.
    """

    #: Human-readable protocol name, overridden by subclasses.
    PROTOCOL_NAME = "base"

    def __init__(self, sim: "Simulator", node: "Node",
                 config: Optional[RoutingConfig] = None,
                 metrics: Optional["MetricsCollector"] = None):
        self.sim = sim
        self.node = node
        self.config = config or RoutingConfig()
        self.metrics = metrics
        node.attach_routing(self)

        #: Send buffer, keyed by destination.
        self._send_buffer: Dict[int, Deque[BufferedPacket]] = {}
        #: Statistics
        self.stats: Dict[str, int] = {
            "control_sent": 0,
            "data_originated": 0,
            "data_forwarded": 0,
            "data_delivered": 0,
            "drops_no_route": 0,
            "drops_ttl": 0,
            "drops_buffer": 0,
        }

    # ------------------------------------------------------------------ #
    # entry points called by the node
    # ------------------------------------------------------------------ #
    def route_output(self, packet: Packet) -> None:
        """Handle a data packet originated by this node's transport layer."""
        packet.timestamp = packet.timestamp or self.sim.now
        self.stats["data_originated"] += 1
        if self.metrics is not None:
            self.metrics.on_data_originated(self.node.node_id, packet)
        self._route_data(packet, originated=True)

    def route_input(self, packet: Packet, prev_hop: int) -> None:
        """Handle a packet received from the MAC (unicast to us or broadcast)."""
        handler = getattr(self, f"_handle_{packet.kind}", None)
        if handler is not None:
            handler(packet, prev_hop)
        elif packet.is_data:
            self._receive_data(packet, prev_hop)
        # Unknown control kinds are silently ignored (future extensions).

    def link_failed(self, packet: Packet, next_hop: int) -> None:
        """MAC retry limit exhausted for ``packet`` towards ``next_hop``."""
        raise NotImplementedError

    def tap(self, packet: Packet, prev_hop: int) -> None:
        """Promiscuous listening hook; protocols may override (DSR does)."""

    # ------------------------------------------------------------------ #
    # data path — implemented by subclasses
    # ------------------------------------------------------------------ #
    def _route_data(self, packet: Packet, originated: bool) -> None:
        """Choose a next hop for ``packet`` (originated or forwarded)."""
        raise NotImplementedError

    def _receive_data(self, packet: Packet, prev_hop: int) -> None:
        """A data packet arrived at this node (for us or to forward)."""
        if packet.dst == self.node.node_id:
            self.deliver_locally(packet)
            return
        packet.hop_count += 1
        if packet.ttl <= 0:
            self.stats["drops_ttl"] += 1
            return
        packet.ttl -= 1
        if self.metrics is not None:
            self.metrics.on_relay(self.node.node_id, packet)
        self.stats["data_forwarded"] += 1
        self._route_data(packet, originated=False)

    # ------------------------------------------------------------------ #
    # helpers for subclasses
    # ------------------------------------------------------------------ #
    def deliver_locally(self, packet: Packet) -> None:
        """Deliver a packet destined to this node to its transport agent."""
        self.stats["data_delivered"] += 1
        if self.metrics is not None:
            self.metrics.on_data_delivered(self.node.node_id, packet)
        self.node.deliver_locally(packet)

    def send_control(self, packet: Packet, next_hop: int) -> bool:
        """Transmit a routing control packet to ``next_hop`` (or broadcast).

        Broadcast control packets are jittered (see
        :attr:`RoutingConfig.broadcast_jitter`) so that simultaneous
        rebroadcasts from co-located neighbours do not systematically
        collide.
        """
        self.stats["control_sent"] += 1
        if self.metrics is not None:
            self.metrics.on_control_sent(self.node.node_id, packet)
        if self.sim.trace is not None:
            self.sim.trace.log(self.sim.now, "rt_ctrl", self.node.node_id,
                               packet.uid, packet.kind, next_hop=next_hop)
        if next_hop == BROADCAST and self.config.broadcast_jitter > 0:
            delay = float(self.sim.rng("route_jitter").uniform(
                0.0, self.config.broadcast_jitter))
            self.sim.schedule(delay, self.node.send_over_link, packet, next_hop)
            return True
        return self.node.send_over_link(packet, next_hop)

    def send_data(self, packet: Packet, next_hop: int) -> bool:
        """Transmit a data packet one hop to ``next_hop``."""
        if self.sim.trace is not None:
            self.sim.trace.log(self.sim.now, "rt_data", self.node.node_id,
                               packet.uid, packet.kind, next_hop=next_hop)
        return self.node.send_over_link(packet, next_hop)

    def drop_no_route(self, packet: Packet) -> None:
        """Record a data packet dropped for lack of a route."""
        self.stats["drops_no_route"] += 1
        if self.metrics is not None:
            self.metrics.on_data_dropped(self.node.node_id, packet, "no_route")
        if self.sim.trace is not None:
            self.sim.trace.log(self.sim.now, "rt_drop_noroute",
                               self.node.node_id, packet.uid, packet.kind)

    # ------------------------------------------------------------------ #
    # send buffer
    # ------------------------------------------------------------------ #
    def buffer_packet(self, packet: Packet) -> None:
        """Park a data packet until a route to its destination appears."""
        queue = self._send_buffer.setdefault(packet.dst, deque())
        self._expire_buffered(queue)
        if len(queue) >= self.config.send_buffer_size:
            queue.popleft()  # drop the oldest, keep the freshest
            self.stats["drops_buffer"] += 1
        queue.append(BufferedPacket(packet, self.sim.now))

    def buffered_count(self, dst: Optional[int] = None) -> int:
        """Number of buffered packets (for ``dst`` or in total)."""
        if dst is not None:
            queue = self._send_buffer.get(dst)
            return len(queue) if queue else 0
        return sum(len(q) for q in self._send_buffer.values())

    def flush_buffer(self, dst: int) -> List[Packet]:
        """Remove and return all non-expired buffered packets for ``dst``."""
        queue = self._send_buffer.pop(dst, None)
        if not queue:
            return []
        self._expire_buffered(queue)
        return [item.packet for item in queue]

    def drop_buffered(self, dst: int) -> int:
        """Drop all buffered packets for ``dst``; returns how many."""
        queue = self._send_buffer.pop(dst, None)
        if not queue:
            return 0
        count = len(queue)
        self.stats["drops_buffer"] += count
        for item in queue:
            if self.metrics is not None:
                self.metrics.on_data_dropped(self.node.node_id, item.packet,
                                             "discovery_failed")
        return count

    def _expire_buffered(self, queue: Deque[BufferedPacket]) -> None:
        deadline = self.sim.now - self.config.send_buffer_timeout
        while queue and queue[0].enqueue_time < deadline:
            queue.popleft()
            self.stats["drops_buffer"] += 1

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    @property
    def node_id(self) -> int:
        """Convenience accessor for the owning node's id."""
        return self.node.node_id

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} node={self.node.node_id}>"
