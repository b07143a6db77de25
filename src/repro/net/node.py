"""The mobile node: container that wires a protocol stack together.

A :class:`Node` owns

* a mobility model (position as a function of time),
* a wireless interface + interface queue + MAC,
* exactly one routing agent (DSR, AODV or MTS),
* any number of transport agents keyed by port (TCP senders/sinks, UDP),
* applications attached to transport agents,

and exposes the downcall/upcall plumbing between them.  The layering and
naming deliberately mirror NS-2's mobile node so the paper's scenario
descriptions translate one-to-one.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.net.addressing import validate_node_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mobility.base import MobilityModel
    from repro.net.interface import WirelessInterface
    from repro.net.packet import Packet
    from repro.net.queue import DropTailQueue
    from repro.sim.engine import Simulator


class Node:
    """One mobile node.

    Parameters
    ----------
    sim:
        Simulation engine.
    node_id:
        Unique non-negative integer identity (also the MAC/network address).
    mobility:
        The node's mobility model.  May be ``None`` for fixtures that only
        exercise higher layers; :meth:`position` then returns ``(0, 0)``.
    """

    def __init__(self, sim: "Simulator", node_id: int,
                 mobility: Optional["MobilityModel"] = None):
        self.sim = sim
        self.node_id = validate_node_id(node_id)
        self.mobility = mobility

        # Stack components, attached by the scenario builder.
        self.interface: Optional["WirelessInterface"] = None
        self.queue: Optional["DropTailQueue"] = None
        self.mac = None
        self.routing_agent = None
        self.transport_agents: Dict[int, Any] = {}
        self.applications: list = []

        # Position memo: mobility positions are pure functions of time, so
        # the last (time, position) pair answers repeated queries at the
        # same timestamp (grid rebuilds, per-receiver distance checks in
        # WirelessChannel.transmit) without re-walking the trajectory.
        # NaN never compares equal, so the cache starts cold.
        self._position_time: float = float("nan")
        self._position: tuple = (0.0, 0.0)

        #: True when this node passively records every frame it can decode
        #: (the paper's eavesdropper).  The actual recording is done by the
        #: security monitor; the flag makes the MAC run in promiscuous mode.
        self.is_eavesdropper: bool = False
        #: Optional promiscuous listeners, called as ``listener(packet, prev_hop)``
        #: for every decoded frame regardless of MAC destination.
        self.promiscuous_listeners: list = []

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def attach_stack(self, interface: "WirelessInterface",
                     queue: "DropTailQueue", mac) -> None:
        """Attach PHY, queue and MAC (done by the scenario builder)."""
        self.interface = interface
        self.queue = queue
        self.mac = mac

    def attach_routing(self, agent) -> None:
        """Attach the routing agent."""
        self.routing_agent = agent

    def add_transport_agent(self, port: int, agent) -> None:
        """Register a transport agent listening on ``port``."""
        if port in self.transport_agents:
            raise ValueError(f"port {port} already bound on node {self.node_id}")
        self.transport_agents[port] = agent

    def add_application(self, app) -> None:
        """Register an application (for bookkeeping/start-stop control)."""
        self.applications.append(app)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def position(self, time: Optional[float] = None):
        """Return the node's ``(x, y)`` position at ``time`` (default: now)."""
        if self.mobility is None:
            return (0.0, 0.0)
        if time is None:
            time = self.sim.now
        if time == self._position_time:
            return self._position
        position = self.mobility.position(time)
        self._position_time = time
        self._position = position
        return position

    # ------------------------------------------------------------------ #
    # downcalls (towards the radio)
    # ------------------------------------------------------------------ #
    def send_over_link(self, packet: "Packet", next_hop: int) -> bool:
        """Hand ``packet`` to the link layer for one-hop transmission.

        Called by the routing agent once it has chosen ``next_hop``
        (``BROADCAST`` floods the packet to all neighbours).  Returns False
        when the interface queue is full and the packet was dropped.
        """
        if self.queue is None:
            raise RuntimeError(f"node {self.node_id} has no interface queue")
        packet.mac_src = self.node_id
        packet.mac_dst = next_hop
        ok = self.queue.enqueue(packet)
        if not ok and self.sim.trace is not None:
            self.sim.trace.log(self.sim.now, "ifq_drop", self.node_id,
                               packet.uid, packet.kind)
        return ok

    def transport_send(self, packet: "Packet") -> None:
        """Entry point for transport agents sending a new end-to-end packet."""
        if self.routing_agent is None:
            raise RuntimeError(f"node {self.node_id} has no routing agent")
        self.routing_agent.route_output(packet)

    # ------------------------------------------------------------------ #
    # upcalls (from the radio)
    # ------------------------------------------------------------------ #
    def receive_from_mac(self, packet: "Packet", prev_hop: int) -> None:
        """Frame addressed to this node (or broadcast) decoded by the MAC."""
        packet.prev_hop = prev_hop
        if self.routing_agent is None:
            return
        self.routing_agent.route_input(packet, prev_hop)

    def promiscuous_from_mac(self, packet: "Packet", prev_hop: int) -> None:
        """Frame decoded promiscuously (not addressed to this node)."""
        for listener in self.promiscuous_listeners:
            listener(packet, prev_hop)
        if self.routing_agent is not None and hasattr(self.routing_agent, "tap"):
            self.routing_agent.tap(packet, prev_hop)

    def link_failure(self, packet: "Packet", next_hop: int) -> None:
        """MAC gave up on delivering ``packet`` to ``next_hop``."""
        if self.routing_agent is not None:
            self.routing_agent.link_failed(packet, next_hop)

    def deliver_locally(self, packet: "Packet") -> None:
        """Deliver a packet whose final destination is this node."""
        agent = self.transport_agents.get(packet.dst_port)
        if agent is not None:
            agent.receive(packet)
        elif self.sim.trace is not None:
            self.sim.trace.log(self.sim.now, "no_agent_drop", self.node_id,
                               packet.uid, packet.kind, port=packet.dst_port)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Node {self.node_id}>"
