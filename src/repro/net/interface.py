"""Per-node wireless interface (PHY state machine).

The interface owns the physical-layer state of one node:

* whether the node is currently transmitting (half duplex — anything that
  arrives while transmitting is lost at this node);
* the set of ongoing receptions, used both for receiver-side collision
  detection (two overlapping receptions corrupt each other) and for
  carrier sensing by the MAC;
* delivery of successfully decoded frames up to the MAC.

The MAC layer (:mod:`repro.mac.dcf`) drives the interface through
:meth:`WirelessInterface.transmit` and receives notifications through
``mac.on_channel_busy`` / ``mac.on_channel_idle`` / ``mac.receive_frame``.
"""

from __future__ import annotations

import dataclasses
from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.channel import WirelessChannel
    from repro.net.node import Node
    from repro.net.packet import Packet
    from repro.sim.engine import Simulator


@dataclasses.dataclass(slots=True, eq=False)
class Reception:
    """One ongoing reception at an interface.

    ``eq=False``: receptions are identity objects — ``_finish_reception``
    removes *this* reception from the in-flight list, so the list scan
    must compare by identity (object ``==``), not by the generated
    six-field tuple comparison.
    """

    packet: "Packet"
    sender_id: int
    start_time: float
    end_time: float
    #: False when the signal is detectable but not decodable, or when it
    #: has been corrupted by a collision / local transmission.
    decodable: bool
    corrupted: bool = False


class WirelessInterface:
    """PHY state machine for a single node.

    Parameters
    ----------
    sim:
        Simulation engine.
    node:
        Owning :class:`~repro.net.node.Node`.
    channel:
        The shared :class:`~repro.net.channel.WirelessChannel`.
    """

    def __init__(self, sim: "Simulator", node: "Node", channel: "WirelessChannel"):
        self.sim = sim
        self.node = node
        self.channel = channel
        # Bound-method cache: transmit/begin_reception schedule one
        # fire-and-forget completion each, hundreds of thousands of times
        # per run; skip the sim.schedule_fire attribute chain.
        self._schedule_fire = sim.schedule_fire
        channel.register(self)

        self.mac = None  # set by the MAC when it attaches
        self._transmitting_until: float = -1.0
        self._receptions: List[Reception] = []
        #: Statistics
        self.frames_sent: int = 0
        self.frames_received: int = 0
        self.frames_collided: int = 0

    # ------------------------------------------------------------------ #
    # attachment
    # ------------------------------------------------------------------ #
    def attach_mac(self, mac) -> None:
        """Attach the MAC entity that drives this interface."""
        self.mac = mac

    # ------------------------------------------------------------------ #
    # channel state queries (used by the MAC for carrier sensing)
    # ------------------------------------------------------------------ #
    @property
    def is_transmitting(self) -> bool:
        """True while this interface's own transmission is on the air."""
        return self.sim.now < self._transmitting_until

    @property
    def is_receiving(self) -> bool:
        """True while at least one signal is arriving at this interface."""
        return bool(self._receptions)

    def carrier_busy(self) -> bool:
        """Carrier-sense result: busy while transmitting or receiving."""
        return self.is_transmitting or self.is_receiving

    # ------------------------------------------------------------------ #
    # transmit path
    # ------------------------------------------------------------------ #
    def transmit(self, packet: "Packet", duration: float) -> None:
        """Put ``packet`` on the air for ``duration`` seconds.

        Any receptions in progress at this node are corrupted (half
        duplex).  The MAC is notified via ``transmission_complete`` when
        the frame has left the air.
        """
        if self.is_transmitting:
            raise RuntimeError(
                f"node {self.node.node_id} attempted to transmit while "
                f"already transmitting")
        now = self.sim.now
        self._transmitting_until = now + duration
        # Half duplex: transmitting stomps on anything being received.
        for reception in self._receptions:
            reception.corrupted = True
        self.frames_sent += 1
        self.channel.transmit(self, packet, duration)
        # Fire-and-forget: transmission/reception completions are never
        # cancelled, so they need no Event to cancel them through.
        self._schedule_fire(duration, self._finish_transmission, packet)

    def _finish_transmission(self, packet: "Packet") -> None:
        self._transmitting_until = -1.0
        if self.mac is not None:
            self.mac.transmission_complete(packet)
            if not self.carrier_busy():
                self.mac.on_channel_idle()

    # ------------------------------------------------------------------ #
    # receive path (called by the channel)
    # ------------------------------------------------------------------ #
    def begin_reception(self, packet: "Packet", duration: float,
                        decodable: bool, sender_id: int) -> None:
        """Start receiving a frame that will last ``duration`` seconds.

        Hot path (one call per candidate reception): the carrier-sense
        predicates are inlined as attribute comparisons rather than going
        through :meth:`carrier_busy` / :attr:`is_transmitting`.
        """
        now = self.sim.now
        receptions = self._receptions
        transmitting = now < self._transmitting_until
        was_busy = transmitting or bool(receptions)
        reception = Reception(packet, sender_id, now, now + duration,
                              decodable)
        # Receiver-side collision detection: any overlap corrupts both
        # the new arrival and everything already in flight.
        if receptions:
            reception.corrupted = True
            for other in receptions:
                other.corrupted = True
        # Half duplex: a node cannot decode while it is transmitting.
        if transmitting:
            reception.corrupted = True
        receptions.append(reception)
        if not was_busy and self.mac is not None:
            self.mac.on_channel_busy()
        self._schedule_fire(duration, self._finish_reception, reception)

    def _finish_reception(self, reception: Reception) -> None:
        self._receptions.remove(reception)
        delivered = (reception.decodable and not reception.corrupted
                     and not self.sim.now < self._transmitting_until)
        if delivered:
            self.frames_received += 1
            if self.mac is not None:
                self.mac.receive_frame(reception.packet, reception.sender_id)
        else:
            self.frames_collided += 1
            if self.sim.trace is not None:
                self.sim.trace.log(self.sim.now, "phy_collision",
                                   self.node.node_id, reception.packet.uid,
                                   reception.packet.kind,
                                   sender=reception.sender_id)
        if (not self._receptions and self.mac is not None
                and not self.sim.now < self._transmitting_until):
            self.mac.on_channel_idle()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<WirelessInterface node={self.node.node_id} "
                f"tx={self.is_transmitting} rx={len(self._receptions)}>")
