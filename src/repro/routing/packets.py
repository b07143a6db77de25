"""Routing control packet headers shared by DSR, AODV and MTS.

Each header is a small dataclass stored in ``packet.headers`` under a
well-known key (`"rreq"`, `"rrep"`, `"rerr"`, `"srcroute"`, `"check"`,
`"check_err"`).  The fields mirror the lists given in the paper §III-B/D:
RREQ = (type, source, destination, broadcast id, hop count, node list);
RREP = (type, source, destination, reply id, hop count, node list);
CHECK = (type, checking id, hop count, node list).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

#: Header dictionary keys.
RREQ_KEY = "rreq"
RREP_KEY = "rrep"
RERR_KEY = "rerr"
SRCROUTE_KEY = "srcroute"
CHECK_KEY = "check"
CHECK_ERR_KEY = "check_err"

#: Nominal on-the-wire sizes (bytes) for control packets, following the
#: AODV/DSR drafts: fixed part plus 4 bytes per listed address.
RREQ_BASE_SIZE = 24
RREP_BASE_SIZE = 20
RERR_BASE_SIZE = 12
CHECK_BASE_SIZE = 16
ADDRESS_SIZE = 4


def control_packet_size(base: int, listed_addresses: int) -> int:
    """Size in bytes of a control packet carrying ``listed_addresses`` addresses."""
    return base + ADDRESS_SIZE * max(listed_addresses, 0)


@dataclasses.dataclass
class RreqHeader:
    """Route request.

    Attributes
    ----------
    origin:
        The node that initiated route discovery (the TCP source).
    target:
        The node being searched for (the TCP destination).
    broadcast_id:
        Origin-local monotonically increasing discovery identifier; the
        tuple ``(origin, broadcast_id)`` uniquely identifies a flood.
    origin_seq:
        Origin's own sequence number (AODV-style loop freedom).
    target_seq:
        Latest destination sequence number known to the origin (0 if none).
    hop_count:
        Hops traversed so far.
    path:
        Accumulated node list starting with ``origin``; every forwarding
        node appends itself (the paper's "list of intermediate nodes").
    """

    origin: int
    target: int
    broadcast_id: int
    origin_seq: int = 0
    target_seq: int = 0
    hop_count: int = 0
    path: List[int] = dataclasses.field(default_factory=list)

    def flood_key(self) -> Tuple[int, int]:
        """Key identifying this flood for duplicate suppression."""
        return (self.origin, self.broadcast_id)

    def clone(self) -> "RreqHeader":
        """Deep copy (all fields are scalars except the int list)."""
        return RreqHeader(self.origin, self.target, self.broadcast_id,
                          self.origin_seq, self.target_seq, self.hop_count,
                          list(self.path))


@dataclasses.dataclass
class RrepHeader:
    """Route reply, unicast from the target back to the origin."""

    origin: int
    target: int
    reply_id: int
    target_seq: int = 0
    hop_count: int = 0
    #: Full path from origin to target (origin first, target last).
    path: List[int] = dataclasses.field(default_factory=list)
    #: True when an intermediate node answered from its cache (DSR/AODV
    #: optimisation, never used by MTS).
    from_cache: bool = False

    def clone(self) -> "RrepHeader":
        """Deep copy (all fields are scalars except the int list)."""
        return RrepHeader(self.origin, self.target, self.reply_id,
                          self.target_seq, self.hop_count, list(self.path),
                          self.from_cache)


@dataclasses.dataclass
class RerrHeader:
    """Route error.

    ``broken_link`` is the (upstream, downstream) pair whose MAC-level
    delivery failed; ``unreachable`` maps destination ids to the last known
    destination sequence number (AODV semantics).
    """

    reporter: int
    broken_link: Tuple[int, int]
    unreachable: Dict[int, int] = dataclasses.field(default_factory=dict)
    #: The data-packet source this error is being routed back to, when the
    #: protocol unicasts errors (DSR/MTS); ``None`` for broadcast RERRs.
    target_origin: Optional[int] = None

    def clone(self) -> "RerrHeader":
        """Deep copy (the int tuple is immutable and safely shared)."""
        return RerrHeader(self.reporter, self.broken_link,
                          dict(self.unreachable), self.target_origin)


@dataclasses.dataclass
class SourceRouteHeader:
    """Source route carried by data packets in DSR and MTS.

    ``path`` lists every node from the origin to the destination,
    inclusive.  ``index`` points at the position of the node currently
    holding the packet; the next hop is ``path[index + 1]``.
    """

    path: List[int]
    index: int = 0

    def next_hop(self) -> int:
        """Next hop from the current position."""
        if self.index + 1 >= len(self.path):
            raise ValueError("source route exhausted: already at destination")
        return self.path[self.index + 1]

    def advance(self) -> None:
        """Move the position one hop forward."""
        self.index += 1

    def remaining_hops(self) -> int:
        """Hops left until the destination."""
        return len(self.path) - 1 - self.index

    def clone(self) -> "SourceRouteHeader":
        """Deep copy (``path`` holds only ints)."""
        return SourceRouteHeader(list(self.path), self.index)


@dataclasses.dataclass
class CheckHeader:
    """MTS route checking packet (destination → source).

    Attributes
    ----------
    check_id:
        Round identifier, incremented each time the destination emits a
        batch of checking packets (one per stored disjoint path).
    path:
        The checked path in *forward* order (origin → ... → destination);
        the checking packet traverses it in reverse.
    hop_count:
        Hops traversed so far by the checking packet.
    origin, target:
        Endpoints of the TCP session being protected: ``origin`` is the
        TCP source (the node that will receive this checking packet) and
        ``target`` is the TCP destination (the node that emitted it).
    """

    check_id: int
    origin: int
    target: int
    path: List[int] = dataclasses.field(default_factory=list)
    hop_count: int = 0

    def clone(self) -> "CheckHeader":
        """Deep copy (``path`` holds only ints)."""
        return CheckHeader(self.check_id, self.origin, self.target,
                           list(self.path), self.hop_count)


@dataclasses.dataclass
class CheckErrHeader:
    """MTS checking-error packet (reporter → destination)."""

    check_id: int
    reporter: int
    target: int
    #: The path whose check failed (forward order, origin → destination).
    failed_path: List[int] = dataclasses.field(default_factory=list)
    broken_link: Tuple[int, int] = (0, 0)

    def clone(self) -> "CheckErrHeader":
        """Deep copy (the int tuple is immutable and safely shared)."""
        return CheckErrHeader(self.check_id, self.reporter, self.target,
                              list(self.failed_path), self.broken_link)
