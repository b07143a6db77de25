"""The shared wireless channel.

The channel knows every :class:`~repro.net.interface.WirelessInterface`
attached to it.  When an interface transmits, the channel evaluates the
propagation model against the current node positions and delivers the
frame (as a timed reception) to every interface within range.  Receiver
interfaces decide locally whether overlapping receptions collide — this is
the standard receiver-side collision model, which also captures hidden
terminals because carrier sensing happens at the *sender* while collisions
happen at the *receiver*.

Scalability: the candidate set for a transmission is narrowed in two
stages before any exact math runs, and both stages are conservative
(supersets), so the event schedule — and therefore every simulation
result — is bit-for-bit identical to the historical full scan.

1. *Spatial grid.*  A uniform grid over node positions, rebuilt lazily:
   the cell size is the signal reach plus a slack margin and the grid
   stays valid until some node could have moved farther than the slack.
   A transmission only considers interfaces in the sender's cell and the
   eight adjacent cells — a superset of everything within reach, by
   construction.  On fields the grid cannot partition (the 3×3 block
   would cover the whole field anyway) the index collapses to a single
   covering cell that never goes stale instead of pretending to filter.
2. *Distance prefilter.*  Every mobility model describes its motion as
   trajectory segments (:meth:`~repro.mobility.base.MobilityModel.segment_at`
   is part of the model contract), so the channel holds exact *SoA
   kinematics*: per-interface segment entries (span, endpoints,
   velocity) loaded from each model's ``segment_at`` and reloaded once
   their span has ended.  Closed-form positions at the current time are
   therefore always exact, and the prefilter radius is the detection
   range plus only a float-rounding margin, so the squared-distance pass
   over the candidate block is conservative: nothing the exact
   per-candidate evaluation would accept can be dropped.  Blocks below
   ``_KIN_PREFILTER_VECTOR_MIN`` candidates run the prefilter as a fused
   Python loop, larger ones as one numpy pass.

Exact positions and distances for the surviving candidates are still
evaluated with scalar ``math`` at the current time (numpy's ``hypot``
differs from CPython's by ulps, so the exact stage must not be
vectorized), candidates are visited in registration order, and the
per-candidate RNG draw order of probabilistic propagation models is
preserved.  The exact per-candidate interpolation reproduces
``Waypoint.position``'s float-op order term for term, so the distances
are bit-identical to querying the mobility model directly.
Reception decisions and propagation delays for the survivors go through
the model's ``in_range_many`` / ``delay_many`` batch entry points when
the model provides them (see
:class:`~repro.net.propagation.PropagationModel`); models without
``in_range_many`` fall back to the scalar per-candidate loop.  The
per-receiver receptions are scheduled through
:meth:`~repro.sim.engine.Simulator.schedule_fire_many` — one grouped
heap entry per transmission, delivered in exactly the order the
per-receiver loop would have produced.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.mobility.base import Waypoint
from repro.net.packet import PacketKind
from repro.net.propagation import PropagationModel, RangePropagation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.interface import WirelessInterface
    from repro.net.packet import Packet
    from repro.sim.engine import Simulator

#: Kinematics entry for a node without a mobility model (fixed origin).
_ORIGIN_SEGMENT = Waypoint(0.0, math.inf, (0.0, 0.0), (0.0, 0.0))

#: MAC control kinds whose receptions share the sender's packet object
#: instead of receiving a deep copy.  Safe because every consumer is
#: read-only: the DCF handlers (``_handle_rts`` / ``_handle_cts`` /
#: ``_handle_mac_ack``) only read ``mac_dst`` / ``uid`` / NAV headers,
#: control frames are never forwarded or re-transmitted, and the sending
#: MAC never mutates a control frame once it is on the air.  Data and
#: routing kinds keep per-receiver copies — their delivered objects are
#: mutated (TTL, per-hop MAC fields) by the routing layer.
_SHARED_RX_KINDS = frozenset((PacketKind.RTS, PacketKind.CTS,
                              PacketKind.MAC_ACK))


class WirelessChannel:
    """Broadcast wireless medium shared by all node interfaces.

    Parameters
    ----------
    sim:
        The simulation engine (for the clock and event scheduling).
    propagation:
        The propagation model; defaults to a deterministic 250 m disc,
        matching the paper's configuration.
    max_node_speed:
        Upper bound on any node's speed in m/s, used to decide how long
        the spatial index stays valid.  The default (50 m/s, far above
        the paper's 20 m/s maximum) is always safe for the mobility
        models in this package; the scenario builder passes the
        configured maximum speed for a tighter bound.
    field_size:
        Optional ``(width, height)`` of the simulation field.  When given
        and the field is too small for the 3×3 grid block to filter
        anything, the spatial index collapses to a single covering cell
        (see the module docstring).  Candidate *sets* are identical
        either way; only indexing overhead changes.
    """

    #: Slack margin added to the grid cell size, as a fraction of the
    #: detection range.  The grid is rebuilt once nodes could have moved
    #: farther than this margin, so a larger value trades bigger candidate
    #: sets for rarer rebuilds.
    _GRID_SLACK_FRACTION = 0.5

    #: Absolute safety margin (metres) added to the prefilter radius so
    #: float rounding in the squared-distance comparison can never drop a
    #: candidate the exact scalar evaluation would accept.
    _PREFILTER_MARGIN_M = 1e-6

    #: Below this many in-detection-range receivers the scalar loop beats
    #: the numpy round-trip; both produce identical results.
    _VECTOR_MIN_RECEIVERS = 4

    #: Below this many candidates the prefilter runs as a fused Python
    #: loop over the cached segment lists instead of numpy array math —
    #: the numpy round-trip only wins on larger blocks (measured crossover
    #: ~45).  The two paths may disagree about prefilter survivors by at
    #: most margin-boundary ulps; the exact stage re-evaluates survivors
    #: identically either way.
    _KIN_PREFILTER_VECTOR_MIN = 48

    def __init__(self, sim: "Simulator",
                 propagation: Optional[PropagationModel] = None,
                 max_node_speed: float = 50.0,
                 field_size: Optional[Tuple[float, float]] = None):
        self.sim = sim
        self.propagation = propagation or RangePropagation(250.0)
        if max_node_speed < 0:
            raise ValueError("max_node_speed must be non-negative")
        self.max_node_speed = float(max_node_speed)
        if field_size is not None:
            field_size = (float(field_size[0]), float(field_size[1]))
            if field_size[0] <= 0 or field_size[1] <= 0:
                raise ValueError("field_size dimensions must be positive")
        self.field_size = field_size
        self._interfaces: List["WirelessInterface"] = []
        self._interface_index: Dict["WirelessInterface", int] = {}
        #: Count of frame transmissions put on the air (all kinds).
        self.transmissions: int = 0
        #: Count of spatial-index rebuilds (instrumentation).
        self.grid_rebuilds: int = 0
        #: Count of full SoA kinematics builds.
        self.pos_refreshes: int = 0
        #: Count of SoA kinematics entry writes (full-build loads and
        #: expiry refreshes).
        self.snapshot_invalidations: int = 0
        #: Sum / maximum of candidate-set sizes over all transmissions
        #: (instrumentation; candidate sets include the sender itself).
        self.candidate_total: int = 0
        self.candidate_max: int = 0
        #: Sum / maximum of *refined* candidate-set sizes — what survives
        #: the vectorized distance prefilter and reaches exact evaluation.
        self.refined_total: int = 0
        self.refined_max: int = 0
        # Spatial index state (see _ensure_grid).
        self._grid: Dict[Tuple[int, int], List[int]] = {}
        self._grid_time: Optional[float] = None
        self._grid_horizon: float = 0.0
        self._grid_cell_size: float = 1.0
        self._single_cell: bool = False
        self._all_candidates: Optional[Tuple[List[int], np.ndarray]] = None
        #: Per-rebuild cache of 3×3 block candidates, as (list, ndarray)
        #: pairs — the list feeds the small-block Python prefilter, the
        #: ndarray the large-block numpy prefilter.
        self._block_cache: Dict[Tuple[int, int],
                                Tuple[List[int], np.ndarray]] = {}
        # SoA kinematics state (see _build_kinematics).  The scalar lists
        # carry the raw segment endpoints for the bit-exact fused
        # interpolation loop; the numpy arrays carry the velocity form for
        # the vectorized prefilter (ulp-level differences are absorbed by
        # the prefilter margin).  _kin_ready is False until the first
        # transmission and after every registration.
        self._kin_ready: bool = False
        self._kin_st: List[float] = []
        self._kin_et: List[float] = []
        self._kin_sx: List[float] = []
        self._kin_sy: List[float] = []
        self._kin_ex: List[float] = []
        self._kin_ey: List[float] = []
        self._kin_t0: Optional[np.ndarray] = None
        self._kin_ox: Optional[np.ndarray] = None
        self._kin_oy: Optional[np.ndarray] = None
        self._kin_vx: Optional[np.ndarray] = None
        self._kin_vy: Optional[np.ndarray] = None
        self._kin_et_arr: Optional[np.ndarray] = None
        #: Earliest segment end among all entries; at or past this time at
        #: least one entry has expired and must be refreshed.
        self._kin_min_end: float = math.inf
        # Cached named RNG stream (stable instance per name).
        self._prop_rng = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, interface: "WirelessInterface") -> None:
        """Attach an interface to the channel."""
        if interface in self._interface_index:
            raise ValueError("interface already registered")
        self._interface_index[interface] = len(self._interfaces)
        self._interfaces.append(interface)
        self._grid_time = None  # invalidate the spatial index
        self.reset_kinematics()  # ... and the SoA kinematics

    def reset_kinematics(self) -> None:
        """Invalidate the SoA kinematics state.

        The next transmission rebuilds the arrays over the current
        interface population.
        """
        self._kin_ready = False

    @property
    def interfaces(self) -> Iterable["WirelessInterface"]:
        return tuple(self._interfaces)

    # ------------------------------------------------------------------ #
    # geometry helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def distance(pos_a, pos_b) -> float:
        """Euclidean distance between two ``(x, y)`` positions."""
        dx = pos_a[0] - pos_b[0]
        dy = pos_a[1] - pos_b[1]
        return math.hypot(dx, dy)

    # ------------------------------------------------------------------ #
    # spatial index
    # ------------------------------------------------------------------ #
    def _reach(self) -> float:
        """The farthest distance at which a transmission has any effect."""
        return max(self.propagation.detection_range(),
                   self.propagation.nominal_range())

    def _ensure_grid(self, now: float) -> None:
        """(Re)build the uniform grid if it is absent or too stale.

        The cell size is the maximum signal reach plus a slack margin;
        every interface stays within slack metres of its indexed position
        until ``_grid_horizon``, so until then the 3×3 cell block around
        a point is guaranteed to contain every interface currently within
        reach of it.  Rebuild cost is O(N), amortised over the horizon.

        Small-field degeneration: when the field is known and a 3×3 block
        would cover it entirely (``2 * cell >= max field dimension``), no
        partition of this field can filter anything.  The index then
        collapses to a single covering cell whose candidate list is *all*
        interfaces — byte-identical candidate sets to the useless grid it
        replaces — and, because membership no longer depends on positions
        at all, the index never goes stale and is rebuilt at most once.
        """
        if self._grid_time is not None and now <= self._grid_horizon:
            return
        reach = self._reach()
        slack = max(reach * self._GRID_SLACK_FRACTION, 1e-9)
        cell = reach + slack
        field = self.field_size
        self._block_cache = {}
        if field is not None and 2.0 * cell >= max(field):
            self._single_cell = True
            self._grid = {}
            self._grid_cell_size = max(cell, field[0], field[1])
            self._grid_time = now
            self._grid_horizon = math.inf
            indices = list(range(len(self._interfaces)))
            self._all_candidates = (indices, np.array(indices, dtype=np.intp))
            self.grid_rebuilds += 1
            return
        self._single_cell = False
        self._all_candidates = None
        self._grid_cell_size = cell
        grid: Dict[Tuple[int, int], List[int]] = {}
        for index, interface in enumerate(self._interfaces):
            x, y = interface.node.position(now)
            grid.setdefault((int(x // cell), int(y // cell)), []).append(index)
        self._grid = grid
        self._grid_time = now
        if self.max_node_speed > 0:
            self._grid_horizon = now + slack / self.max_node_speed
        else:
            self._grid_horizon = math.inf
        self.grid_rebuilds += 1

    # ------------------------------------------------------------------ #
    # SoA kinematics (exact positions from the mobility segments)
    # ------------------------------------------------------------------ #
    def _build_kinematics(self, now: float) -> None:
        """Build the SoA arrays over the current interface population.

        One kinematics entry per interface — segment span and endpoints
        (scalar lists, for the bit-exact fused interpolation) plus
        origin/velocity arrays (for the vectorized prefilter) — loaded
        from each mobility model's :meth:`segment_at`.
        """
        n = len(self._interfaces)
        self._kin_st = [0.0] * n
        self._kin_et = [0.0] * n
        self._kin_sx = [0.0] * n
        self._kin_sy = [0.0] * n
        self._kin_ex = [0.0] * n
        self._kin_ey = [0.0] * n
        self._kin_t0 = np.zeros(n)
        self._kin_ox = np.zeros(n)
        self._kin_oy = np.zeros(n)
        self._kin_vx = np.zeros(n)
        self._kin_vy = np.zeros(n)
        self._kin_et_arr = np.full(n, math.inf)
        self._kin_min_end = math.inf
        self._kin_ready = True
        for index, interface in enumerate(self._interfaces):
            mobility = interface.node.mobility
            if mobility is None:
                self._write_kin_entry(index, _ORIGIN_SEGMENT)
            else:
                self._write_kin_entry(index, mobility.segment_at(now))
        self.pos_refreshes += 1

    def _write_kin_entry(self, index: int, segment: Waypoint) -> None:
        st = segment.start_time
        et = segment.end_time
        sxp, syp = segment.start_pos
        exp_, eyp = segment.end_pos
        self._kin_st[index] = st
        self._kin_et[index] = et
        self._kin_sx[index] = sxp
        self._kin_sy[index] = syp
        self._kin_ex[index] = exp_
        self._kin_ey[index] = eyp
        self._kin_t0[index] = st
        self._kin_ox[index] = sxp
        self._kin_oy[index] = syp
        duration = et - st
        if 0.0 < duration < math.inf:
            self._kin_vx[index] = (exp_ - sxp) / duration
            self._kin_vy[index] = (eyp - syp) / duration
        else:
            self._kin_vx[index] = 0.0
            self._kin_vy[index] = 0.0
        self._kin_et_arr[index] = et
        if et < self._kin_min_end:
            self._kin_min_end = et
        self.snapshot_invalidations += 1

    def _refresh_expired(self, now: float) -> None:
        """Reload every kinematics entry whose segment span has ended.

        After this sweep every entry's segment strictly covers ``now``
        (``start <= now < end``), so the fused interpolation needs no
        end-clamp: the mobility models' trajectories tile time and
        ``segment_at(now)`` always returns the covering segment.
        """
        et_arr = self._kin_et_arr
        for index in np.flatnonzero(et_arr <= now).tolist():
            mobility = self._interfaces[index].node.mobility
            # mobility is never None here: origin entries never expire.
            self._write_kin_entry(index, mobility.segment_at(now))
        self._kin_min_end = float(et_arr.min())

    def _candidate_block(
            self, pos: Tuple[float, float]) -> Tuple[List[int], np.ndarray]:
        """Candidate interface indices around ``pos``, sorted ascending.

        A superset of every interface within reach of ``pos`` (see
        :meth:`_ensure_grid`); callers re-check exact distances.  Sorted
        by registration index so iteration (and hence event insertion)
        order matches the historical full scan exactly.  Returned as a
        ``(list, ndarray)`` pair — same indices, two representations for
        the two prefilter paths — cached per grid rebuild, so repeated
        transmissions from the same cell pay one dict lookup.
        """
        if self._single_cell:
            return self._all_candidates
        cell = self._grid_cell_size
        key = (int(pos[0] // cell), int(pos[1] // cell))
        block = self._block_cache.get(key)
        if block is None:
            cx, cy = key
            grid_get = self._grid.get
            out: List[int] = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    out.extend(grid_get((cx + dx, cy + dy), ()))
            out.sort()
            block = (out, np.array(out, dtype=np.intp))
            self._block_cache[key] = block
        return block

    def neighbors_of(self, interface: "WirelessInterface") -> List["WirelessInterface"]:
        """Interfaces currently within decode range of ``interface``.

        Used by tests and by topology inspection tools.  Answered from
        the same spatial grid the transmit path uses (with exact
        per-candidate distances), so the two can never disagree about who
        is reachable.
        """
        now = self.sim.now
        self._ensure_grid(now)
        my_index = self._interface_index[interface]
        my_pos = interface.node.position(now)
        out = []
        for index in self._candidate_block(my_pos)[0]:
            if index == my_index:
                continue
            other = self._interfaces[index]
            d = self.distance(my_pos, other.node.position(now))
            if self.propagation.in_range(d):
                out.append(other)
        return out

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def grid_stats(self) -> Dict[str, float]:
        """Occupancy / density diagnostics of the current spatial index.

        Returns a JSON-compatible dictionary covering the grid shape
        (cells used, max/mean interfaces per cell) plus the running
        candidate-set statistics of the transmit path.  All values refer
        to the most recently built grid; an empty dict's worth of zeros is
        returned before the first build.  ``mean_refined_set`` /
        ``max_refined_set`` describe what survives the vectorized
        distance prefilter — the exact per-candidate work actually done.
        """
        if self._single_cell:
            n = len(self._interfaces)
            cells_used = 1
            max_occupancy: float = n
            mean_occupancy: float = float(n)
        else:
            occupancies = [len(indices) for indices in self._grid.values()]
            cells_used = len(occupancies)
            max_occupancy = max(occupancies, default=0)
            mean_occupancy = (sum(occupancies) / cells_used
                              if cells_used else 0.0)
        return {
            "interfaces": len(self._interfaces),
            "cell_size_m": self._grid_cell_size,
            "single_cell": float(self._single_cell),
            "cells_used": cells_used,
            "max_occupancy": max_occupancy,
            "mean_occupancy": mean_occupancy,
            "grid_rebuilds": self.grid_rebuilds,
            "pos_refreshes": self.pos_refreshes,
            "transmissions": self.transmissions,
            "mean_candidate_set": (self.candidate_total / self.transmissions
                                   if self.transmissions else 0.0),
            "max_candidate_set": self.candidate_max,
            "mean_refined_set": (self.refined_total / self.transmissions
                                 if self.transmissions else 0.0),
            "max_refined_set": self.refined_max,
            # Fraction of grid-block candidates surviving the distance
            # prefilter; lower is better.
            "prefilter_hit_rate": (self.refined_total / self.candidate_total
                                   if self.candidate_total else 0.0),
            # Kinematics entry writes (builds + expiry refreshes).
            "snapshot_invalidations": float(self.snapshot_invalidations),
            # 1.0 while the SoA kinematics state is built (0.0 before the
            # first transmission and after a registration).
            "kinematics_mode": float(bool(self._kin_ready)),
        }

    # ------------------------------------------------------------------ #
    # transmission
    # ------------------------------------------------------------------ #
    def transmit(self, sender: "WirelessInterface", packet: "Packet",
                 duration: float) -> None:
        """Put ``packet`` on the air from ``sender`` for ``duration`` seconds.

        Every other interface within decode range receives a (possibly
        colliding) copy; interfaces between decode range and detection
        range only sense energy (their carrier sense goes busy) but cannot
        decode the frame.  Only decodable receptions get their own deep
        copy of the frame: a sense-only reception is never delivered to
        the MAC (the interface only reads the immutable ``uid`` / ``kind``
        fields for trace logging), so those receivers share the sender's
        packet instead of paying for a copy.

        See the module docstring for the two-stage candidate narrowing
        (grid block, then exact-kinematics distance prefilter) and why
        both stages preserve bit-for-bit results.
        """
        now = self.sim.now
        self.transmissions += 1
        # Inlined staleness checks (one compare each in the common case);
        # the _ensure_grid method would re-check the same condition.
        if self._grid_time is None or now > self._grid_horizon:
            self._ensure_grid(now)
        if not self._kin_ready:
            self._build_kinematics(now)
        elif now >= self._kin_min_end:
            self._refresh_expired(now)
        sender_index = self._interface_index[sender]
        kin_st = self._kin_st
        kin_et = self._kin_et
        kin_sx = self._kin_sx
        kin_sy = self._kin_sy
        kin_ex = self._kin_ex
        kin_ey = self._kin_ey
        # Sender position straight from its kinematics entry — same
        # frac-form interpolation Waypoint.position performs, on the same
        # segment (entries always cover now), so the result is
        # bit-identical to node.position(now) without the method chain.
        sx = kin_sx[sender_index]
        sy = kin_sy[sender_index]
        st = kin_st[sender_index]
        if now > st:
            et = kin_et[sender_index]
            if et > st:
                frac = (now - st) / (et - st)
                sx = sx + frac * (kin_ex[sender_index] - sx)
                sy = sy + frac * (kin_ey[sender_index] - sy)
        propagation = self.propagation
        detect_limit = propagation.detection_range()

        cand_list, cand_arr = self._candidate_block((sx, sy))
        n_candidates = len(cand_list)
        self.candidate_total += n_candidates
        if n_candidates > self.candidate_max:
            self.candidate_max = n_candidates

        # Stages 2+3: conservative squared-distance prefilter, then exact
        # evaluation of the survivors at the current positions (scalar
        # math, ascending registration order).  The positions are exact
        # closed forms, so the prefilter radius is the detection range
        # plus only the rounding margin (which also absorbs the ulp-level
        # divergence of the vectorized velocity-form interpolation):
        # nothing the exact evaluation would accept can be dropped.  Small
        # blocks run prefilter + exact gather as one fused Python loop,
        # large ones do the prefilter in one numpy pass.
        limit = detect_limit + self._PREFILTER_MARGIN_M
        limit2 = limit * limit
        interfaces = self._interfaces
        hypot = math.hypot
        receivers: List["WirelessInterface"] = []
        distances: List[float] = []
        add_receiver = receivers.append
        add_distance = distances.append
        if n_candidates < self._KIN_PREFILTER_VECTOR_MIN:
            # The interpolation reproduces Waypoint.position's float-op
            # order exactly (clamp at the segment start, frac form);
            # entries always cover now (see _refresh_expired), so the
            # end-clamp is unreachable.  dx/dy feed both the squared
            # prefilter and math.hypot, eliminating every per-receiver
            # node.position() call.
            n_refined = 0
            for index in cand_list:
                x = kin_sx[index]
                y = kin_sy[index]
                st = kin_st[index]
                if now > st:
                    et = kin_et[index]
                    if et > st:
                        frac = (now - st) / (et - st)
                        x = x + frac * (kin_ex[index] - x)
                        y = y + frac * (kin_ey[index] - y)
                dx = x - sx
                dy = y - sy
                if dx * dx + dy * dy > limit2:
                    continue
                n_refined += 1
                if index == sender_index:
                    continue
                d = hypot(dx, dy)
                if d > detect_limit:
                    continue
                add_receiver(interfaces[index])
                add_distance(d)
        else:
            # Vectorized prefilter on the velocity form (origin + velocity
            # * elapsed).  It differs from the frac form by ulps at most —
            # absorbed by the prefilter margin — and the survivors are
            # re-evaluated exactly below.  The interpolation runs over the
            # whole population (cheap elementwise ops) so the candidate
            # gather is one fancy index instead of five.
            dt = now - self._kin_t0
            px = self._kin_ox + self._kin_vx * dt
            py = self._kin_oy + self._kin_vy * dt
            if self._single_cell:
                dx = px - sx
                dy = py - sy
                survivors = np.flatnonzero(dx * dx + dy * dy
                                           <= limit2).tolist()
            else:
                dx = px[cand_arr] - sx
                dy = py[cand_arr] - sy
                survivors = cand_arr[dx * dx + dy * dy <= limit2].tolist()
            n_refined = len(survivors)
            for index in survivors:
                if index == sender_index:
                    continue
                x = kin_sx[index]
                y = kin_sy[index]
                st = kin_st[index]
                if now > st:
                    et = kin_et[index]
                    if et > st:
                        frac = (now - st) / (et - st)
                        x = x + frac * (kin_ex[index] - x)
                        y = y + frac * (kin_ey[index] - y)
                d = hypot(x - sx, y - sy)
                if d > detect_limit:
                    continue
                add_receiver(interfaces[index])
                add_distance(d)
        self.refined_total += n_refined
        if n_refined > self.refined_max:
            self.refined_max = n_refined
        n_receivers = len(receivers)
        if n_receivers == 0:
            return

        rng = self._prop_rng
        if rng is None:
            rng = self._prop_rng = self.sim.rng("propagation")
        sender_id = sender.node.node_id
        # Control frames are read-only at every receiver, so all of them
        # can share the sender's object (see _SHARED_RX_KINDS); the copy
        # bound below is then never called.
        shared = packet.kind in _SHARED_RX_KINDS
        packet_copy = packet.copy

        # Stage 4: reception decision + delay, batched through the model's
        # vectorized entry points when it provides them and the set is big
        # enough to amortise the numpy round-trip; scalar loop otherwise
        # (also the fallback for models without ``in_range_many``, e.g.
        # third-party registry components).  Both orders of RNG use are
        # identical: decisions happen in ascending registration order, one
        # per in-detection-range receiver.  All receptions of one
        # transmission go to the heap as a single grouped entry
        # (schedule_fire_many) that fans out in exactly the order the
        # per-receiver schedule_fire loop would have produced.
        items: List[Tuple[float, Callable[..., None], tuple]] = []
        add_item = items.append
        in_range_many = getattr(propagation, "in_range_many", None)
        if (in_range_many is None
                or n_receivers < self._VECTOR_MIN_RECEIVERS):
            in_range = propagation.in_range
            prop_delay = propagation.delay
            for receiver, d in zip(receivers, distances):
                decodable = in_range(d, rng)
                # Copy per decodable receiver so header mutations at one
                # receiver never alias another receiver's view.
                frame = (packet_copy() if decodable and not shared
                         else packet)
                add_item((prop_delay(d), receiver.begin_reception,
                          (frame, duration, decodable, sender_id)))
        else:
            distance_arr = np.array(distances)
            decodable_flags = in_range_many(distance_arr, rng).tolist()
            delays = propagation.delay_many(distance_arr).tolist()
            for receiver, decodable, delay in zip(receivers,
                                                  decodable_flags, delays):
                frame = (packet_copy() if decodable and not shared
                         else packet)
                add_item((delay, receiver.begin_reception,
                          (frame, duration, decodable, sender_id)))
        self.sim.schedule_fire_many(items)
