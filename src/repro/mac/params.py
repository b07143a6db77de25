"""IEEE 802.11b DCF timing and rate parameters.

Values follow the 802.11b standard (long preamble) and NS-2's defaults for
the CMU wireless extensions.  Everything is configurable so tests can use
exaggerated values (e.g. huge slot times) to make contention observable.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class MacParams:
    """Timing/rate parameter set for the DCF MAC.

    Attributes
    ----------
    slot_time:
        Backoff slot duration in seconds (802.11b: 20 µs).
    sifs:
        Short interframe space (10 µs).
    difs:
        DCF interframe space (SIFS + 2 × slot = 50 µs).
    cw_min, cw_max:
        Contention window bounds (31 / 1023 slots).
    data_rate:
        Payload bit rate for unicast data frames (2 Mb/s — NS-2's historic
        802.11 default, which the paper's throughput figures reflect;
        set to 11e6 for full-rate 802.11b).
    basic_rate:
        Bit rate used for broadcast frames and MAC ACKs (1 Mb/s).
    phy_overhead:
        PHY preamble + PLCP header duration in seconds (192 µs, long
        preamble).
    mac_header_bytes:
        MAC framing overhead added to every frame.
    ack_size:
        MAC ACK frame size in bytes.
    retry_limit:
        Maximum number of transmission attempts for a unicast frame before
        the packet is dropped and the routing layer is told the link failed
        (NS-2 long-retry default is 4; 7 is the short-retry default).
    ack_timeout_guard:
        Extra slack added to the ACK timeout beyond SIFS + ACK duration.
    use_rts_cts:
        Enable the RTS/CTS virtual-carrier-sense handshake for unicast
        data frames larger than ``rts_threshold`` bytes.  NS-2's CMU
        wireless MAC runs with RTS/CTS on for data packets, which is what
        keeps hidden-terminal losses (and hence spurious link-failure
        signals to the routing layer) rare; the paper's simulations
        inherit that default.
    rts_threshold:
        Unicast frames strictly larger than this use RTS/CTS (0 = all).
    rts_size, cts_size:
        RTS/CTS frame sizes in bytes.
    """

    slot_time: float = 20e-6
    sifs: float = 10e-6
    difs: float = 50e-6
    cw_min: int = 31
    cw_max: int = 1023
    data_rate: float = 2e6
    basic_rate: float = 1e6
    phy_overhead: float = 192e-6
    mac_header_bytes: int = 34
    ack_size: int = 14
    retry_limit: int = 7
    ack_timeout_guard: float = 60e-6
    use_rts_cts: bool = True
    rts_threshold: int = 0
    rts_size: int = 20
    cts_size: int = 14

    def __post_init__(self) -> None:
        if self.slot_time <= 0 or self.sifs <= 0 or self.difs <= 0:
            raise ValueError("MAC timing parameters must be positive")
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise ValueError("invalid contention window bounds")
        if self.data_rate <= 0 or self.basic_rate <= 0:
            raise ValueError("bit rates must be positive")
        if self.retry_limit < 1:
            raise ValueError("retry limit must be at least 1")

    # ------------------------------------------------------------------ #
    # derived durations
    # ------------------------------------------------------------------ #
    def frame_duration(self, size_bytes: int, broadcast: bool = False) -> float:
        """Airtime of a frame of ``size_bytes`` payload+headers.

        Broadcast frames (and anything else sent at the basic rate) use
        ``basic_rate``; unicast data uses ``data_rate``.  The PHY preamble
        and MAC framing overhead are added on top.
        """
        rate = self.basic_rate if broadcast else self.data_rate
        bits = 8 * (size_bytes + self.mac_header_bytes)
        return self.phy_overhead + bits / rate

    def ack_duration(self) -> float:
        """Airtime of a MAC ACK frame (sent at the basic rate)."""
        return self.phy_overhead + 8 * self.ack_size / self.basic_rate

    def ack_timeout(self) -> float:
        """How long a sender waits for the MAC ACK before retrying."""
        return self.sifs + self.ack_duration() + self.ack_timeout_guard

    def rts_duration(self) -> float:
        """Airtime of an RTS frame (sent at the basic rate)."""
        return self.phy_overhead + 8 * self.rts_size / self.basic_rate

    def cts_duration(self) -> float:
        """Airtime of a CTS frame (sent at the basic rate)."""
        return self.phy_overhead + 8 * self.cts_size / self.basic_rate

    def cts_timeout(self) -> float:
        """How long an RTS sender waits for the CTS before retrying."""
        return self.sifs + self.cts_duration() + self.ack_timeout_guard

    def needs_rts(self, size_bytes: int, broadcast: bool) -> bool:
        """Whether a frame of ``size_bytes`` should use the RTS/CTS handshake."""
        return (self.use_rts_cts and not broadcast
                and size_bytes > self.rts_threshold)

    def nav_for_rts(self, data_size_bytes: int) -> float:
        """NAV duration advertised by an RTS: CTS + DATA + ACK + 3×SIFS."""
        return (3 * self.sifs + self.cts_duration()
                + self.frame_duration(data_size_bytes) + self.ack_duration())

    def nav_for_cts(self, data_size_bytes: int) -> float:
        """NAV duration advertised by a CTS: DATA + ACK + 2×SIFS."""
        return (2 * self.sifs + self.frame_duration(data_size_bytes)
                + self.ack_duration())
