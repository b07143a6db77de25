"""CBR — constant bit rate application over UDP.

Generates fixed-size datagrams at a fixed interval, the standard NS-2
``Application/Traffic/CBR`` workload.  The paper's headline experiments
use TCP, but CBR is useful for isolating routing behaviour from congestion
control (several tests and the routing-only ablation benchmark use it).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.transport.udp import UdpAgent


class CbrApplication:
    """Constant-bit-rate datagram generator.

    Parameters
    ----------
    sim:
        Simulation engine.
    udp:
        The UDP agent datagrams are sent through.
    packet_size:
        Datagram size in bytes.
    interval:
        Seconds between datagrams.
    start_time, stop_time:
        Transmission window; ``stop_time=None`` keeps sending until the
        simulation ends.
    """

    def __init__(self, sim: "Simulator", udp: "UdpAgent",
                 packet_size: int = 512, interval: float = 0.25,
                 start_time: float = 0.0, stop_time: Optional[float] = None):
        if packet_size <= 0:
            raise ValueError("packet_size must be positive")
        if interval <= 0:
            raise ValueError("interval must be positive")
        if stop_time is not None and stop_time < start_time:
            raise ValueError("stop_time must not precede start_time")
        self.sim = sim
        self.udp = udp
        self.packet_size = packet_size
        self.interval = interval
        self.start_time = start_time
        self.stop_time = stop_time
        self.packets_generated = 0
        self._running = False

        udp.node.add_application(self)
        sim.schedule_at(start_time, self._start)
        if stop_time is not None:
            sim.schedule_at(stop_time, self.stop)

    # ------------------------------------------------------------------ #
    def _start(self) -> None:
        self._running = True
        self._send_next()

    def stop(self) -> None:
        """Stop generating datagrams."""
        self._running = False

    def _send_next(self) -> None:
        if not self._running:
            return
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            self._running = False
            return
        self.udp.send(self.packet_size)
        self.packets_generated += 1
        self.sim.schedule(self.interval, self._send_next)
