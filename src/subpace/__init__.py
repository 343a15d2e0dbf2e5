"""Discrete-event simulator of TCP flows over an AQM-managed bottleneck.

Baseline senders carry the standard two-segment window floor; sub-MSS senders
replace the floor with a paced wait of (s/W - 1)*R between segments, letting
a flow run at less than two packets per round trip while the queue stays at
the AQM's intended operating point.
"""

from .analysis import balance_rtt_ns, jain_fairness, pkt_per_rtt_floor, window_region_grid
from .config import ConfigError, ScenarioConfig, load_scenario, parse_scenario_text
from .endpoint import Ack, ProtocolError, TcpReceiver, TcpSender
from .engine import Engine, Recorder
from .netpath import AqmLink, Packet
from .pacing import Pacer, pacing_delay, segment_size
from .scenario import ScenarioMetrics, Simulation, run_scenario, sweep

__all__ = [
    "Ack",
    "AqmLink",
    "ConfigError",
    "Engine",
    "Packet",
    "Pacer",
    "ProtocolError",
    "Recorder",
    "ScenarioConfig",
    "ScenarioMetrics",
    "Simulation",
    "TcpReceiver",
    "TcpSender",
    "balance_rtt_ns",
    "jain_fairness",
    "load_scenario",
    "pacing_delay",
    "parse_scenario_text",
    "pkt_per_rtt_floor",
    "run_scenario",
    "segment_size",
    "sweep",
    "window_region_grid",
]
