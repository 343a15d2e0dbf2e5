"""Wire a scenario into a runnable simulation and measure the outcome.

A simulation owns one engine, one bottleneck link, and n sender/receiver
pairs doing bulk transfers.  ACKs return over a signal-free path, the rest
of the round-trip propagation delay; it can be black-holed mid-run to study
timer behaviour under total loss of feedback.  Metrics are computed over
[warmup, duration] and are deterministic for a fixed (config, seed) pair.
"""

import os
from collections import defaultdict
from dataclasses import dataclass
from functools import partial

from .analysis import jain_fairness
from .config import ScenarioConfig, parse_field_value, with_value
from .endpoint import DEFAULT_TUNING, Ack, TcpReceiver, TcpSender, Tuning
from .engine import NS_PER_SEC, Engine, Recorder, transmission_time_ns
from .netpath import AqmLink

BULK_BYTES = 1 << 40  # effectively unbounded for desk-scale runs


@dataclass
class ScenarioMetrics:
    mean_queue_delay_ns: int
    p95_queue_delay_ns: int
    per_flow_throughput_bps: list[float]
    jain_fairness: float
    total_drops: int
    total_marks: int
    total_rtos: int
    mean_pkts_per_rtt_per_flow: float

    @property
    def total_throughput_bps(self) -> float:
        return sum(self.per_flow_throughput_bps)


class Meter(Recorder):
    """Running sums over the window (start, end]; memory stays flat as runs grow.

    Departures, drops, marks and RTOs count when start < t <= end.  The queue
    is a {backlog_bytes: ns} histogram opened by the backlog in force at
    `start`; steps at or after `end`, a departure's included, are ignored.
    """

    def __init__(self, start: int, end: int, n_flows: int):
        self.start, self.end = start, end
        self.flow_bytes = [0] * n_flows
        self.packets = self.drops = self.marks = self.rtos = 0
        self.backlog_ns: dict[int, int] = defaultdict(int)
        self._step_t, self._step_backlog = start, 0  # backlog in force since _step_t

    def backlog(self, now: int, backlog: int) -> None:
        if now < self.end:
            if now > self._step_t:
                self.backlog_ns[self._step_backlog] += now - self._step_t
                self._step_t = now
            self._step_backlog = backlog

    def departure(self, now: int, flow_id: int, size: int, backlog: int) -> None:
        if now < self.end:  # the step, as `backlog` takes it, without a second call
            if now > self._step_t:
                self.backlog_ns[self._step_backlog] += now - self._step_t
                self._step_t = now
            self._step_backlog = backlog
        if self.start < now <= self.end:
            self.flow_bytes[flow_id] += size
            self.packets += 1

    def drop(self, now: int) -> None:
        if self.start < now <= self.end:
            self.drops += 1

    def mark(self, now: int) -> None:
        if self.start < now <= self.end:
            self.marks += 1

    def rto(self, now: int, flow_id: int) -> None:
        if self.start < now <= self.end:
            self.rtos += 1

    def queue_delay_stats(self, capacity_bps: int) -> tuple[int, int]:
        """Time-weighted mean and 95th percentile of queue delay, in ns.

        The last backlog is held until `end` in a copy, so reads can happen
        mid-run.  Delay grows with backlog, so the p95 is the first backlog
        whose running time reaches 95% of the window.
        """
        total = self.end - self.start
        held = dict(self.backlog_ns)
        held[self._step_backlog] = held.get(self._step_backlog, 0) + self.end - self._step_t
        delays = {b: transmission_time_ns(b * 8, capacity_bps) for b in held}
        mean = round(sum(delays[b] * ns for b, ns in held.items()) / total)
        cutoff, seen = 0.95 * total, 0
        for backlog in sorted(held):
            seen += held[backlog]
            if seen >= cutoff:
                break
        return mean, delays[backlog]


class Simulation:
    def __init__(self, cfg: ScenarioConfig, tuning: Tuning = DEFAULT_TUNING):
        self.cfg = cfg
        self.engine = Engine(seed=cfg.seed)
        self.engine.recorder = self.meter = Meter(cfg.warmup, cfg.duration, cfg.n_flows)
        self.ack_blackhole = False
        self._started = False

        self.receivers = [
            TcpReceiver(
                self.engine,
                flow_id=i,
                frame_overhead=cfg.frame_overhead,
                send_ack=self._return_ack,
                delayed_acks=cfg.delayed_acks,
            )
            for i in range(cfg.n_flows)
        ]
        self.link = AqmLink(
            self.engine,
            capacity_bps=cfg.capacity,
            buffer_limit=cfg.buffer_limit,
            policy=cfg.aqm_policy,
            target_delay_ns=cfg.aqm_target,
            ramp_ceiling_ns=cfg.aqm_ceiling,
            prop_rtt_ns=cfg.base_rtt,
            max_frame=cfg.frame_size,
            deliver=[receiver.on_segment for receiver in self.receivers],
        )
        self.ack_delay_ns = cfg.base_rtt - self.link.prop_one_way_ns  # the rest of the round trip
        self.senders = [
            TcpSender(
                self.engine,
                flow_id=i,
                mss=cfg.smss,
                frame_overhead=cfg.frame_overhead,
                mode=cfg.sender_mode,
                cc_variant=cfg.cc_variant,
                ecn_capable=cfg.ecn,
                w_min=cfg.w_min_bytes,
                transmit=self.link.enqueue,
                tuning=tuning,
            )
            for i in range(cfg.n_flows)
        ]

    def _return_ack(self, ack: Ack) -> None:
        if not self.ack_blackhole:
            self.engine.schedule(
                self.engine.now + self.ack_delay_ns,
                partial(self.senders[ack.flow_id].on_ack, ack),
                tag="ack.deliver",
            )

    def run(self, until: int | None = None) -> "Simulation":
        """Advance to `until` (default: the duration) and retire departures up to it;
        the first call starts the flows at t = 0, so a recorder added after `__init__` sees them."""
        if not self._started:
            self._started = True
            for sender in self.senders:
                sender.app_write(BULK_BYTES)
        self.link.retire(self.engine.run_until(self.cfg.duration if until is None else until))
        return self

    # -- measurement ----------------------------------------------------------

    def metrics(self) -> ScenarioMetrics:
        cfg, meter = self.cfg, self.meter
        window_s = (cfg.duration - cfg.warmup) / NS_PER_SEC
        mean_qd, p95_qd = meter.queue_delay_stats(cfg.capacity)
        per_flow_bps = [b * 8 / window_s for b in meter.flow_bytes]
        mean_rtt_s = (cfg.base_rtt + mean_qd) / NS_PER_SEC
        pkts_per_rtt = meter.packets / cfg.n_flows / window_s * mean_rtt_s
        return ScenarioMetrics(
            mean_queue_delay_ns=mean_qd,
            p95_queue_delay_ns=p95_qd,
            per_flow_throughput_bps=per_flow_bps,
            jain_fairness=jain_fairness(per_flow_bps),
            total_drops=meter.drops,
            total_marks=meter.marks,
            total_rtos=meter.rtos,
            mean_pkts_per_rtt_per_flow=pkts_per_rtt,
        )


def run_scenario(cfg: ScenarioConfig) -> ScenarioMetrics:
    return Simulation(cfg).run().metrics()


def derive_sweep_seed(base_seed: int, index: int) -> int:
    return base_seed * 1_000_003 + index


def sweep(cfg: ScenarioConfig, field_name: str, raw_values) -> list[tuple[str, ScenarioMetrics]]:
    """Run one scenario per value, each with its own seed; rows in input order.

    Every value is parsed and every row's config built before any row runs,
    so a bad value fails at once.  The rows then run in worker processes, one
    per row and at most one per CPU.
    """
    raw_values = list(raw_values)
    configs = []
    for index, raw in enumerate(raw_values):
        run_cfg = with_value(cfg, field_name, parse_field_value(field_name, raw))
        if field_name != "seed":
            run_cfg = with_value(run_cfg, "seed", derive_sweep_seed(cfg.seed, index))
        configs.append(run_cfg)
    # Imported here, not at the top: it takes about 25 ms, near the package's own import time.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max(1, min(len(configs), os.cpu_count() or 1))) as pool:
        return list(zip(raw_values, pool.map(run_scenario, configs)))


# -- CSV rendering ------------------------------------------------------------

METRIC_COLUMNS = (
    "mean_queue_delay_ns",
    "p95_queue_delay_ns",
    "throughput_bps_total",
    "throughput_bps_min",
    "throughput_bps_max",
    "jain_fairness",
    "total_drops",
    "total_marks",
    "total_rtos",
    "mean_pkts_per_rtt_per_flow",
)


def _real(x: float) -> str:
    return f"{x:.6g}"


def _metric_cells(m: ScenarioMetrics) -> list[str]:
    per_flow = m.per_flow_throughput_bps or [0.0]
    return [
        str(m.mean_queue_delay_ns),
        str(m.p95_queue_delay_ns),
        _real(m.total_throughput_bps),
        _real(min(per_flow)),
        _real(max(per_flow)),
        _real(m.jain_fairness),
        str(m.total_drops),
        str(m.total_marks),
        str(m.total_rtos),
        _real(m.mean_pkts_per_rtt_per_flow),
    ]


def render_metrics_csv(m: ScenarioMetrics) -> str:
    return ",".join(METRIC_COLUMNS) + "\n" + ",".join(_metric_cells(m)) + "\n"


def render_sweep_csv(field_name: str, rows) -> str:
    out = [field_name + "," + ",".join(METRIC_COLUMNS)]
    for raw, metrics in rows:
        out.append(raw + "," + ",".join(_metric_cells(metrics)))
    return "\n".join(out) + "\n"


def render_regions_csv(rows) -> str:
    out = ["rtt_ns,rate_bps,window_mss,diagonal"]
    for rtt_ns, rate, window, diagonal in rows:
        out.append(f"{rtt_ns},{_real(rate)},{_real(window)},{diagonal}")
    return "\n".join(out) + "\n"
