"""Bottleneck path model: fixed-rate link, FIFO byte queue, delay-ramp AQM.

The queue is measured in bytes; queuing delay is recomputed exactly from the
backlog as backlog*8/capacity.  The AQM decides drop/mark at enqueue time with
probability rising linearly from the target delay to the ramp ceiling.  Each
departure is fixed at admission (Lindley's recursion on exact finish times,
each rounded half up), so the backlog falls when `retire` accounts it, not by
an event.  The forward path takes `AqmLink.prop_one_way_ns`, half the
round-trip propagation delay rounded down; the signal-free return path, the rest.
"""

from collections import deque
from dataclasses import dataclass
from functools import partial

from .engine import NS_PER_SEC, Engine, transmission_time_ns

AQM_POLICIES = ("drop-tail", "red-drop", "ramp-mark")

QUEUED = "queued"
MARKED = "queued+marked"
DROPPED = "dropped"


@dataclass(slots=True)
class Packet:
    """One simulated segment; size is the header-inclusive frame size.

    A plain record: `AqmLink.enqueue`, where packets enter the path, checks it.
    """

    flow_id: int
    seq_bytes: int
    size: int
    ecn_capable: bool = False
    ce_marked: bool = False
    is_retransmission: bool = False
    sent_at: int = 0


def target_backlog(capacity_bps: int, target_delay_ns: int) -> int:
    """The largest backlog, in bytes, whose rounded queuing delay is within the target."""
    return (capacity_bps * (2 * target_delay_ns + 1) - 1) // (16 * NS_PER_SEC)


def link_problem(
    policy: str,
    capacity_bps: int,
    buffer_limit: int,
    target_delay_ns: int,
    ramp_ceiling_ns: int,
    prop_rtt_ns: int,
    max_frame: int,
) -> tuple[str, str] | None:
    """The first scenario key that makes this AQM link unworkable and why, or None.

    The capacity and the round-trip propagation delay must be positive and the
    policy known, the buffer must hold more than `target_backlog` bytes and one
    whole frame, and a signalling policy's ramp must rise above the target.
    """
    if capacity_bps <= 0:
        return "capacity", "must be positive"
    if prop_rtt_ns <= 0:
        return "base_rtt", "must be positive"
    if policy not in AQM_POLICIES:
        return "aqm_policy", f"expected one of {', '.join(AQM_POLICIES)}, got {policy!r}"
    target_bytes = target_backlog(capacity_bps, target_delay_ns)
    if buffer_limit <= target_bytes:
        return "buffer_limit", f"must exceed the target's {target_bytes} B, got {buffer_limit} B"
    if buffer_limit < max_frame:
        return "buffer_limit", f"must hold one {max_frame} B frame, got {buffer_limit} B"
    if policy != "drop-tail" and ramp_ceiling_ns <= target_delay_ns:
        return "aqm_ceiling", f"must exceed the {target_delay_ns} ns target, got {ramp_ceiling_ns}"
    return None


class AqmLink:
    """FIFO byte queue drained at a fixed bit rate, governed by an AQM policy.

    `deliver[flow_id](packet)` is called one forward propagation delay after
    each departure, which is fixed at admission.  Backlog counts every queued byte
    including the packet in service; `retire` lowers it as departures fall due.
    """

    def __init__(
        self,
        engine: Engine,
        capacity_bps: int,
        buffer_limit: int,
        policy: str,
        target_delay_ns: int,
        ramp_ceiling_ns: int,
        prop_rtt_ns: int,
        max_frame: int,
        deliver,
    ):
        problem = link_problem(
            policy, capacity_bps, buffer_limit, target_delay_ns, ramp_ceiling_ns, prop_rtt_ns,
            max_frame,
        )
        if problem:
            raise ValueError("%s: %s" % problem)
        self.engine = engine
        self.capacity_bps = capacity_bps
        self.buffer_limit = buffer_limit
        self.policy = policy
        self.target_delay_ns = target_delay_ns
        self.ramp_ceiling_ns = ramp_ceiling_ns
        self.prop_one_way_ns = prop_rtt_ns // 2
        self.max_frame = max_frame
        self.deliver = deliver  # one callable per flow id
        self.rng = engine.stream("aqm/0")
        self.target_backlog = target_backlog(capacity_bps, target_delay_ns)

        self.backlog = 0
        self._fifo: deque[tuple[int, int, int]] = deque()  # (departs_at, flow_id, size)
        # The last admitted frame finishes serializing exactly _ahead/(2C) ns after
        # _free_at, its rounded finish; so -C <= _ahead < C.
        self._free_at = self._ahead = 0
        self._serialize: dict[int, tuple[int, int]] = {}  # frame size -> divmod(2*bits*1e9, 2C)
        self._ramp: dict[int, float] = {}  # backlog above the target -> signal_probability()

    def queue_delay(self) -> int:
        """Current queuing delay in ns, recomputed exactly from the backlog."""
        return transmission_time_ns(self.backlog * 8, self.capacity_bps)

    def signal_probability(self) -> float:
        """Linear ramp from 0 at the target delay to 1 at the ceiling."""
        if self.backlog <= self.target_backlog:
            return 0.0
        delay = self.queue_delay()
        if delay >= self.ramp_ceiling_ns:
            return 1.0
        return (delay - self.target_delay_ns) / (self.ramp_ceiling_ns - self.target_delay_ns)

    def enqueue(self, packet: Packet) -> str:
        """Admit, mark, or drop a packet; returns the disposition.  Departures
        before now are retired first: a frame that finishes serializing at this
        very nanosecond still counts as queued for this arrival."""
        size = packet.size
        if not 0 < size <= self.max_frame:
            raise ValueError(f"packet size must be in (0, {self.max_frame}] B, got {size}")
        if packet.ce_marked and not packet.ecn_capable:
            raise ValueError("ce_marked requires ecn_capable")
        now, fifo = self.engine.now, self._fifo
        if fifo and fifo[0][0] < now:
            self.retire(now - 1)
        backlog = self.backlog
        if backlog + size > self.buffer_limit:
            return self._drop(now)
        disposition = QUEUED
        if self.policy != "drop-tail":  # draws on every enqueue, signal or not
            prob = 0.0
            if backlog > self.target_backlog:
                if backlog not in self._ramp:
                    self._ramp[backlog] = self.signal_probability()
                prob = self._ramp[backlog]
            if self.rng.random() < prob:
                # red-drop drops; ramp-mark signals via CE when possible, else drops.
                if self.policy == "red-drop" or not packet.ecn_capable:
                    return self._drop(now)
                packet.ce_marked = True
                self.engine.recorder.mark(now)
                disposition = MARKED
        self.backlog = backlog = backlog + size
        self.engine.recorder.backlog(now, backlog)
        free_at, ahead = self._free_at, self._ahead
        if free_at < now or free_at == now and ahead <= 0:  # idle by now: service starts now
            free_at, ahead = now, 0
        if size not in self._serialize:
            self._serialize[size] = divmod(16 * NS_PER_SEC * size, 2 * self.capacity_bps)
        whole, part = self._serialize[size]
        ahead += part
        if ahead >= self.capacity_bps:  # the exact finish is past the half: round up
            whole, ahead = whole + 1, ahead - 2 * self.capacity_bps
        departs = free_at + whole
        self._free_at, self._ahead = departs, ahead
        fifo.append((departs, packet.flow_id, size))  # the packet is final, CE mark and all
        self.engine.schedule(departs + self.prop_one_way_ns,
                             partial(self.deliver[packet.flow_id], packet), tag="link.deliver")
        return disposition

    def retire(self, through: int) -> None:
        """Account every departure due at or before `through`, each stamped with its own time."""
        fifo, departure = self._fifo, self.engine.recorder.departure
        while fifo and fifo[0][0] <= through:
            departs, flow_id, size = fifo.popleft()
            self.backlog -= size
            departure(departs, flow_id, size, self.backlog)

    def _drop(self, now: int) -> str:
        self.engine.recorder.drop(now)
        return DROPPED
