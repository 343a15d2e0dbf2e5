"""Slow, obviously correct references for the simulator's optimized parts.

`EagerTimer` stands in for `engine.Timer`: every `set` schedules a fresh
entry and cancels the old one.  `EventLink` stands in for `netpath.AqmLink`:
a `link.depart` event retires each frame, and the AQM reads its ramp on every
enqueue.  `reference_queue_delay_stats` stands in for
`Meter.queue_delay_stats`: it sorts a whole backlog step log.  Tests compare
each against the part it stands in for, alone and inside a whole `Simulation`.
"""

from subpace.engine import transmission_time_ns
from subpace.netpath import MARKED, QUEUED, AqmLink


def _noop(_):
    pass


class EagerTimer:
    """Reference for `Timer`: every `set` schedules a fresh event and cancels the old one."""

    def __init__(self, engine, action, tag):
        self.engine = engine
        self.action = action
        self.tag = tag
        self.deadline = None
        self._entry = None  # the queued heap entry [at, seq, EagerTimer._fire, self]

    def set(self, at):
        entry = self.engine.schedule(at, EagerTimer._fire, self.tag)
        entry[3] = self
        if self._entry is not None:
            self._entry[2] = _noop
        self._entry = entry
        self.deadline = at

    def stop(self):
        if self._entry is not None:
            self._entry[2] = _noop
            self._entry = None
            self.deadline = None

    def _fire(self):
        self._entry = None
        self.deadline = None
        self.action()


class EventLink(AqmLink):
    """Reference for `AqmLink`: the event-driven link, whose `link.depart` event
    retires each frame when it finishes serializing, and whose AQM reads the ramp
    on every enqueue.  A frame finishes at its busy period's start plus the time
    to serialize every bit of that period so far, rounded half up."""

    def enqueue(self, packet):
        if not 0 < packet.size <= self.max_frame:
            raise ValueError(f"packet size must be in (0, {self.max_frame}] B, got {packet.size}")
        if packet.ce_marked and not packet.ecn_capable:
            raise ValueError("ce_marked requires ecn_capable")
        now = self.engine.now
        if self.backlog + packet.size > self.buffer_limit:
            return self._drop(now)
        if self.policy != "drop-tail":
            if self.rng.random() < self.signal_probability():
                if self.policy == "red-drop":
                    return self._drop(now)
                if packet.ecn_capable:
                    packet.ce_marked = True
                    self.engine.recorder.mark(now)
                    self._admit(now, packet)
                    return MARKED
                return self._drop(now)
        self._admit(now, packet)
        return QUEUED

    def retire(self, through):
        pass

    def _admit(self, now, packet):
        self.backlog += packet.size
        self.engine.recorder.backlog(now, self.backlog)
        self._fifo.append(packet)
        if len(self._fifo) == 1:  # the link was idle: a busy period starts
            self._busy_from, self._busy_bits = now, 0
            self._start_service()

    def _start_service(self):
        self._busy_bits += self._fifo[0].size * 8
        departs = self._busy_from + transmission_time_ns(self._busy_bits, self.capacity_bps)
        self.engine.schedule(departs, EventLink._depart, tag="link.depart")[3] = self

    def _depart(self):
        now = self.engine.now
        packet = self._fifo.popleft()
        self.backlog -= packet.size
        self.engine.recorder.departure(now, packet.flow_id, packet.size, self.backlog)
        self.engine.schedule(now + self.prop_one_way_ns, self.deliver[packet.flow_id],
                             tag="link.deliver")[3] = packet
        if self._fifo:
            self._start_service()


def reference_queue_delay_stats(steps, capacity_bps, start, end) -> tuple[int, int]:
    """Time-weighted mean and p95 of queue delay from a full step log (sort-based)."""
    pieces: list[tuple[int, int]] = []  # (delay_ns, duration_ns)
    prev_t, prev_backlog = start, 0
    for t, backlog in steps:
        if t <= start:
            prev_backlog = backlog
            continue
        if t >= end:
            break
        if t > prev_t:
            pieces.append((transmission_time_ns(prev_backlog * 8, capacity_bps), t - prev_t))
        prev_t, prev_backlog = t, backlog
    if prev_t < end:
        pieces.append((transmission_time_ns(prev_backlog * 8, capacity_bps), end - prev_t))
    total = end - start
    if total <= 0 or not pieces:
        return 0, 0
    mean = round(sum(delay * dur for delay, dur in pieces) / total)
    pieces.sort()
    cutoff = 0.95 * total
    seen = 0
    p95 = pieces[-1][0]
    for delay, dur in pieces:
        seen += dur
        if seen >= cutoff:
            p95 = delay
            break
    return mean, p95
