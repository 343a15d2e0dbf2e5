import math
import random
from fractions import Fraction
from functools import partial
from itertools import accumulate

import pytest
from conftest import log_recorder
from hypothesis import assume, example, given, settings, strategies as st

from subpace.engine import MS, SEC, US, Engine, transmission_time_ns
from subpace.netpath import (
    DROPPED, MARKED, QUEUED, AqmLink, Packet, link_problem, target_backlog,
)


def make_link(engine, delivered, policy="ramp-mark", capacity=40_000_000,
              buffer_limit=200_000, target=5 * MS, ceiling=6 * MS):
    return AqmLink(
        engine,
        capacity_bps=capacity,
        buffer_limit=buffer_limit,
        policy=policy,
        target_delay_ns=target,
        ramp_ceiling_ns=ceiling,
        prop_rtt_ns=1 * MS,
        max_frame=1518,
        deliver=[delivered.append],
    )


def frame(seq=0, size=1518, ecn=True):
    return Packet(flow_id=0, seq_bytes=seq, size=size, ecn_capable=ecn)


def test_serialization_time_oracle():
    # 1518 B at 40 Mb/s serializes in exactly 303,600 ns.
    engine = Engine()
    delivered = []
    link = make_link(engine, delivered, policy="drop-tail")
    log = log_recorder(engine)
    link.enqueue(frame())
    engine.run_until(10 * MS)
    link.retire(engine.now)
    assert log.of("departure")[0][0] == 303_600


def test_queue_delay_oracles():
    engine = Engine()
    link = make_link(engine, [], policy="drop-tail")
    assert link.queue_delay() == 0
    link.backlog = 30_000
    assert link.queue_delay() == 6 * MS  # 30000*8/40e6 s
    link.backlog = 15_000
    assert link.queue_delay() == 3 * MS


def test_below_target_queued_unmarked():
    engine = Engine()
    delivered = []
    link = make_link(engine, delivered)
    assert link.enqueue(frame()) == QUEUED
    engine.run_until(10 * MS)
    assert delivered and not any(p.ce_marked for p in delivered)


def test_at_ceiling_ecn_packet_marked():
    engine = Engine()
    link = make_link(engine, [])
    link.backlog = 31_000  # 6.2 ms worth: beyond the ceiling, probability 1
    assert link.enqueue(frame(ecn=True)) == MARKED


def test_at_ceiling_non_ecn_packet_dropped_under_ramp_mark():
    engine = Engine()
    link = make_link(engine, [])
    link.backlog = 31_000
    assert link.enqueue(frame(ecn=False)) == DROPPED


def test_at_ceiling_red_drop_drops_even_ecn():
    engine = Engine()
    link = make_link(engine, [], policy="red-drop")
    link.backlog = 31_000
    assert link.enqueue(frame(ecn=True)) == DROPPED


def test_full_buffer_drops_under_every_policy():
    for policy in ("drop-tail", "red-drop", "ramp-mark"):
        engine = Engine()
        link = make_link(engine, [], policy=policy)
        link.backlog = link.buffer_limit
        assert link.enqueue(frame()) == DROPPED


def test_fifo_departure_order():
    engine = Engine()
    delivered = []
    link = make_link(engine, delivered, policy="drop-tail")
    link.enqueue(frame(seq=0))
    link.enqueue(frame(seq=1460))
    engine.run_until(10 * MS)
    assert [p.seq_bytes for p in delivered] == [0, 1460]


def test_work_conservation_no_idle_gap():
    engine = Engine()
    delivered = []
    link = make_link(engine, delivered, policy="drop-tail")
    log = log_recorder(engine)
    link.enqueue(frame())
    link.enqueue(frame(seq=1460))
    engine.run_until(10 * MS)
    link.retire(engine.now)
    first, second = log.of("departure")[0][0], log.of("departure")[1][0]
    assert second - first == 303_600  # back to back, link never idle


def test_signal_probability_monotone_in_delay():
    engine = Engine()
    link = make_link(engine, [])
    probs = []
    for backlog in range(0, 40_000, 500):
        link.backlog = backlog
        probs.append(link.signal_probability())
    assert probs == sorted(probs)
    assert probs[0] == 0.0
    assert probs[-1] == 1.0


def test_ramp_mark_never_drops_ecn_below_buffer_limit():
    engine = Engine()
    delivered = []
    link = make_link(engine, delivered)
    log = log_recorder(engine)
    sent = 0
    for i in range(300):
        if link.backlog + 1518 <= link.buffer_limit:
            assert link.enqueue(frame(seq=i * 1460)) in (QUEUED, MARKED)
            sent += 1
    assert sent > 0 and not log.of("drop")


def test_buffer_must_exceed_target_equivalent():
    engine = Engine()
    with pytest.raises(ValueError):
        AqmLink(
            engine,
            capacity_bps=40_000_000,
            buffer_limit=25_000,  # exactly the 5 ms byte equivalent
            policy="ramp-mark",
            target_delay_ns=5 * MS,
            ramp_ceiling_ns=10 * MS,
            prop_rtt_ns=1 * MS,
            max_frame=1518,
            deliver=[lambda p: None],
        )


def test_packet_validation():
    engine = Engine()
    link = make_link(engine, [])
    with pytest.raises(ValueError):
        link.enqueue(Packet(flow_id=0, seq_bytes=0, size=0))
    with pytest.raises(ValueError):
        link.enqueue(Packet(flow_id=0, seq_bytes=0, size=100, ecn_capable=False, ce_marked=True))
    with pytest.raises(ValueError):
        link.enqueue(frame(size=1519))


@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from([400, 900, 1518]), min_size=1, max_size=120),
       st.integers(min_value=0, max_value=2**31))
def test_byte_conservation(sizes, seed):
    engine = Engine(seed=seed)
    delivered = []
    link = make_link(engine, delivered, buffer_limit=30_000, ceiling=7 * MS)
    log = log_recorder(engine)
    offset, dropped = 0, []
    for size in sizes:
        packet = Packet(flow_id=0, seq_bytes=offset, size=size, ecn_capable=False)
        if link.enqueue(packet) == DROPPED:
            dropped.append(size)
        offset += size
    engine.run_until(1_000 * MS)
    link.retire(engine.now)
    steps = [row[-1] for row in log.rows if row[0] in ("backlog", "departure")]
    enqueued = sum(max(0, b - a) for a, b in zip([0] + steps, steps))  # each admit is a rise
    departed = sum(size for _, _, size, _ in log.of("departure"))
    assert enqueued == departed + link.backlog
    assert enqueued + sum(dropped) == sum(sizes)
    assert link.backlog == 0  # fully drained by now
    assert len(log.of("drop")) == len(dropped)
    assert sum(p.size for p in delivered) == departed


@given(
    st.integers(min_value=1_000, max_value=10**11),
    st.integers(min_value=0, max_value=SEC),
    st.integers(min_value=0, max_value=10**9),
)
# Capacities that put a backlog's delay exactly on a half nanosecond, where rounding decides.
@example(16 * SEC, 0, 0)
@example(16 * SEC + 1, 0, 0)
@example(16 * SEC // 3, 1, 0)
def test_signal_probability_is_zero_exactly_up_to_the_target_backlog(capacity, target, anywhere):
    buffer_limit = target_backlog(capacity, target) + 2_000
    link = make_link(Engine(), [], capacity=capacity, buffer_limit=buffer_limit,
                     target=target, ceiling=target + MS)
    edge = link.target_backlog
    for backlog in (max(0, edge - 1), edge, edge + 1, anywhere):
        link.backlog = backlog
        quiet = backlog <= edge
        assert (link.signal_probability() == 0.0) == quiet
        assert (link.queue_delay() <= target) == quiet


@given(
    st.integers(min_value=1_000, max_value=10**11),
    st.integers(min_value=1, max_value=SEC),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=1518, max_value=10**9),
)
# 40 Gb/s, 5 ms: T*C/8e9 is 25,000,000 B, but the AQM is quiet up to 25,000,002 B.
@example(40_000_000_000, 5 * MS, -1, 1518)
def test_link_problem_rejects_a_buffer_exactly_up_to_the_target_backlog(capacity, target, near,
                                                                      anywhere):
    edge = target_backlog(capacity, target)
    for buffer_limit in (max(1518, edge + near), anywhere):
        problem = link_problem("ramp-mark", capacity, buffer_limit, target, 2 * target, MS, 1518)
        assert (problem is not None and problem[0] == "buffer_limit") == (buffer_limit <= edge)


@pytest.mark.parametrize("policy", ["red-drop", "ramp-mark"])
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=16))
def test_enqueues_below_the_target_draw_the_aqm_stream_once_each(policy, seed, n):
    link = make_link(Engine(seed), [], policy=policy)
    for i in range(n):
        assert link.backlog <= link.target_backlog
        assert link.enqueue(frame(seq=i * 1518)) == QUEUED
    reference = random.Random(f"{seed}:aqm/0")
    for _ in range(n):
        reference.random()
    assert link.rng.getstate() == reference.getstate()


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
        self.engine.schedule(departs, self._depart, tag="link.depart")

    def _depart(self):
        now = self.engine.now
        packet = self._fifo.popleft()
        self.backlog -= packet.size
        self.engine.recorder.departure(now, packet.flow_id, packet.size, self.backlog)
        self.engine.schedule(now + self.prop_one_way_ns,
                             partial(self.deliver[packet.flow_id], packet), tag="link.deliver")
        if self._fifo:
            self._start_service()


def run_arrival_plan(link_cls, policy, seed, plan, capacity=40_000_000):
    """Dispositions, recorder rows and deliveries (time, seq, ce_marked) of one link
    fed `plan`, a list of (gap before the arrival in ns, frame size, ecn_capable)."""
    engine = Engine(seed)
    delivered = []
    record = lambda p: delivered.append((engine.now, p.seq_bytes, p.ce_marked))  # noqa: E731
    link = link_cls(engine, capacity_bps=capacity, buffer_limit=4_000, policy=policy,
                    target_delay_ns=MS // 4, ramp_ceiling_ns=MS // 2, prop_rtt_ns=MS,
                    max_frame=1518, deliver=[record] * 3)
    log = log_recorder(engine)
    dispositions, now = [], 0
    for i, (gap, size, ecn) in enumerate(plan):
        now += gap
        packet = Packet(flow_id=i % 3, seq_bytes=i, size=size, ecn_capable=ecn)
        engine.schedule(now, lambda p=packet: dispositions.append(link.enqueue(p)))
    engine.run_until(now + SEC)
    link.retire(engine.now)
    return dispositions, log.rows, delivered


@pytest.mark.parametrize("policy", ["drop-tail", "red-drop", "ramp-mark"])
@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=2**31),
       st.lists(st.tuples(st.integers(min_value=0, max_value=300_000),
                          st.sampled_from([64, 400, 900, 1518]), st.booleans()),
                min_size=1, max_size=60),
       # 40 Mb/s serializes every size in whole ns; 33,333,333 b/s in none.
       st.sampled_from([40_000_000, 33_333_333]))
def test_departure_free_link_matches_the_event_driven_link(policy, seed, plan, capacity):
    reference = run_arrival_plan(EventLink, policy, seed, plan, capacity)
    arrivals = set(accumulate(gap for gap, _, _ in plan))
    departures = {row[1] for row in reference[1] if row[0] == "departure"}
    assume(not arrivals & departures)  # no arrival lands on a departure time
    assert run_arrival_plan(AqmLink, policy, seed, plan, capacity) == reference


@pytest.mark.parametrize("policy", ["drop-tail", "red-drop", "ramp-mark"])
def test_each_admitted_frame_makes_one_backlog_call_and_each_retired_frame_one_departure(policy):
    draw = random.Random(policy)
    plan = [(draw.randrange(0, 400_000), draw.choice([64, 900, 1518]), draw.random() < 0.5)
            for _ in range(300)]
    dispositions, rows, _ = run_arrival_plan(AqmLink, policy, 7, plan)
    admitted = sum(d != DROPPED for d in dispositions)
    assert 0 < admitted < len(plan) or policy == "drop-tail"
    kinds = [row[0] for row in rows]
    assert kinds.count("backlog") == kinds.count("departure") == admitted
    assert kinds.count("drop") == len(plan) - admitted
    backlog = 0
    for row in rows:  # each call carries the backlog its frame leaves behind
        if row[0] == "backlog":
            backlog = row[2]
        elif row[0] == "departure":
            backlog -= row[3]
            assert row[4] == backlog


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=10**6, max_value=10**11), st.integers(min_value=64, max_value=1518))
@example(10_000_000_000, 1518)  # 1214.4 ns a frame; whole-ns frames carried 1.00033 x capacity
def test_back_to_back_frames_depart_within_one_frame_of_the_capacity(capacity, size):
    engine, frames = Engine(), 5_000
    link = AqmLink(engine, capacity_bps=capacity, buffer_limit=frames * size, policy="drop-tail",
                   target_delay_ns=1, ramp_ceiling_ns=2, prop_rtt_ns=MS, max_frame=size,
                   deliver=[lambda p: None])
    log = log_recorder(engine)
    for i in range(frames):
        assert link.enqueue(Packet(flow_id=0, seq_bytes=i * size, size=size)) == QUEUED
    link.retire(10**12)
    departures = log.of("departure")
    assert len(departures) == frames
    # Bytes departed by T, against C*T/8, all scaled by 8e9: at each departure time and
    # the nanosecond before it, where the departed bytes are furthest below and above.
    frame_bits_ns, departed = size * 8 * SEC, 0
    for t, _, _, _ in departures:
        assert capacity * (t - 1) - departed * 8 * SEC <= frame_bits_ns
        departed += size
        assert abs(departed * 8 * SEC - capacity * t) <= frame_bits_ns


def test_a_frame_departing_at_the_arrival_nanosecond_still_counts_as_queued():
    # Three 1518 B frames admitted at t = 0 depart at 303,600 and 607,200 ns and later;
    # at 607,200 ns the first is retired, the second still counts.
    for arrival, disposition in ((303_600, DROPPED), (303_601, QUEUED), (607_200, QUEUED)):
        engine = Engine()
        link = make_link(engine, [], policy="drop-tail", buffer_limit=6_000, target=MS,
                         ceiling=2 * MS)
        for i in range(3):
            assert link.enqueue(frame(seq=i * 1460)) == QUEUED
        engine.run_until(arrival)
        assert link.enqueue(frame(seq=3 * 1460)) == disposition
        assert link.backlog == 4554  # three frames, or two plus the new one


def test_frames_arriving_as_the_one_before_departs_follow_lindley_on_exact_times():
    # At 10 Gb/s a 1518 B frame takes 1214.4 ns.  Each frame arrives at the rounded
    # departure of the one before: the link is still busy when that frame's exact
    # finish is later, and has been idle since it when it is earlier.
    engine = Engine()
    link = make_link(engine, [], policy="drop-tail", capacity=10**10, target=US, ceiling=2 * US)
    log = log_recorder(engine)
    finish, arrival, expected = Fraction(0), 0, []
    for _ in range(200):
        engine.run_until(arrival)
        assert link.enqueue(frame()) == QUEUED
        finish = max(Fraction(arrival), finish) + Fraction(1518 * 8, 10)
        arrival = math.floor(finish + Fraction(1, 2))
        expected.append(arrival)
    link.retire(arrival)
    assert [row[0] for row in log.of("departure")] == expected
