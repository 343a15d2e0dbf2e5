import random
from functools import partial
from itertools import accumulate

import pytest
from conftest import log_recorder
from hypothesis import assume, example, given, settings, strategies as st

from subpace.engine import MS, SEC, Engine, transmission_time_ns
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
        deliver=delivered.append,
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
            deliver=lambda p: None,
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
    steps = [backlog for _, backlog in log.of("backlog")]
    enqueued = sum(max(0, b - a) for a, b in zip([0] + steps, steps))  # each admit is a rise
    departed = sum(size for _, _, size in log.of("departure"))
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
    retires each frame when it finishes serializing."""

    def retire(self, through):
        pass

    def _admit(self, now, packet):
        self.backlog += packet.size
        self.engine.recorder.backlog(now, self.backlog)
        self._fifo.append(packet)
        if len(self._fifo) == 1:
            self._start_service(now)

    def _start_service(self, now):
        size = self._fifo[0].size
        if size not in self._serialize_ns:
            self._serialize_ns[size] = transmission_time_ns(size * 8, self.capacity_bps)
        self.engine.schedule(now + self._serialize_ns[size], self._depart, tag="link.depart")

    def _depart(self):
        now = self.engine.now
        packet = self._fifo.popleft()
        self.backlog -= packet.size
        recorder = self.engine.recorder
        recorder.backlog(now, self.backlog)
        recorder.departure(now, packet.flow_id, packet.size)
        self.engine.schedule(now + self.prop_one_way_ns, partial(self.deliver, packet),
                             tag="link.deliver")
        if self._fifo:
            self._start_service(now)


def run_arrival_plan(link_cls, policy, seed, plan):
    """Dispositions, recorder rows and deliveries (time, seq, ce_marked) of one link
    fed `plan`, a list of (gap before the arrival in ns, frame size, ecn_capable)."""
    engine = Engine(seed)
    delivered = []
    link = link_cls(engine, capacity_bps=40_000_000, buffer_limit=4_000, policy=policy,
                    target_delay_ns=MS // 4, ramp_ceiling_ns=MS // 2, prop_rtt_ns=MS,
                    max_frame=1518,
                    deliver=lambda p: delivered.append((engine.now, p.seq_bytes, p.ce_marked)))
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
                min_size=1, max_size=60))
def test_departure_free_link_matches_the_event_driven_link(policy, seed, plan):
    reference = run_arrival_plan(EventLink, policy, seed, plan)
    arrivals = set(accumulate(gap for gap, _, _ in plan))
    departures = {row[1] for row in reference[1] if row[0] == "departure"}
    assume(not arrivals & departures)  # no arrival lands on a departure time
    assert run_arrival_plan(AqmLink, policy, seed, plan) == reference


def test_a_frame_departing_at_the_arrival_nanosecond_still_counts_as_queued():
    # The first of three 1518 B frames admitted at t = 0 departs at 303,600 ns.
    for arrival, disposition in ((303_600, DROPPED), (303_601, QUEUED)):
        engine = Engine()
        link = make_link(engine, [], policy="drop-tail", buffer_limit=6_000, target=MS,
                         ceiling=2 * MS)
        for i in range(3):
            assert link.enqueue(frame(seq=i * 1460)) == QUEUED
        engine.run_until(arrival)
        assert link.enqueue(frame(seq=3 * 1460)) == disposition
        assert link.backlog == 4554  # three frames, or two plus the new one
