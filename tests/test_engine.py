from collections import Counter
from contextlib import contextmanager
from functools import partial

import pytest
from conftest import examples
from hypothesis import given, settings, strategies as st
from reference import EagerTimer

from subpace.engine import (
    MS, Engine, Timer, div_round_half_up, transmission_time_ns,
)


def test_fifo_tie_break_at_equal_times():
    engine = Engine()
    order = []
    engine.schedule(5, lambda _: order.append("a"))
    engine.schedule(5, lambda _: order.append("b"))
    engine.run_until(10)
    assert order == ["a", "b"]


def test_events_delivered_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(10, lambda _: order.append(10))
    engine.schedule(3, lambda _: order.append(3))
    engine.run_until(100)
    assert order == [3, 10]


def test_cancelled_event_never_fires():
    engine = Engine()
    fired = []
    handle = Timer(engine, lambda: fired.append(1), None)
    handle.set(5)
    handle.cancel()
    engine.run_until(100)
    assert fired == []


def test_scheduling_in_the_past_fails_loudly():
    engine = Engine()
    engine.schedule(5, lambda _: None)
    engine.run_until(10)
    with pytest.raises(ValueError):
        engine.schedule(9, lambda _: None)
    with pytest.raises(ValueError, match="before current t=10"):
        engine.run_until(9)
    assert engine.now == 10


def test_run_until_clock_ends_at_deadline_with_empty_queue():
    engine = Engine()
    assert engine.run_until(100) == 100
    assert engine.now == 100


def test_run_until_delivers_only_up_to_deadline():
    engine = Engine()
    seen = []
    for t in (1, 2, 3):
        engine.schedule(t, seen.append)[3] = t
    engine.run_until(2)
    assert seen == [1, 2]
    assert engine.now == 2
    engine.run_until(3)
    assert seen == [1, 2, 3]


def test_clock_is_monotone_during_delivery():
    engine = Engine()
    observed = []
    for t in (4, 1, 9, 9, 2):
        engine.schedule(t, lambda _: observed.append(engine.now))
    engine.run_until(20)
    assert observed == sorted(observed)


def test_trace_is_identical_across_reruns():
    def run():
        engine = Engine(seed=7)
        rng = engine.stream("aqm/0")
        trace = []
        for i in range(50):
            engine.schedule(i * 3, lambda i: trace.append((engine.now, i, rng.random())))[3] = i
        engine.run_until(500)
        return trace

    assert run() == run()


def test_seeded_stream_is_reproducible_and_in_range():
    draws_a = [Engine(seed=42).stream("aqm/0").random() for _ in range(1)]
    first = Engine(seed=42).stream("aqm/0")
    second = Engine(seed=42).stream("aqm/0")
    seq_a = [first.random() for _ in range(1000)]
    seq_b = [second.random() for _ in range(1000)]
    assert seq_a == seq_b
    assert all(0.0 <= x < 1.0 for x in seq_a)
    assert draws_a[0] == seq_a[0]


def test_streams_are_independent_per_entity():
    engine = Engine(seed=1)
    stream_a, stream_b = engine.stream("aqm/0"), engine.stream("aqm/1")
    a = [stream_a.random() for _ in range(5)]
    b = [stream_b.random() for _ in range(5)]
    assert all(x != y for x, y in zip(a, b))  # draw by draw
    # A pure function of seed and key: asking again starts the same sequence over.
    again = engine.stream("aqm/0")
    assert [again.random() for _ in range(5)] == a


def test_seeded_uniform_mean_near_half():
    rng = Engine(seed=3).stream("aqm/0")
    n = 10**6
    mean = sum(rng.random() for _ in range(n)) / n
    assert abs(mean - 0.5) < 0.01


def test_timer_second_set_replaces_first():
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now), "t")
    timer.set(10)
    timer.set(7)
    assert timer.deadline == 7
    engine.run_until(100)
    assert fired == [7]


def test_timer_stop_is_idempotent_and_final():
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now), "t")
    timer.stop()
    timer.set(10)
    timer.stop()
    timer.stop()
    assert timer.deadline is None
    engine.run_until(100)
    assert fired == []


def test_timer_deadline_is_none_inside_and_after_its_action():
    engine = Engine()
    seen = []
    timer = Timer(engine, lambda: seen.append(timer.deadline), "t")
    timer.set(5)
    engine.run_until(100)
    assert seen == [None]
    assert timer.deadline is None


def test_timer_set_from_its_own_action_rearms():
    engine = Engine()
    fired = []

    def action():
        fired.append(engine.now)
        if len(fired) < 3:
            timer.set(engine.now + 10)

    timer = Timer(engine, action, "t")
    timer.set(5)
    engine.run_until(100)
    assert fired == [5, 15, 25]
    assert timer.deadline is None


def test_timer_fires_after_plain_event_scheduled_earlier_at_same_time():
    engine = Engine()
    order = []
    engine.schedule(5, lambda _: order.append("plain"))
    timer = Timer(engine, lambda: order.append("timer"), "t")
    timer.set(5)
    engine.run_until(10)
    assert order == ["plain", "timer"]


def test_timer_set_in_the_past_raises_and_keeps_the_deadline():
    engine = Engine()
    fired = []
    idle = Timer(engine, lambda: fired.append(("idle", engine.now)), "t")
    stale = Timer(engine, lambda: fired.append(("stale", engine.now)), "t")
    lazy = Timer(engine, lambda: fired.append(("lazy", engine.now)), "t")
    stale.set(40)
    stale.stop()  # its entry at 40 stays queued
    lazy.set(10)
    lazy.set(30)  # stored only; the entry at 10 queues itself again at 30
    engine.run_until(20)
    for timer, deadline in ((idle, None), (stale, None), (lazy, 30)):
        with pytest.raises(ValueError):
            timer.set(15)
        assert timer.deadline == deadline
    engine.run_until(100)
    assert fired == [("lazy", 30)]


def test_timer_later_then_earlier_set_cancels_exactly_one_entry(monkeypatch):
    cancelled = []
    cancel = Timer.cancel

    def spy(event):
        cancelled.append(event.entry[0])
        cancel(event)

    monkeypatch.setattr(Timer, "cancel", spy)
    engine = Engine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now), "t")
    timer.set(10)
    timer.set(20)
    assert cancelled == []
    timer.set(5)
    assert cancelled == [10]
    assert timer.deadline == 5
    engine.run_until(100)
    assert fired == [5]
    assert cancelled == [10]


def test_timer_set_again_after_stop_fires_after_plain_event_at_that_time():
    engine = Engine()
    order = []
    timer = Timer(engine, lambda: order.append("timer"), "t")
    timer.set(5)
    timer.stop()
    engine.schedule(5, lambda _: order.append("plain"))
    timer.set(5)
    engine.run_until(10)
    assert order == ["plain", "timer"]


N_TIMERS = 3
# One timer operation: ("set", timer, delay from now) or ("stop", timer).
timer_ops = st.one_of(
    st.tuples(st.just("set"), st.integers(0, N_TIMERS - 1), st.integers(0, 4)),
    st.tuples(st.just("stop"), st.integers(0, N_TIMERS - 1)),
)
plan_steps = st.one_of(
    timer_ops,
    # A plain event at now + delay that runs the given operations.
    st.tuples(st.just("event"), st.integers(0, 4), st.lists(timer_ops, max_size=3)),
    st.tuples(st.just("run"), st.integers(0, 5)),
)
# reactions[i][k]: the operations timer i runs on its k-th firing.
timer_reactions = st.lists(
    st.lists(st.lists(timer_ops, max_size=3), max_size=4), min_size=N_TIMERS, max_size=N_TIMERS
)


def run_timer_plan(timer_cls, steps, reactions, engine=None):
    """Firing log of (who, now) and each step's deadlines, driving timer_cls through a plan."""
    engine = Engine() if engine is None else engine
    log, deadlines = [], []
    firings = [0] * N_TIMERS

    def apply(op):
        if op[0] == "set":
            timers[op[1]].set(engine.now + op[2])
        else:
            timers[op[1]].stop()

    def on_timer(i):
        log.append((i, engine.now))
        k, firings[i] = firings[i], firings[i] + 1
        for op in reactions[i][k] if k < len(reactions[i]) else ():
            apply(op)

    def on_event(name, ops):
        log.append((name, engine.now))
        for op in ops:
            apply(op)

    timers = [timer_cls(engine, partial(on_timer, i), "t") for i in range(N_TIMERS)]
    for n, step in enumerate(steps + [("run", 100)]):
        if step[0] == "event":
            engine.schedule(engine.now + step[1], partial(on_event, f"event {n}"))[3] = step[2]
        elif step[0] == "run":
            engine.run_until(engine.now + step[1])
        else:
            apply(step)
        deadlines.append([timer.deadline for timer in timers])
    return log, deadlines


@settings(max_examples=examples(400))
@given(st.lists(plan_steps, max_size=30), timer_reactions)
def test_timer_fires_in_the_same_order_as_the_eager_reference(steps, reactions):
    assert run_timer_plan(Timer, steps, reactions) == run_timer_plan(EagerTimer, steps, reactions)


class CountingEngine(Engine):
    """Counts, by tag, the actions given to `schedule` and the calls of the
    wrappers it queues in their place, as perfbench's tracer does."""

    def __init__(self):
        super().__init__()
        self.scheduled, self.fired = Counter(), Counter()

    def schedule(self, at, action, tag=None):
        def counted(arg):
            self.fired[tag] += 1
            action(arg)

        self.scheduled[tag] += 1
        return super().schedule(at, counted, tag)


@contextmanager
def counting_timer_fires(engine):
    """Count each run of `Timer._fire` on `engine`, a `CountingEngine`, while in the block."""
    fire = Timer._fire

    def counted(timer):
        engine.fired["_fire"] += 1
        fire(timer)

    Timer._fire = counted
    try:
        yield
    finally:
        Timer._fire = fire


@settings(max_examples=examples(200))
@given(st.lists(plan_steps, max_size=30), timer_reactions)
def test_cancelled_entries_never_reach_their_callable(steps, reactions):
    engine = CountingEngine()
    log, _ = run_timer_plan(EagerTimer, steps, reactions, engine)
    fires = sum(1 for who, _ in log if isinstance(who, int))
    assert engine.fired["t"] == fires
    assert engine.fired[None] == engine.scheduled[None] == len(log) - fires

    engine = CountingEngine()
    with counting_timer_fires(engine):
        assert run_timer_plan(Timer, steps, reactions, engine)[0] == log
    assert engine.fired["t"] == engine.fired["_fire"]


def test_requeued_timer_entry_keeps_the_scheduled_action():
    engine = CountingEngine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now), "t")
    timer.set(10)
    timer.set(20)  # stored only; the entry at 10 queues itself again at 20
    (entry,) = engine._heap
    action = entry[2]
    engine.run_until(15)
    assert len(engine._heap) == 1 and engine._heap[0] is entry
    assert entry[0] == 20 and entry[2] is action
    engine.run_until(100)
    assert fired == [20]
    assert engine.scheduled["t"] == 1 and engine.fired["t"] == 2


def test_div_round_half_up():
    assert div_round_half_up(5, 2) == 3
    assert div_round_half_up(4, 2) == 2
    assert div_round_half_up(7, 3) == 2
    assert div_round_half_up(0, 9) == 0
    with pytest.raises(ValueError):
        div_round_half_up(-1, 2)
    with pytest.raises(ValueError, match="den > 0"):
        div_round_half_up(1, 0)


def test_transmission_time_oracle():
    # 1518 B at 40 Mb/s: 1518*8 bits / 40e6 bit/s = 303.6 us exactly.
    assert transmission_time_ns(1518 * 8, 40_000_000) == 303_600


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000), st.booleans()),
        max_size=60,
    )
)
def test_schedule_cancel_property(plan):
    engine = Engine()
    fired = []
    handles = []
    for at, keep in plan:
        handle = Timer(engine, lambda at=at: fired.append(at), None)
        handle.set(at)
        handles.append((handle, keep))
    for handle, keep in handles:
        if not keep:
            handle.cancel()
    engine.run_until(2000)
    expected = sorted(at for (at, keep) in plan if keep)
    assert fired == expected


@given(st.integers(min_value=0, max_value=10**15), st.integers(min_value=1, max_value=10**12))
def test_div_round_half_up_matches_float_rounding(num, den):
    got = div_round_half_up(num, den)
    exact = num / den
    assert abs(got - exact) <= 0.5
