from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from subpace.engine import MS, Engine, div_round_half_up
from subpace.pacing import Pacer, pacing_delay, segment_size


def test_segment_size_examples():
    assert segment_size(1460, 10**6) == 1460
    assert segment_size(1460, 300) == 300
    assert segment_size(1460, 1460) == 1460
    with pytest.raises(ValueError):
        segment_size(1460, 0)


def test_pacing_delay_zero_at_and_above_segment():
    assert pacing_delay(1518, 1518, 6 * MS) == 0
    assert pacing_delay(1518, 3036, 6 * MS) == 0


def test_pacing_delay_half_window_equals_rtt():
    # s/W = 2 makes the send interval d + R = 2R.
    assert pacing_delay(1518, 759, 6 * MS) == 6 * MS


def test_pacing_delay_integer_rounding_oracle():
    # (1518/379 - 1) * 6 ms = 1139*6e6/379 ns = 18,031,662.27 -> rounds to
    # 18,031,662 (frozen via exact rational arithmetic below).
    expected = round(Fraction((1518 - 379) * 6 * MS, 379))
    assert expected == 18_031_662
    assert pacing_delay(1518, 379, 6 * MS) == expected


def test_pacing_delay_requires_positive_window():
    with pytest.raises(ValueError):
        pacing_delay(1518, 0, 6 * MS)
    with pytest.raises(ValueError):
        pacing_delay(1518, -400, 6 * MS)


def test_pacing_delay_requires_a_positive_segment_and_a_non_negative_rtt():
    with pytest.raises(ValueError, match="segment size must be positive"):
        pacing_delay(0, 1, 1)
    with pytest.raises(ValueError, match="rtt must be non-negative"):
        pacing_delay(1, 1, -1)


def test_pacing_delay_huge_values_exact():
    # Wide-integer formulation: no precision loss at extreme magnitudes.
    s, w, r = 10**9, 7, 60 * 10**9
    assert pacing_delay(s, w, r) == round(Fraction((s - w) * r, w))


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=0, max_value=10**10))
def test_interval_identity_r_plus_d(seg, window, rtt):
    # d + R equals s*R/W rounded half up, with zero clamped at W >= s.
    d = pacing_delay(seg, window, rtt)
    if window >= seg:
        assert d == 0
    else:
        assert rtt + d == div_round_half_up(seg * rtt, window)


@given(st.integers(min_value=1, max_value=500_000), st.integers(min_value=1, max_value=10**9))
def test_halving_window_doubles_interval_within_rounding(half_window, rtt):
    window = 2 * half_window
    seg = 2 * window + 2  # keep both windows strictly below s
    full = rtt + pacing_delay(seg, window, rtt)
    halved = rtt + pacing_delay(seg, half_window, rtt)
    assert abs(halved - 2 * full) <= 1


def test_halving_even_window_exactly_doubles_interval():
    rtt = 6 * MS
    for window in (512, 730, 1024):
        seg = 2 * window
        assert pacing_delay(seg, window, rtt) + rtt == 2 * rtt
        assert pacing_delay(seg, window // 2, rtt) + rtt == 4 * rtt


def test_monotone_non_increasing_in_window():
    seg, rtt = 1460, 6 * MS
    delays = [pacing_delay(seg, w, rtt) for w in range(1, seg + 1)]
    assert all(a >= b for a, b in zip(delays, delays[1:]))
    assert delays[-1] == 0


class PacerHarness:
    def __init__(self, rtt=6 * MS):
        self.engine = Engine()
        self.fired_at = []
        self.pacer = Pacer(self.engine, rtt=lambda: rtt,
                           on_ready=lambda: self.fired_at.append(self.engine.now))


def test_pacer_waits_then_fires():
    h = PacerHarness()
    assert h.pacer.request(0, 1460, 730) is False
    assert h.pacer.waiting
    h.engine.run_until(20 * MS)
    assert h.fired_at == [pacing_delay(1460, 730, 6 * MS)]


def test_pacer_immediate_when_window_covers_segment():
    h = PacerHarness()
    assert h.pacer.request(0, 1460, 1460) is True
    assert h.pacer.request(0, 1460, 5000) is True


def test_pacer_parks_on_non_positive_window():
    h = PacerHarness()
    assert h.pacer.request(0, 1460, 0) is False
    assert not h.pacer.waiting
    h.engine.run_until(50 * MS)
    assert h.fired_at == []


@pytest.mark.parametrize("window, fired_at", [
    (365, [18 * MS]),  # shrinking: d = 18 ms from epoch 0
    (1000, [pacing_delay(1460, 1000, 6 * MS)]),  # growing, still below the segment
    (1460, [2 * MS]),  # covering the segment: fires at now, through the queue
    (0, []),  # non-positive: the wait is dropped
], ids=["shrinking", "growing", "covering", "non-positive"])
def test_pacer_request_while_a_wait_is_pending_rebases_it(window, fired_at):
    # A request on a pending wait is a window change: it rebases that wait
    # against its epoch, and never sends past the one entitlement.
    asked, told = PacerHarness(), PacerHarness()
    for h in (asked, told):
        h.pacer.request(0, 1460, 730)  # d = 6 ms
        h.engine.run_until(2 * MS)
    assert asked.pacer.request(2 * MS, 1460, window) is False
    told.pacer.window_changed(2 * MS, 1460, window)
    state = [(h.pacer.epoch, h.pacer.timer.deadline, h.pacer.waiting) for h in (asked, told)]
    assert state[0] == state[1]
    for h in (asked, told):
        h.engine.run_until(30 * MS)
    assert asked.fired_at == told.fired_at == fired_at


def test_pacer_window_change_with_nothing_pending_arms_nothing():
    h = PacerHarness()
    h.pacer.window_changed(0, 1460, 730)
    assert not h.pacer.waiting and h.pacer.epoch is None
    h.engine.run_until(50 * MS)
    assert h.fired_at == []


def test_pacer_window_change_after_a_fired_wait_arms_nothing():
    # A fired wait leaves its epoch behind.  Priced from that stale epoch, a
    # window change at 20 ms would arm a wait due at once, which is why
    # `window_changed` checks for a pending wait first.
    h = PacerHarness()
    h.pacer.request(0, 1460, 730)  # d = 6 ms from epoch 0
    h.engine.run_until(20 * MS)
    assert h.fired_at == [6 * MS] and not h.pacer.waiting and h.pacer.epoch == 0
    h.pacer.window_changed(20 * MS, 1460, 730)
    assert not h.pacer.waiting
    h.engine.run_until(50 * MS)
    assert h.fired_at == [6 * MS]


def test_pacer_with_a_zero_rtt_sends_at_once_and_arms_nothing():
    h = PacerHarness(rtt=0)
    assert h.pacer.request(0, 1460, 1) is True
    assert not h.pacer.waiting and h.pacer.epoch is None


def test_window_increase_moves_wait_earlier():
    h = PacerHarness()
    h.pacer.request(0, 1460, 365)  # d = 18 ms
    first_target = h.pacer.timer.deadline
    h.pacer.window_changed(0, 1460, 730)  # doubled: d = 6 ms
    assert h.pacer.timer.deadline < first_target
    assert h.pacer.timer.deadline == pacing_delay(1460, 730, 6 * MS)
    h.engine.run_until(30 * MS)
    assert h.fired_at == [6 * MS]


def test_window_reaching_segment_fires_immediately():
    h = PacerHarness()
    h.pacer.request(0, 1460, 365)
    h.engine.run_until(2 * MS)
    h.pacer.window_changed(h.engine.now, 1460, 1460)
    h.engine.run_until(3 * MS)
    assert h.fired_at == [2 * MS]


def test_window_halving_mid_wait_moves_wait_later():
    h = PacerHarness()
    h.pacer.request(0, 1460, 730)  # d = 6 ms
    h.engine.run_until(2 * MS)
    h.pacer.window_changed(h.engine.now, 1460, 365)  # d = 18 ms from epoch 0
    assert h.pacer.timer.deadline == 18 * MS
    h.engine.run_until(30 * MS)
    assert h.fired_at == [18 * MS]


def test_window_collapse_mid_wait_parks():
    h = PacerHarness()
    h.pacer.request(0, 1460, 730)
    h.pacer.window_changed(0, 1460, -100)
    assert not h.pacer.waiting
    h.engine.run_until(60 * MS)
    assert h.fired_at == []


def test_epoch_is_preserved_across_rebases():
    h = PacerHarness()
    h.pacer.request(0, 1460, 365)  # epoch 0, d = 18 ms
    h.engine.run_until(1 * MS)
    h.pacer.window_changed(h.engine.now, 1460, 500)
    # Rebased against epoch 0, not against the change time.
    assert h.pacer.timer.deadline == pacing_delay(1460, 500, 6 * MS)
