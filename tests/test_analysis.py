import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from subpace.analysis import (
    balance_rtt_ns,
    jain_fairness,
    log_spaced,
    pkt_per_rtt_floor,
    window_region_grid,
)
from subpace.engine import MS


def test_floor_broadband_example():
    # 40 Mb/s / 12 flows / 1518 B frames at R = 6 ms; exact rational oracle.
    exact = Fraction(40_000_000) * Fraction(6, 1000) / (12 * 1518 * 8)
    got = pkt_per_rtt_floor(40_000_000, 12, 1518, 6 * MS)
    assert got == pytest.approx(float(exact), rel=1e-12)
    assert round(got, 2) == 1.65


def test_floor_single_flow():
    exact = Fraction(40_000_000) * Fraction(6, 1000) / (1 * 1518 * 8)
    assert pkt_per_rtt_floor(40_000_000, 1, 1518, 6 * MS) == pytest.approx(
        float(exact), rel=1e-12
    )
    assert pkt_per_rtt_floor(40_000_000, 1, 1518, 6 * MS) == pytest.approx(19.7628, abs=1e-3)


def test_floor_exact_balance_point():
    # C*R = 2*n*P*8 puts the floor exactly at 2 packets per round trip.
    n, frame = 12, 1518
    capacity = 40_000_000
    rtt = balance_rtt_ns(capacity, n, frame)
    assert rtt == 7_286_400
    assert pkt_per_rtt_floor(capacity, n, frame, rtt) == pytest.approx(2.0, rel=1e-9)


def test_floor_rejects_nonpositive():
    with pytest.raises(ValueError, match="^capacity: must be positive"):
        pkt_per_rtt_floor(0, 12, 1518, 6 * MS)


@given(st.integers(min_value=1, max_value=10**10), st.integers(min_value=1, max_value=10**3),
       st.integers(min_value=64, max_value=9000), st.integers(min_value=1, max_value=10**10))
def test_floor_linear_in_rtt_and_inverse_in_flows(capacity, flows, frame, rtt):
    base = pkt_per_rtt_floor(capacity, flows, frame, rtt)
    assert pkt_per_rtt_floor(capacity, flows, frame, 3 * rtt) == pytest.approx(3 * base, rel=1e-9)
    assert pkt_per_rtt_floor(capacity, 2 * flows, frame, rtt) == pytest.approx(base / 2, rel=1e-9)


def test_window_one_mss_diagonal():
    # 2 Mb/s over 6 ms with a 1500 B MSS sits exactly on the 1-MSS diagonal:
    # one flow's floor, with the MSS as its frame, is its window in MSS.
    assert pkt_per_rtt_floor(2_000_000, 1, 1500, 6 * MS) == pytest.approx(1.0, rel=1e-12)


def test_region_grid_flags_diagonals():
    # Exactly 1 and 2 MSS count as the region above the line; one bit per
    # second less, or the next float below 2 Mb/s, is below it.
    rows = list(window_region_grid((6 * MS, 6 * MS), (2_000_000, 4_000_000), 1500, points=2))
    assert [(w, region) for (_, _, w, region) in rows] == [(1.0, "1-2"), (2.0, ">=2")]
    for rate in (1_999_999, math.nextafter(2e6, 0)):
        [(_, _, _, region)] = list(
            window_region_grid((6 * MS, 6 * MS), (rate, rate), 1500, points=1))
        assert region == "<1"


def test_region_grid_counts_on_the_readme_grid():
    rows = list(window_region_grid((1 * MS, 100 * MS), (10**5, 10**8), 1460, points=25))
    assert Counter(region for (_, _, _, region) in rows) == {"<1": 225, "1-2": 58, ">=2": 342}


def test_region_grid_shape_and_ranges():
    rows = list(window_region_grid((1 * MS, 100 * MS), (10**5, 10**8), 1460, points=5))
    assert len(rows) == 25
    rtts = sorted({r for (r, _, _, _) in rows})
    assert rtts[0] == 1 * MS and rtts[-1] == 100 * MS


def test_log_spaced_endpoints_and_growth():
    points = log_spaced(1.0, 1000.0, 4)
    assert points[0] == pytest.approx(1.0)
    assert points[-1] == pytest.approx(1000.0)
    assert points == sorted(points)
    with pytest.raises(ValueError):
        log_spaced(0, 10, 3)


def test_jain_equal_rates_is_one():
    assert jain_fairness([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_jain_known_value():
    # (1+2+3)^2 / (3 * (1+4+9)) = 36/42
    assert jain_fairness([1.0, 2.0, 3.0]) == pytest.approx(36 / 42)


def test_jain_degenerate():
    assert jain_fairness([]) == 0.0
    assert jain_fairness([0.0, 0.0]) == 0.0


@given(st.lists(st.floats(min_value=0.001, max_value=1e9), min_size=1, max_size=40))
def test_jain_bounds(values):
    j = jain_fairness(values)
    assert 0.0 < j <= 1.0 + 1e-12
