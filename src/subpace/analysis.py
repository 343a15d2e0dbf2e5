"""Closed-form helpers: the per-flow packet floor, the window-region grid,
and the fairness index used by the metrics layer."""

from .engine import NS_PER_SEC


def pkt_per_rtt_floor(capacity_bps: int, n_flows: int, frame_size: int, rtt_ns: int) -> float:
    """Packets per RTT each of n equal flows must send to fill the link.

    When this lands below 2, the two-segment minimum window forces the flows
    to overshoot the link and the queue must grow until the RTT makes the
    floor fit.
    """
    if min(capacity_bps, n_flows, frame_size, rtt_ns) <= 0:
        raise ValueError("all floor arguments must be positive")
    return capacity_bps * (rtt_ns / NS_PER_SEC) / (n_flows * frame_size * 8)


def window_in_mss(rate_bps: float, rtt_ns: int, mss: int) -> float:
    """Per-flow window, in segments, implied by a rate and round-trip time."""
    return rate_bps * (rtt_ns / NS_PER_SEC) / (mss * 8)


# Largest `points` per axis of the region grid, which holds points² rows in memory.
MAX_GRID_POINTS = 1_000


def log_spaced(lo: float, hi: float, points: int, name: str = "range") -> list[float]:
    """`points` values from lo to hi, evenly spaced in log; errors name `{name}-min`/`-max`."""
    if lo <= 0:
        raise ValueError(f"{name}-min: must be positive, got {lo}")
    if hi < lo:
        raise ValueError(f"{name}-max: must be at least {name}-min ({lo}), got {hi}")
    if points < 1:
        raise ValueError(f"points: must be at least 1, got {points}")
    if points == 1 or hi == lo:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio**i for i in range(points)]


def window_region_grid(
    rtt_range_ns: tuple[int, int],
    rate_range_bps: tuple[int, int],
    mss: int,
    points: int = 25,
) -> list[tuple[int, float, float, str]]:
    """(rtt_ns, rate_bps, window_in_MSS, diagonal) over a log-spaced grid.

    The diagonal column flags cells sitting exactly on the 1-MSS or 2-MSS
    per-flow window lines.  The grid is per-flow; a consumer models n flows
    by dividing the link rate before lookup.  Errors name the bad argument's
    `subpace regions` flag.
    """
    if mss <= 0:
        raise ValueError("mss: must be positive")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"points: must be at most {MAX_GRID_POINTS}, got {points}")
    rtts = log_spaced(*rtt_range_ns, points, "rtt")
    rates = log_spaced(*rate_range_bps, points, "rate")
    rows = []
    for rtt in rtts:
        rtt_ns = round(rtt)
        for rate in rates:
            window = window_in_mss(rate, rtt_ns, mss)
            diagonal = ""
            for mark in (1, 2):
                if abs(window - mark) <= 1e-9 * mark:
                    diagonal = str(mark)
            rows.append((rtt_ns, rate, window, diagonal))
    return rows


def jain_fairness(values) -> float:
    """(sum x)^2 / (n * sum x^2); 1.0 for perfectly equal shares."""
    values = list(values)
    if not values:
        return 0.0
    square_sum = sum(v * v for v in values)
    if square_sum == 0:
        return 0.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)
