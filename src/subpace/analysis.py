"""Closed-form helpers: the per-flow packet floor and its balance point, the
window-region grid, and the fairness index used by the metrics layer."""

from collections.abc import Iterator

from .engine import NS_PER_SEC, ConfigError


def pkt_per_rtt_floor(capacity_bps: float, n_flows: int, frame_size: int, rtt_ns: int) -> float:
    """Packets per RTT each of n equal flows must send to fill the link.

    When this lands below 2, the two-segment minimum window forces the flows
    to overshoot the link and the queue must grow until the RTT makes the
    floor fit.  With n = 1 and an MSS frame it is a flow's window in MSS.
    Errors name the bad argument's `subpace floor` flag.
    """
    for flag, value in zip(("capacity", "flows", "frame", "rtt"),
                           (capacity_bps, n_flows, frame_size, rtt_ns)):
        if value <= 0:
            raise ConfigError(flag, f"must be positive, got {value}")
    return capacity_bps * (rtt_ns / NS_PER_SEC) / (n_flows * frame_size * 8)


def balance_rtt_ns(capacity_bps: int, n_flows: int, frame_size: int) -> int:
    """R* = 2·n·P·8/C in whole ns, the RTT at which two frames per flow fill the link."""
    return 2 * n_flows * frame_size * 8 * NS_PER_SEC // capacity_bps


# Largest `points` per axis of the region grid; its points² rows bound the run time.
MAX_GRID_POINTS = 1_000


def log_spaced(lo: float, hi: float, points: int, name: str = "range") -> list[float]:
    """`points` values from lo to hi, evenly spaced in log; errors name `{name}-min`/`-max`."""
    if lo <= 0:
        raise ConfigError(f"{name}-min", f"must be positive, got {lo}")
    if hi < lo:
        raise ConfigError(f"{name}-max", f"must be at least {name}-min ({lo}), got {hi}")
    if points < 1:
        raise ConfigError("points", f"must be at least 1, got {points}")
    if points == 1 or hi == lo:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio**i for i in range(points)]


def window_region_grid(
    rtt_range_ns: tuple[int, int],
    rate_range_bps: tuple[int, int],
    mss: int,
    points: int,
) -> Iterator[tuple[int, float, float, str]]:
    """(rtt_ns, rate_bps, window_in_MSS, region) over a log-spaced grid, row by row.

    The region, `<1`, `1-2` or `>=2` MSS, is exact: a cell on a line is above
    it.  The grid is per-flow; a consumer models n flows by dividing the link
    rate before lookup.  Errors name the bad `subpace regions` flag, before any row.
    """
    if mss <= 0:
        raise ConfigError("mss", "must be positive")
    if points > MAX_GRID_POINTS:
        raise ConfigError("points", f"must be at most {MAX_GRID_POINTS}, got {points}")
    rtts = log_spaced(*rtt_range_ns, points, "rtt")
    rates = log_spaced(*rate_range_bps, points, "rate")
    # rate == num / den, so a cell's window is exactly num * rtt_ns / one_mss MSS.
    ratios = [(rate, *rate.as_integer_ratio()) for rate in rates]
    columns = [(rate, num, den * mss * 8 * NS_PER_SEC) for rate, num, den in ratios]
    return ((rtt_ns, rate, pkt_per_rtt_floor(rate, 1, mss, rtt_ns),
             "<1" if num * rtt_ns < one_mss else "1-2" if num * rtt_ns < 2 * one_mss else ">=2")
            for rtt_ns in map(round, rtts) for rate, num, one_mss in columns)


def jain_fairness(values) -> float:
    """(sum x)^2 / (n * sum x^2); 1.0 for perfectly equal shares, 0.0 for none or all zero."""
    values = list(values)
    square_sum = sum(v * v for v in values)
    if square_sum == 0:
        return 0.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)
