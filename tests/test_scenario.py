import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import log_recorder, log_sends, replace_keys
from hypothesis import example, given, strategies as st
from reference import reference_queue_delay_stats

import subpace
from subpace import cli, scenario
from subpace.analysis import MAX_GRID_POINTS, log_spaced, pkt_per_rtt_floor, window_region_grid
from subpace.config import (
    ConfigError,
    ScenarioConfig,
    load_scenario,
    parse_rate,
    parse_scenario_text,
    parse_size,
    parse_time,
    with_value,
)
from subpace.endpoint import Ack, ProtocolError, TcpSender
from subpace.engine import MS, SEC, US, Engine, transmission_time_ns
from subpace.netpath import AqmLink
from subpace.scenario import (
    Meter,
    ScenarioMetrics,
    Simulation,
    derive_sweep_seed,
    render_metrics_csv,
    render_sweep_csv,
    run_scenario,
    sweep,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

SMALL = """
capacity = 10 mbps
n_flows = 4
frame_size = 1518 B
smss = 1460 B
base_rtt = 1 ms
aqm_policy = ramp-mark
aqm_target = 5 ms
aqm_ceiling = 10 ms
buffer_limit = 100 KB
sender_mode = submss
cc_variant = dctcp-like
duration = 4 s
warmup = 1 s
seed = 9
"""


def small_config(**overrides) -> ScenarioConfig:
    return replace_keys(parse_scenario_text(SMALL), **overrides)


# -- parsing ------------------------------------------------------------------

def test_parse_units_and_defaults():
    cfg = parse_scenario_text(SMALL)
    assert cfg.capacity == 10_000_000
    assert cfg.frame_size == 1518
    assert cfg.base_rtt == 1 * MS
    assert cfg.duration == 4 * SEC
    assert cfg.ecn is True and cfg.delayed_acks is True  # defaults
    assert cfg.w_min_fraction == pytest.approx(1 / 64)


def test_ceiling_defaults_to_twice_target():
    text = SMALL.replace("aqm_ceiling = 10 ms\n", "")
    cfg = parse_scenario_text(text)
    assert cfg.aqm_ceiling == 2 * cfg.aqm_target


def test_warmup_defaults_to_quarter_duration():
    text = SMALL.replace("warmup = 1 s\n", "")
    cfg = parse_scenario_text(text)
    assert cfg.warmup == cfg.duration // 4


def test_with_value_derives_defaulted_ceiling_again():
    cfg = parse_scenario_text(SMALL.replace("aqm_ceiling = 10 ms\n", ""))
    assert with_value(cfg, "aqm_target", 10 * MS).aqm_ceiling == 20 * MS
    explicit = parse_scenario_text(SMALL)
    assert with_value(explicit, "aqm_target", 8 * MS).aqm_ceiling == 10 * MS


def test_with_value_derives_defaulted_warmup_again():
    cfg = parse_scenario_text(SMALL.replace("warmup = 1 s\n", ""))
    assert with_value(cfg, "duration", 40 * SEC).warmup == 10 * SEC
    pinned = with_value(cfg, "warmup", 2 * SEC)  # a value set by with_value stays too
    assert with_value(pinned, "duration", 40 * SEC).warmup == 2 * SEC
    explicit = parse_scenario_text(SMALL)
    assert with_value(explicit, "duration", 40 * SEC).warmup == 1 * SEC


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(SMALL + "bandwidth = 1 mbps\n")
    assert "bandwidth" in str(err.value)


def test_missing_required_key_names_it():
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(SMALL.replace("capacity = 10 mbps\n", ""))
    assert "capacity" in str(err.value)


def test_invalid_values_name_the_field():
    cases = [
        ("smss = 1460 B", "smss = 1600 B", "smss"),
        ("warmup = 1 s", "warmup = 5 s", "warmup"),
        ("warmup = 1 s", "warmup = -5 s", "warmup"),
        ("aqm_ceiling = 10 ms", "aqm_ceiling = 0 ms", "aqm_ceiling"),
        ("buffer_limit = 100 KB", "buffer_limit = 6 KB", "buffer_limit"),
        ("aqm_policy = ramp-mark", "aqm_policy = codel", "aqm_policy"),
    ]
    for original, mutated, field_name in cases:
        with pytest.raises(ConfigError) as err:
            parse_scenario_text(SMALL.replace(original, mutated))
        assert field_name in str(err.value)


def test_link_checks_give_the_same_message_from_config_and_link():
    cfg = parse_scenario_text(SMALL)
    link_args = dict(
        capacity_bps=cfg.capacity, buffer_limit=cfg.buffer_limit, policy=cfg.aqm_policy,
        target_delay_ns=cfg.aqm_target, ramp_ceiling_ns=cfg.aqm_ceiling,
        prop_rtt_ns=cfg.base_rtt, max_frame=cfg.frame_size, deliver=[lambda p: None],
    )
    link_arg = {"aqm_ceiling": "ramp_ceiling_ns", "aqm_policy": "policy",
                "capacity": "capacity_bps", "buffer_limit": "buffer_limit",
                "base_rtt": "prop_rtt_ns"}
    cases = [
        ("aqm_ceiling", {"aqm_ceiling": cfg.aqm_target}),
        ("aqm_policy", {"aqm_policy": "codel"}),
        ("capacity", {"capacity": 0}),
        ("base_rtt", {"base_rtt": -4 * MS}),
        # 1 Mb/s puts the 5 ms target at 625 B, so only the frame check rejects 1000 B.
        ("buffer_limit", {"capacity": 1_000_000, "buffer_limit": 1000}),
        # 40 Gb/s puts the 5 ms target at 25,000,000 B rounded down, but the AQM
        # signals only above 25,000,002 B, so a buffer between can never signal.
        ("buffer_limit", {"capacity": 40_000_000_000, "buffer_limit": 25_000_001}),
    ]
    for field_name, changes in cases:
        with pytest.raises(ConfigError) as config_err:
            replace_keys(cfg, **changes)
        with pytest.raises(ValueError) as link_err:
            AqmLink(Engine(), **{**link_args, **{link_arg[k]: v for k, v in changes.items()}})
        assert config_err.value.field_name == field_name
        assert str(link_err.value) == str(config_err.value)


def test_buffer_below_one_frame_is_rejected():
    # Above the target's 625 B but below one 1518 B frame: no full-size frame could queue.
    text = SMALL.replace("capacity = 10 mbps", "capacity = 1 mbps").replace(
        "buffer_limit = 100 KB", "buffer_limit = 1000 B")
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(text)
    assert str(err.value) == "buffer_limit: must hold one 1518 B frame, got 1000 B"


def test_sender_checks_give_the_same_message_from_file_config_and_sender():
    cfg = parse_scenario_text(SMALL)
    sender_args = dict(
        flow_id=0, mss=cfg.smss, frame_overhead=cfg.frame_overhead, mode=cfg.sender_mode,
        cc_variant=cfg.cc_variant, ecn_capable=cfg.ecn, w_min=cfg.w_min_bytes,
        transmit=lambda p: None,
    )
    cases = [
        ("sender_mode", "mode", "submss", "fast"),
        ("cc_variant", "cc_variant", "dctcp-like", "cubic"),
    ]
    for field_name, sender_arg, original, value in cases:
        with pytest.raises(ConfigError) as parse_err:
            parse_scenario_text(SMALL.replace(f"= {original}", f"= {value}"))
        with pytest.raises(ConfigError) as config_err:
            replace_keys(cfg, **{field_name: value})
        with pytest.raises(ValueError) as sender_err:
            TcpSender(Engine(), **{**sender_args, sender_arg: value})
        assert parse_err.value.field_name == config_err.value.field_name == field_name
        assert str(parse_err.value) == str(config_err.value) == str(sender_err.value)


def test_non_finite_and_overflowing_numbers_name_the_field():
    cases = {
        "capacity = 10 mbps": [("capacity = inf", "capacity"),
                               ("capacity = 1e400mbps", "capacity")],
        "base_rtt = 1 ms": [("base_rtt = nan ms", "base_rtt")],
        "duration = 4 s": [("duration = -inf s", "duration")],
        "buffer_limit = 100 KB": [("buffer_limit = 1e308 MB", "buffer_limit")],
    }
    for original, mutations in cases.items():
        for mutated, field_name in mutations:
            with pytest.raises(ConfigError) as err:
                parse_scenario_text(SMALL.replace(original, mutated))
            assert err.value.field_name == field_name


@pytest.mark.parametrize("line, at_bound, too_large", [
    ("n_flows = 12", "n_flows = 10000", ["n_flows = 100000000", "n_flows = 10001"]),
    ("duration = 60 s", "duration = 86400 s",
     ["duration = 1e30 s", "duration = 86400000000001 ns"]),
], ids=["n_flows", "duration"])
def test_run_sizes_above_their_bound_name_the_field(line, at_bound, too_large):
    text = (SCENARIO_DIR / "broadband12.txt").read_text(encoding="utf-8")
    field_name = line.split()[0]
    for mutated in too_large:
        with pytest.raises(ConfigError) as err:
            parse_scenario_text(text.replace(line, mutated))
        assert err.value.field_name == field_name
    parse_scenario_text(text.replace(line, at_bound))  # the bound itself is accepted


def test_cli_run_and_sweep_reject_a_run_size_above_its_bound(tmp_path, capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("a run started with a size above its bound")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    monkeypatch.setattr(scenario, "run_scenario", no_run)
    huge = tmp_path / "huge.txt"
    huge.write_text(SMALL.replace("n_flows = 4", "n_flows = 100000000"))
    assert cli.main(["run", str(huge)]) == 1
    assert "n_flows" in capsys.readouterr().err
    with pytest.raises(ConfigError) as err:
        sweep(small_config(), "duration", ["2 s", "1e30 s"])
    assert err.value.field_name == "duration"


@pytest.mark.parametrize("parse, exact, fractional", [
    (parse_time, {"1.1 ms": 1_100_000, "0.1 s": 100_000_000, "2e3 us": 2_000_000}, "1.5 ns"),
    (parse_rate, {"2.5 gbps": 2_500_000_000, "1e1 mbps": 10_000_000}, "40.0000001 mbps"),
    (parse_size, {"1.5 KB": 1_500, "0.2 MB": 200_000}, "1459.6 B"),
], ids=["time", "rate", "size"])
def test_decimals_parse_exactly_and_fractional_base_units_name_the_field(parse, exact, fractional):
    for raw, value in exact.items():
        assert parse("key", raw) == value
    with pytest.raises(ConfigError) as err:
        parse("key", fractional)
    assert err.value.field_name == "key"
    assert repr(fractional) in str(err.value)


def test_integer_values_parse_without_importing_fractions():
    code = ("import sys; from subpace.config import load_scenario; "
            "load_scenario(sys.argv[1]); print('fractions' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(subpace.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(SCENARIO_DIR / "broadband12.txt")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("line", ["= 5", "n_flows 5"], ids=["no key", "no equals"])
def test_cli_a_line_that_is_not_key_equals_value_names_its_line_and_fails(tmp_path, capsys,
                                                                          line):
    scenario_file = tmp_path / "bad.txt"
    scenario_file.write_text(f"{line}\n")
    assert cli.main(["run", str(scenario_file)]) == 1
    assert capsys.readouterr().err == (
        f"subpace: error: line 1: expected `key = value`, got {line!r}\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_scenario_text("# leading comment\n\n" + SMALL + "\n# trailing\n")
    assert cfg.n_flows == 4


def test_shipped_scenarios_parse():
    for name in (
        "broadband12.txt",
        "broadband12_submss.txt",
        "broadband12_submss_nodelack.txt",
        "broadband12_reddrop.txt",
    ):
        cfg = load_scenario(SCENARIO_DIR / name)
        assert cfg.capacity == 40_000_000
        assert cfg.n_flows == 12
        # buffer comfortably exceeds four target-delays' worth of bytes
        assert cfg.buffer_limit * 8 * 10**9 >= 4 * cfg.aqm_target * cfg.capacity


# -- simulation determinism and CSV -------------------------------------------

def test_metrics_csv_is_byte_stable_across_runs():
    cfg = small_config()
    first = render_metrics_csv(run_scenario(cfg))
    second = render_metrics_csv(run_scenario(cfg))
    assert first == second
    header, row, trailer = first.split("\n")
    assert header.startswith("mean_queue_delay_ns,")
    assert trailer == ""


def shipped_config(path, warmup, duration):
    """A shipped scenario cut short; the warmup goes first, as the file's is longer."""
    return with_value(with_value(load_scenario(path), "warmup", warmup), "duration", duration)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.txt")), ids=lambda path: path.stem)
def test_chunked_runs_give_the_same_csv(path):
    # Chunks of 1 ns to 5 ms, half of them under 1 us, stop the engine at
    # arbitrary instants, with departures not yet retired.
    cfg = shipped_config(path, 1 * SEC, 3 * SEC)
    whole = render_metrics_csv(Simulation(cfg).run().metrics())
    sim, rng, until = Simulation(cfg), random.Random(path.stem), 0
    while until < cfg.duration:
        until += rng.randint(1, US) if rng.random() < 0.5 else rng.randint(1, 5 * MS)
        sim.run(min(until, cfg.duration))
    assert render_metrics_csv(sim.metrics()) == whole


def test_run_retires_no_departure_after_until():
    # A frame that finishes serializing at t + 1 is still queued at t: a run
    # to t reports no departure after t and leaves that frame in the backlog,
    # so an arrival at t + 1 still counts it.
    sim = Simulation(small_config())
    log = log_recorder(sim.engine)
    until = 0
    while not sim.link._fifo:
        until += 1 * MS
        sim.run(until)
    departs = sim.link._fifo[0][0]
    sim.run(departs - 1)
    assert all(row[0] <= departs - 1 for row in log.of("departure"))
    assert sim.link._fifo[0][0] == departs
    assert sim.link.backlog == sum(size for _, _, size in sim.link._fifo)


def test_a_recorder_installed_after_construction_sees_the_t0_sends():
    # The flows start as events at t = 0, not in `__init__`, so a recorder put
    # in front after construction sees each flow's two-segment initial window.
    cfg = shipped_config(SCENARIO_DIR / "broadband12.txt", 1 * SEC, 2 * SEC)
    sim = Simulation(cfg)
    log = log_recorder(sim.engine)
    sim.run(0)
    assert [now for now, _ in log.of("backlog")] == [0] * 24  # two segments for each of 12 flows


def test_different_seeds_differ():
    base = small_config()
    a = render_metrics_csv(run_scenario(base))
    b = render_metrics_csv(run_scenario(replace_keys(base, seed=10)))
    assert a != b


def test_single_uncontended_flow_fills_link():
    cfg = small_config(n_flows=1, duration=6 * SEC, warmup=2 * SEC)
    metrics = run_scenario(cfg)
    assert metrics.total_throughput_bps >= 0.9 * cfg.capacity
    assert metrics.mean_queue_delay_ns <= cfg.aqm_ceiling


def test_throughput_never_exceeds_capacity():
    cfg = small_config()
    metrics = run_scenario(cfg)
    slack = cfg.frame_size * 8 / ((cfg.duration - cfg.warmup) / SEC)
    assert metrics.total_throughput_bps <= cfg.capacity + slack
    assert 0.0 < metrics.jain_fairness <= 1.0


def test_sweep_rows_in_input_order_with_derived_seeds():
    cfg = small_config(duration=2 * SEC, warmup=500 * MS)
    rows = sweep(cfg, "n_flows", ["4", "2", "6"])
    assert [raw for raw, _ in rows] == ["4", "2", "6"]
    assert len({render_metrics_csv(m) for _, m in rows}) == 3


def test_sweep_same_value_same_metrics():
    cfg = small_config(duration=2 * SEC, warmup=500 * MS)
    rows_a = sweep(cfg, "sender_mode", ["baseline", "submss"])
    rows_b = sweep(cfg, "sender_mode", ["baseline", "submss"])
    assert render_sweep_csv("sender_mode", rows_a) == render_sweep_csv("sender_mode", rows_b)


def test_sweep_empty_values_gives_header_only(monkeypatch):
    import concurrent.futures

    def no_pool(*args):
        raise AssertionError("sweep() started a process pool for no values")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = small_config()
    out = render_sweep_csv("n_flows", sweep(cfg, "n_flows", []))
    assert out == (
        "n_flows,mean_queue_delay_ns,p95_queue_delay_ns,throughput_bps_total,"
        "throughput_bps_min,throughput_bps_max,jain_fairness,total_drops,"
        "total_marks,total_rtos,mean_pkts_per_rtt_per_flow\n"
    )


def record_sweep_pool(monkeypatch, affinity, cpu_count, n_rows):
    """The pool sizes a sweep of n_rows asks for on this many CPUs, and its rows."""
    import concurrent.futures

    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(scenario, "run_scenario", lambda cfg: cfg.n_flows)
    rows = sweep(small_config(), "n_flows", [str(n) for n in range(1, n_rows + 1)])
    return pools, rows


# With c CPUs, w workers and n equal rows, the last wave runs n % w rows; it
# idles CPUs when 0 < n % w < c, so the pool takes the fewest workers, at
# least min(n, c), whose last wave is full or keeps every CPU busy.
@pytest.mark.parametrize("affinity, cpu_count, workers", [
    ({3, 5}, 8, 3),  # a cpuset smaller than the host: its size, not the host's CPUs
    ({0}, 8, 1),
    (set(range(16)), 8, 5),  # never more workers than rows
    (None, 4, 5),  # no affinity call: the host's CPUs
    (None, None, 1),
])
def test_sweep_pool_has_one_worker_per_usable_cpu(monkeypatch, affinity, cpu_count, workers):
    pools, rows = record_sweep_pool(monkeypatch, affinity, cpu_count, 5)
    assert pools == [workers]
    assert rows == [(str(n), n) for n in range(1, 6)]


@pytest.mark.parametrize("n_rows, workers", [(6, 2), (7, 4), (8, 2), (9, 3)])
def test_sweep_pool_last_wave_keeps_every_cpu_busy(monkeypatch, n_rows, workers):
    pools, rows = record_sweep_pool(monkeypatch, {0, 1}, 8, n_rows)
    assert pools == [workers]
    assert rows == [(str(n), n) for n in range(1, n_rows + 1)]


def test_sweep_unknown_field_is_an_error():
    with pytest.raises(ConfigError):
        sweep(small_config(), "not_a_key", ["1"])
    with pytest.raises(ConfigError) as err:  # checked even with no value to parse
        sweep(small_config(), "not_a_key", [])
    assert err.value.field_name == "not_a_key"


def test_sweep_checks_every_value_before_any_row_runs(monkeypatch):
    def no_row(cfg):
        raise AssertionError("a row ran before every value was checked")

    monkeypatch.setattr(scenario, "run_scenario", no_row)
    with pytest.raises(ConfigError) as err:
        sweep(small_config(), "n_flows", ["4", "nope"])
    assert err.value.field_name == "n_flows"


def test_sweep_rows_equal_in_process_runs():
    cfg = small_config(duration=2 * SEC, warmup=500 * MS)

    def flows_cfg(index, n):
        row = with_value(cfg, "n_flows", int(n))
        return with_value(row, "seed", derive_sweep_seed(cfg.seed, index))

    flows = ["8", "2", "4"]  # heaviest first, so the workers finish out of order
    expected = [(n, run_scenario(flows_cfg(i, n))) for i, n in enumerate(flows)]
    got = sweep(cfg, "n_flows", flows)
    assert render_sweep_csv("n_flows", got) == render_sweep_csv("n_flows", expected)

    seeds = ["7", "3"]
    expected = [(s, run_scenario(with_value(cfg, "seed", int(s)))) for s in seeds]
    got = sweep(cfg, "seed", seeds)
    assert render_sweep_csv("seed", got) == render_sweep_csv("seed", expected)


def test_import_loads_no_process_pool():
    # sweep() imports the pool itself; at module level it would add about
    # 25 ms to every start of the package.  `dataclasses` and the `inspect`
    # it imports would add about 11 ms more.  Compared inside the child, so
    # whatever the interpreter loads before `import subpace` does not count.
    slow_modules = "{'multiprocessing', 'concurrent.futures.process', 'dataclasses', 'inspect'}"
    code = ("import sys; before = set(sys.modules); import subpace; "
            f"print(sorted({slow_modules} & (set(sys.modules) - before)))")
    src = str(Path(subpace.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"


def test_queue_delay_grows_with_flow_count_once_floor_binds():
    # Balance point R* = 2nP*8/C scales with n; once it exceeds the AQM
    # target the standing queue grows with every added flow.
    base = load_scenario(SCENARIO_DIR / "broadband12.txt")
    base = replace_keys(base, duration=12 * SEC, warmup=4 * SEC)
    delays = []
    for n in (12, 16, 24):
        metrics = run_scenario(replace_keys(base, n_flows=n))
        delays.append(metrics.mean_queue_delay_ns)
    assert delays == sorted(delays)
    assert delays[0] > base.aqm_target


def test_event_trace_is_reproducible():
    cfg = small_config(duration=1 * SEC, warmup=250 * MS)

    def trace():
        sim = Simulation(cfg)
        log = log_recorder(sim.engine)
        sends = [log_sends(sender) for sender in sim.senders]
        sim.run()
        return log.rows, sends

    trace_a, trace_b = trace(), trace()
    assert trace_a[0] and all(trace_a[1])
    assert trace_a == trace_b


# -- streaming metrics ----------------------------------------------------------

@st.composite
def step_logs(draw):
    start = draw(st.integers(min_value=0, max_value=1_000))
    end = start + draw(st.integers(min_value=1, max_value=1_000))
    # Steps land exactly on the window edges often, and repeat timestamps.
    times = draw(st.lists(st.one_of(st.sampled_from([0, start, end]),
                                    st.integers(min_value=0, max_value=end + 100)),
                          max_size=40))
    backlogs = st.integers(min_value=0, max_value=60).map(lambda k: k * 1518 // 2)
    steps = [(t, draw(backlogs)) for t in sorted(times)]
    capacity = draw(st.sampled_from([1_000_000, 40_000_000, 20_000_000_000]))
    return start, end, steps, capacity


@given(step_logs(), st.integers(min_value=0, max_value=40))
@example(log=(0, 20, [(19, 1518)], 40_000_000), read_at=0)  # 95% reached exactly
def test_meter_matches_sorting_reference(log, read_at):
    start, end, steps, capacity = log
    meter = Meter(start, end, n_flows=1)
    for i, (t, backlog) in enumerate(steps):
        if i == read_at:  # a mid-run read must not disturb what follows
            assert meter.queue_delay_stats(capacity) == reference_queue_delay_stats(
                steps[:i], capacity, start, end)
        meter.backlog(t, backlog)
        meter.departure(t, 0, backlog, backlog)
        meter.drop(t)
        meter.mark(t)
        meter.rto(t, 0)
    expected = reference_queue_delay_stats(steps, capacity, start, end)
    assert meter.queue_delay_stats(capacity) == expected
    assert meter.queue_delay_stats(capacity) == expected
    inside = [(t, b) for t, b in steps if start < t <= end]
    assert meter.drops == meter.marks == meter.rtos == meter.packets == len(inside)
    assert meter.flow_bytes == [sum(b for _, b in inside)]


def test_meter_takes_a_departures_step_before_end_and_counts_it_after_start():
    capacity = 40_000_000
    meter = Meter(start=100, end=200, n_flows=1)
    meter.departure(100, 0, 1518, 3_000)  # at start: the step applies, the frame does not count
    assert (meter.packets, meter.flow_bytes) == (0, [0])
    assert (meter._step_t, meter._step_backlog) == (100, 3_000)
    meter.departure(200, 0, 1518, 0)  # at end: the frame counts, the step is ignored
    assert (meter.packets, meter.flow_bytes) == (1, [1518])
    assert (meter._step_t, meter._step_backlog) == (100, 3_000)
    delay = transmission_time_ns(3_000 * 8, capacity)
    assert meter.queue_delay_stats(capacity) == (delay, delay)


def test_per_packet_objects_stay_on_the_fast_attribute_path():
    # CPython 3.11 shares an instance dict's keys with its class only below 30
    # keys (SHARED_KEYS_MAX_SIZE); an object that reaches it reads and writes
    # every attribute through a slower hinted lookup.  So the senders, with 30
    # attributes, are slotted, and every other per-packet object stays below 30.
    sim = Simulation(small_config()).run(500 * MS)
    for sender in sim.senders:
        assert not hasattr(sender, "__dict__")
        assert not hasattr(sender.rto_timer, "__dict__")
    hot = [*sim.receivers, *(sender.pacer for sender in sim.senders), sim.link, sim.meter,
           sim.engine]
    for obj in hot:
        assert len(vars(obj)) < 30, f"{type(obj).__name__} holds {len(vars(obj))} attributes"


def test_packets_and_acks_have_no_instance_dict():
    # Slotted like the senders, so every field read per packet is a slot read.
    sim = Simulation(small_config()).run(500 * MS)
    in_flight = [packet for sender in sim.senders for packet in sender.segments]
    assert in_flight
    for record in (*in_flight, Ack(0, 1460, False)):
        assert not hasattr(record, "__dict__")


def test_an_odd_base_rtt_splits_into_two_legs_that_add_up_to_it():
    sim = Simulation(small_config(base_rtt=1_000_001))
    assert (sim.link.prop_one_way_ns, sim.ack_delay_ns) == (500_000, 500_001)


def test_memory_does_not_grow_with_run_length():
    def peak_bytes(duration):
        tracemalloc.start()
        try:
            Simulation(small_config(duration=duration)).run().metrics()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak_bytes(2 * SEC), peak_bytes(8 * SEC)
    assert long < 1.5 * short


def test_region_grid_memory_does_not_grow_with_points(tmp_path):
    # Holding all 40,000 rows and then their joined text would peak near 10 MB here.
    tracemalloc.start()
    try:
        assert cli.main(["regions", "--rtt-min", "1ms", "--rtt-max", "100ms",
                         "--rate-min", "100kbps", "--rate-max", "100mbps", "--mss", "1460B",
                         "--points", "200", "--out", str(tmp_path / "grid.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# -- CLI ----------------------------------------------------------------------

def test_cli_floor_prints_value(capsys):
    rc = cli.main(["floor", "--capacity", "40mbps", "--flows", "12",
                   "--frame", "1518B", "--rtt", "6ms"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 1.65) <= 0.01


@pytest.mark.parametrize("flag, value", [
    ("--capacity", "0mbps"), ("--flows", "0"), ("--frame", "0B"), ("--rtt", "0ms"),
])
def test_cli_floor_nonpositive_argument_names_its_flag_and_fails(capsys, flag, value):
    args = {"--capacity": "40mbps", "--flows": "12", "--frame": "1518B", "--rtt": "6ms",
            flag: value}
    assert cli.main(["floor", *(item for pair in args.items() for item in pair)]) == 1
    assert capsys.readouterr().err == f"subpace: error: {flag[2:]}: must be positive, got 0\n"


def test_cli_run_writes_csv(tmp_path, capsys):
    scenario = tmp_path / "small.txt"
    scenario.write_text(SMALL.replace("duration = 4 s", "duration = 2 s")
                        .replace("warmup = 1 s", "warmup = 500 ms"))
    out_file = tmp_path / "metrics.csv"
    rc = cli.main(["run", str(scenario), "--out", str(out_file)])
    assert rc == 0
    body = out_file.read_text()
    assert body.startswith("mean_queue_delay_ns,")
    assert body.count("\n") == 2


def test_cli_run_seed_override_changes_output(tmp_path):
    scenario = tmp_path / "small.txt"
    scenario.write_text(SMALL.replace("duration = 4 s", "duration = 2 s")
                        .replace("warmup = 1 s", "warmup = 500 ms"))
    out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(["run", str(scenario), "--out", str(out_a)]) == 0
    assert cli.main(["run", str(scenario), "--out", str(out_b), "--seed", "123"]) == 0
    assert cli.main(["run", str(scenario), "--out", str(out_c), "--seed", "123"]) == 0
    assert out_a.read_text() != out_b.read_text()
    assert out_b.read_text() == out_c.read_text()


def test_cli_sweep(tmp_path):
    scenario = tmp_path / "small.txt"
    scenario.write_text(SMALL.replace("duration = 4 s", "duration = 2 s")
                        .replace("warmup = 1 s", "warmup = 500 ms"))
    out_file = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", str(scenario), "--vary", "sender_mode",
                   "--values", "baseline,submss", "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("sender_mode,")
    assert lines[1].startswith("baseline,")
    assert lines[2].startswith("submss,")


def test_cli_sweep_without_values_names_values_and_fails(tmp_path, capsys):
    scenario_file = tmp_path / "small.txt"
    scenario_file.write_text(SMALL)
    assert cli.main(["sweep", str(scenario_file), "--vary", "n_flows", "--values", ","]) == 1
    assert "values" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, named", [
    ("--points", "0", "points"),
    ("--points", str(MAX_GRID_POINTS + 1), "points"),  # checked before any row is built
    ("--rtt-min", "0ms", "rtt-min"),
    ("--rtt-min", "20ms", "rtt-max"),
    ("--rate-min", "20mbps", "rate-max"),
])
def test_cli_regions_bad_argument_names_its_flag_and_fails(capsys, flag, value, named):
    args = {"--rtt-min": "1ms", "--rtt-max": "10ms", "--rate-min": "1mbps",
            "--rate-max": "10mbps", "--mss": "1460B", "--points": "2", flag: value}
    assert cli.main(["regions", *(item for pair in args.items() for item in pair)]) == 1
    assert capsys.readouterr().err.startswith(f"subpace: error: {named}: ")


def test_cli_regions(capsys):
    # A cell exactly on the 1- or 2-MSS line counts as above it.
    for rate, ending in (("2mbps", ",1,1-2"), ("4mbps", ",2,>=2"), ("1999999bps", ",<1")):
        rc = cli.main(["regions", "--rtt-min", "6ms", "--rtt-max", "6ms",
                       "--rate-min", rate, "--rate-max", rate, "--mss", "1500B", "--points", "1"])
        assert rc == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "rtt_ns,rate_bps,window_mss,region"
        assert row.endswith(ending)


def test_cli_regions_into_a_reader_that_closes_early_exits_cleanly():
    # 300 points make 90,000 rows, far more than a pipe buffers before the reader closes.
    command = [sys.executable, "-m", "subpace.cli", "regions", "--rtt-min", "1ms",
               "--rtt-max", "100ms", "--rate-min", "100kbps", "--rate-max", "100mbps",
               "--mss", "1460B", "--points", "300"]
    env = {**os.environ, "PYTHONPATH": str(Path(subpace.__file__).resolve().parents[1])}
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as child:
        header = child.stdout.readline()
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=60) == 0
    assert header == b"rtt_ns,rate_bps,window_mss,region\n"
    assert stderr == b""


def test_cli_floor_and_regions_take_no_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["floor", "--capacity", "40mbps", "--flows", "12",
                  "--frame", "1518B", "--rtt", "6ms", "--seed", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["regions", "--rtt-min", "6ms", "--rtt-max", "6ms",
                  "--rate-min", "2mbps", "--rate-max", "2mbps", "--mss", "1500B",
                  "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_non_finite_number_reports_field_and_fails(tmp_path, capsys):
    scenario = tmp_path / "inf.txt"
    scenario.write_text(SMALL.replace("capacity = 10 mbps", "capacity = inf"))
    assert cli.main(["run", str(scenario)]) == 1
    assert "capacity" in capsys.readouterr().err


def test_cli_fractional_base_unit_reports_field_and_fails(tmp_path, capsys):
    scenario = tmp_path / "fractional.txt"
    scenario.write_text(SMALL.replace("smss = 1460 B", "smss = 1459.6 B"))
    assert cli.main(["run", str(scenario)]) == 1
    assert "smss" in capsys.readouterr().err


def test_cli_bad_config_reports_field_and_fails(tmp_path, capsys):
    scenario = tmp_path / "bad.txt"
    scenario.write_text(SMALL.replace("aqm_policy = ramp-mark", "aqm_policy = pie"))
    rc = cli.main(["run", str(scenario)])
    assert rc == 1
    assert "aqm_policy" in capsys.readouterr().err


def test_cli_missing_file_fails(capsys):
    assert cli.main(["run", "/nonexistent/path.txt"]) == 1


def test_cli_reports_a_protocol_error_and_fails(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise ProtocolError("flow 0: ACK for 3000 beyond snd_nxt 2920")

    monkeypatch.setattr(cli, "run_scenario", broken)
    scenario = tmp_path / "small.txt"
    scenario.write_text(SMALL)
    assert cli.main(["run", str(scenario)]) == 1
    assert capsys.readouterr().err == "subpace: error: flow 0: ACK for 3000 beyond snd_nxt 2920\n"


def test_config_and_metrics_survive_pickling_equal():
    # The sweep pool pickles each row's config to a worker and its metrics back.
    for cfg in (small_config(), parse_scenario_text(SMALL.replace("warmup = 1 s\n", ""))):
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg and copy._derived == cfg._derived
        assert copy != with_value(cfg, "seed", cfg.seed + 1)
    metrics = run_scenario(small_config(duration=2 * SEC, warmup=500 * MS))
    assert pickle.loads(pickle.dumps(metrics)) == metrics


def test_metrics_repr_names_every_field_and_records_compare_unequal_to_other_types():
    fields = dict(mean_queue_delay_ns=1, p95_queue_delay_ns=2, per_flow_throughput_bps=[3.0],
                  jain_fairness=1.0, total_drops=4, total_marks=5, total_rtos=6,
                  mean_pkts_per_rtt_per_flow=7.5)
    metrics = ScenarioMetrics(**fields)
    assert repr(metrics) == f"ScenarioMetrics({fields})"
    for record in (metrics, small_config()):
        assert record != object() and not record == object()


def test_config_error_survives_pickling():
    err = pickle.loads(pickle.dumps(ConfigError("n_flows", "must be positive")))
    assert type(err) is ConfigError
    assert err.field_name == "n_flows"
    assert str(err) == "n_flows: must be positive"


LINK_ARGS = dict(capacity_bps=10_000_000, buffer_limit=100_000, policy="ramp-mark",
                 target_delay_ns=5 * MS, ramp_ceiling_ns=10 * MS, prop_rtt_ns=MS,
                 max_frame=1518, deliver=[print])
SENDER_ARGS = dict(flow_id=0, mss=1460, frame_overhead=58, mode="submss",
                   cc_variant="reno-like", ecn_capable=True, w_min=22, transmit=print)


@pytest.mark.parametrize("make, field_name, message", [
    (lambda: AqmLink(Engine(), **{**LINK_ARGS, "policy": "codel"}),
     "aqm_policy", "expected one of drop-tail, red-drop, ramp-mark, got 'codel'"),
    (lambda: TcpSender(Engine(), **{**SENDER_ARGS, "cc_variant": "cubic"}),
     "cc_variant", "expected one of reno-like, dctcp-like, got 'cubic'"),
    (lambda: TcpSender(Engine(), **{**SENDER_ARGS, "w_min": 0}),
     "w_min", "must be at least 1 byte, got 0"),
    (lambda: TcpSender(Engine(), **{**SENDER_ARGS, "w_min": 1461}),
     "w_min", "must be at most one segment (1460 bytes), got 1461"),
    (lambda: TcpSender(Engine(), **{**SENDER_ARGS, "mss": 0}),
     "mss", "must be at least 1 byte, got 0"),
    (lambda: pkt_per_rtt_floor(0, 12, 1518, 6 * MS), "capacity", "must be positive, got 0"),
    (lambda: log_spaced(0, 1, 2, "rtt"), "rtt-min", "must be positive, got 0"),
    (lambda: window_region_grid((MS, 10 * MS), (10**6, 10**7), 1460, points=1001),
     "points", "must be at most 1000, got 1001"),
    (lambda: window_region_grid((MS, 10 * MS), (10**6, 10**7), 0, 25), "mss", "must be positive"),
    (lambda: parse_scenario_text(SMALL + "capacity = 20 mbps\n"), "capacity", "duplicate key"),
    (lambda: parse_scenario_text(SMALL + "ecn = maybe\n"),
     "ecn", "expected on/off, got 'maybe'"),
    (lambda: parse_scenario_text(SMALL.replace("10 mbps", "fast")),
     "capacity", "cannot parse 'fast'"),
    (lambda: parse_scenario_text(SMALL + "w_min_fraction = lots\n"),
     "w_min_fraction", "expected a number, got 'lots'"),
    (lambda: parse_scenario_text(SMALL + "w_min_fraction = 2\n"),
     "w_min_fraction", "must be in (0, 1]"),
    (lambda: parse_scenario_text(SMALL + "w_min_fraction = nan\n"),
     "w_min_fraction", "must be in (0, 1]"),
], ids=["link", "sender", "w_min", "w_min_above_mss", "mss", "floor", "log_spaced", "grid",
        "grid_mss", "duplicate", "bool", "unit", "float", "fraction_above_one", "fraction_nan"])
def test_every_bad_setting_raises_the_one_config_error_naming_its_field(make, field_name,
                                                                        message):
    # One `except ConfigError` catches a bad setting from a file, a flag or a constructor.
    assert subpace.ConfigError is subpace.config.ConfigError is subpace.engine.ConfigError
    with pytest.raises(ConfigError) as err:
        make()
    assert err.value.field_name == field_name
    assert str(err.value) == f"{field_name}: {message}"
