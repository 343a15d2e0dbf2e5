"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The demonstration runs use
the shipped scenario files; tolerances are fixed here, not tuned per run.
"""

import hashlib
import statistics
from collections import defaultdict
from pathlib import Path

import pytest
from conftest import FixedWindowSender, log_recorder, log_sends, rto_timers

from subpace import cli
from subpace.analysis import balance_rtt_ns
from subpace.config import ScenarioConfig, load_scenario
from subpace.endpoint import RTO_MAX, Ack
from subpace.engine import MS, SEC, Engine
from subpace.pacing import pacing_delay
from subpace.scenario import Simulation, render_metrics_csv, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def baseline_sim():
    return Simulation(load_scenario(SCENARIO_DIR / "broadband12.txt")).run()


def run_logging_sends(name: str):
    """Run a shipped scenario with flow 0's sends logged; returns (sim, sends)."""
    sim = Simulation(load_scenario(SCENARIO_DIR / name))
    sends = log_sends(sim.senders[0])
    return sim.run(), sends


@pytest.fixture(scope="module")
def submss_run():
    return run_logging_sends("broadband12_submss.txt")


@pytest.fixture(scope="module")
def submss_sim(submss_run):
    return submss_run[0]


@pytest.fixture(scope="module")
def nodelack_run():
    return run_logging_sends("broadband12_submss_nodelack.txt")


@pytest.fixture(scope="module")
def reddrop_run():
    sim = Simulation(load_scenario(SCENARIO_DIR / "broadband12_reddrop.txt"))
    log = log_recorder(sim.engine)
    return sim.run(), log


def post_warmup_gaps(run) -> list[int]:
    sim, sends = run
    times = [t for (t, _, _, _) in sends if t > sim.cfg.warmup]
    return [b - a for a, b in zip(times, times[1:])]


def test_acceptance_1_floor_arithmetic(capsys):
    rc = cli.main(["floor", "--capacity", "40mbps", "--flows", "12",
                   "--frame", "1518B", "--rtt", "6ms"])
    assert rc == 0
    printed = float(capsys.readouterr().out.strip())
    assert abs(printed - 1.65) <= 0.01
    with capsys.disabled():
        report(1, f"floor(40Mb/s, 12, 1518B, 6ms) prints {printed:.4f} = 1.65 +- 0.01")


def test_acceptance_2_standing_queue_baseline_ecn(baseline_sim):
    cfg = baseline_sim.cfg
    metrics = baseline_sim.metrics()
    # Closed-form balance oracle: every flow pinned at two frames per round
    # trip fills the link when the RTT grows to R* = 2nP*8/C.
    r_star_ns = balance_rtt_ns(cfg.capacity, cfg.n_flows, cfg.frame_size)
    expected_qd = r_star_ns - cfg.base_rtt
    assert abs(metrics.mean_queue_delay_ns - expected_qd) <= 0.15 * expected_qd
    assert metrics.mean_queue_delay_ns > cfg.aqm_target  # standing queue
    assert metrics.total_drops == 0  # ECN: shared without any losses
    assert abs(metrics.mean_pkts_per_rtt_per_flow - 2.0) <= 0.15
    window_s = (cfg.duration - cfg.warmup) / SEC
    assert metrics.total_throughput_bps <= cfg.capacity + cfg.frame_size * 8 / window_s
    report(2, f"baseline+ECN standing queue: mean {metrics.mean_queue_delay_ns / MS:.2f} ms "
              f"vs balance {expected_qd / MS:.2f} ms, zero drops, "
              f"{metrics.mean_pkts_per_rtt_per_flow:.2f} pkt/RTT")


def test_acceptance_3_submss_restores_target(submss_sim):
    cfg = submss_sim.cfg
    metrics = submss_sim.metrics()
    assert abs(metrics.mean_queue_delay_ns - cfg.aqm_target) <= 0.20 * cfg.aqm_target
    assert metrics.total_throughput_bps >= 0.95 * cfg.capacity
    assert metrics.jain_fairness >= 0.95
    assert metrics.mean_pkts_per_rtt_per_flow < 2.0
    report(3, f"submss+ECN at target: mean {metrics.mean_queue_delay_ns / MS:.2f} ms "
              f"(target {cfg.aqm_target / MS:.0f} ms), "
              f"util {metrics.total_throughput_bps / cfg.capacity:.3f}, "
              f"Jain {metrics.jain_fairness:.3f}, "
              f"{metrics.mean_pkts_per_rtt_per_flow:.2f} pkt/RTT")


def _interval_rig(window: int, rtt: int, until: int, mss: int = 1460) -> list[int]:
    """Send times, to `until`, of a sender with a fixed window over a wire that
    ACKs every segment one RTT later; no RTO fires before RTO_MAX."""
    engine = Engine()
    sends = []

    def wire(packet):
        sends.append(engine.now)
        ack = Ack(0, packet.end_bytes, False)
        engine.schedule(engine.now + rtt, sender.on_ack)[3] = ack

    sender = FixedWindowSender(engine, 0, mss=mss, frame_overhead=58, mode="submss",
                               cc_variant="reno-like", ecn_capable=False, w_min=1,
                               transmit=wire)
    sender.window = window
    with rto_timers(RTO_MAX, RTO_MAX):
        sender.app_write(1 << 40)
        engine.run_until(until)
    return sends


def test_acceptance_4_exact_interval_law():
    rtt, mss = 6 * MS, 1460
    window = 730
    sends = _interval_rig(window, rtt, 13_000 * MS, mss)
    gaps = {b - a for a, b in zip(sends, sends[1:])}
    assert len(sends) > 1000
    assert gaps == {rtt + pacing_delay(mss, window, rtt)}  # every gap s*R/W exactly

    sends2 = _interval_rig(window // 2, rtt, 26_000 * MS, mss)
    halved_gaps = {b - a for a, b in zip(sends2, sends2[1:])}
    assert halved_gaps == {2 * (rtt + pacing_delay(mss, window, rtt))}
    report(4, f"interval law: {len(sends)} emissions all exactly s*R/W = "
              f"{(rtt + pacing_delay(mss, window, rtt)) / MS:.1f} ms; "
              f"halving W doubles it exactly")


def test_acceptance_5_continuity_at_boundary():
    seg, rtt = 1518, 6 * MS
    windows = [max(1, round(k * seg / 64)) for k in range(1, 65)]
    assert windows[-1] == seg
    delays = [pacing_delay(seg, w, rtt) for w in windows]
    assert all(a >= b for a, b in zip(delays, delays[1:]))  # monotone to zero
    assert delays[-1] == 0  # exactly zero at W = s
    assert pacing_delay(seg, seg + 1, rtt) == 0
    report(5, "pacing delay falls monotonically over a 64-point ramp and is 0 at W = s")


def test_acceptance_6_delayed_ack_pairing(submss_run, nodelack_run):
    submss_sim, nodelack_sim = submss_run[0], nodelack_run[0]
    cfg = submss_sim.cfg
    on_metrics = submss_sim.metrics()
    off_metrics = nodelack_sim.metrics()

    mean_on = on_metrics.total_throughput_bps / cfg.n_flows
    mean_off = off_metrics.total_throughput_bps / cfg.n_flows
    assert abs(mean_on - mean_off) / mean_off < 0.05
    fair = cfg.capacity / cfg.n_flows
    assert min(on_metrics.per_flow_throughput_bps) > 0.5 * fair
    assert min(off_metrics.per_flow_throughput_bps) > 0.5 * fair

    # Pairing: with delayed ACKs the 2-segment grants send back to back, so a
    # large share of inter-send gaps collapse toward zero (bimodal gaps).
    def short_fraction(run):
        gaps = post_warmup_gaps(run)
        return sum(1 for g in gaps if g < 200_000) / len(gaps)

    def half_ratio(run):
        gaps = sorted(post_warmup_gaps(run))
        half = len(gaps) // 2
        return statistics.mean(gaps[half:]) / max(statistics.mean(gaps[:half]), 1)

    frac_on, frac_off = short_fraction(submss_run), short_fraction(nodelack_run)
    assert frac_on >= 0.25
    assert frac_on >= 2 * frac_off
    assert half_ratio(submss_run) >= 1.5
    report(6, f"delayed-ACK pairing: per-flow rate differs {abs(mean_on - mean_off) / mean_off:.2%}; "
              f"back-to-back gap share {frac_on:.2f} (on) vs {frac_off:.2f} (off)")


@rto_timers(10 * MS, 1 * SEC)
def test_acceptance_7_backoff_replacement():
    cfg = ScenarioConfig(
        capacity=2_000_000, n_flows=1, frame_size=1518, smss=1460,
        base_rtt=6 * MS, aqm_policy="ramp-mark", aqm_target=1 * MS,
        aqm_ceiling=2 * MS, buffer_limit=30_000, sender_mode="submss",
        cc_variant="dctcp-like", ecn=True, delayed_acks=False,
        duration=24 * SEC, warmup=2 * SEC, seed=3, w_min_fraction=1.0 / 1024,
    )
    sim = Simulation(cfg)
    sender = sim.senders[0]
    sends = log_sends(sender)
    sim.run(10 * SEC)  # settle into a sub-segment window

    # Black-hole the ACK path, to study timer behaviour under total loss of
    # feedback: each receiver's ACKs go nowhere until its `send_ack` is rebound.
    return_acks = [receiver.send_ack for receiver in sim.receivers]
    for receiver in sim.receivers:
        receiver.send_ack = lambda ack: None
    mark = len(sends)
    sim.run(16 * SEC)
    retx_times = [t for (t, _, _, retx) in sends[mark:] if retx]
    assert len(retx_times) >= 7
    intervals = [b - a for a, b in zip(retx_times, retx_times[1:])]
    ratios = [b / a for a, b in zip(intervals, intervals[1:])]
    assert abs(ratios[4] - 2.0) <= 0.2  # within 10% of doubling by the 5th

    # Path heals: the first ACK through must promptly enable the next send.
    for receiver, send_ack in zip(sim.receivers, return_acks):
        receiver.send_ack = send_ack
    ack_seen = []
    on_ack = sim.on_ack[sender.flow_id]

    def spy(ack):  # takes this flow's place in the simulation's per-flow ACK dispatch
        if not ack_seen:
            ack_seen.append(sim.engine.now)
        on_ack(ack)

    sim.on_ack[sender.flow_id] = spy
    sends_before = len(sends)
    sim.run(24 * SEC)
    assert ack_seen, "no ACK arrived after the path was restored"
    next_sends = [t for (t, _, _, _) in sends[sends_before:] if t >= ack_seen[0]]
    assert next_sends and next_sends[0] - ack_seen[0] <= 1 * MS
    report(7, f"backoff replacement: retransmission interval ratios "
              f"{[round(r, 2) for r in ratios[:5]]} -> 2; one ACK re-enables sending "
              f"within {(next_sends[0] - ack_seen[0]) / MS:.3f} ms")


def test_acceptance_8_non_ecn_red_drop(reddrop_run):
    reddrop_sim, log = reddrop_run
    cfg = reddrop_sim.cfg
    metrics = reddrop_sim.metrics()
    assert metrics.total_rtos > 0
    assert metrics.total_drops > 0
    assert metrics.mean_queue_delay_ns > cfg.aqm_target  # queue still over target

    # Shuffling: in most one-second slices some flow runs far below its share
    # while others progress (timeout lulls versus catch-up bursts).
    bins = defaultdict(lambda: [0] * cfg.n_flows)
    for t, flow_id, size, _ in log.of("departure"):
        if t > cfg.warmup:
            bins[t // SEC][flow_id] += size
    starved = 0
    for counts in bins.values():
        fair = sum(counts) / cfg.n_flows
        if fair > 0 and min(counts) < 0.3 * fair:
            starved += 1
    assert starved >= len(bins) // 2
    report(8, f"red-drop/no-ECN: {metrics.total_rtos} timeouts, mean queue "
              f"{metrics.mean_queue_delay_ns / MS:.2f} ms > target "
              f"{cfg.aqm_target / MS:.0f} ms, flow starvation in {starved}/{len(bins)} slices")


def test_acceptance_9_determinism(baseline_sim):
    first = render_metrics_csv(baseline_sim.metrics())
    rerun = run_scenario(load_scenario(SCENARIO_DIR / "broadband12.txt"))
    assert render_metrics_csv(rerun) == first  # byte-identical CSV
    report(9, "same scenario and seed reproduce byte-identical CSV")


# SHA-256 of each shipped scenario's metrics CSV at its own 60 s and seed 1.
SHIPPED_60S_SHA256 = {
    "broadband12": "0a1d58eb34f15f574886dd8db8506ca6d0832ff9bfcf1d3a0f8f2444b95e9000",
    "broadband12_submss": "10a201545ff32c72dc729496ef262feadedfaeded6b32aef4c5adc94785e2045",
    "broadband12_submss_nodelack":
        "2cb37aa5d330b7e82c64243a972cd4c2bda2fd208c9b2843d98f4007bd666612",
    "broadband12_reddrop": "d40ca72497ffc240264e43f04301dedf3aa8583583c28467270fa099f0b059da",
}


def test_shipped_scenarios_keep_their_pinned_csv(baseline_sim, submss_run, nodelack_run,
                                                 reddrop_run):
    """Not a criterion: the fixtures' full runs, hashed, so no CSV byte moves unnoticed.

    The flow-0 send log and the logging recorder observe and change no output.
    """
    sims = [baseline_sim, submss_run[0], nodelack_run[0], reddrop_run[0]]
    got = {name: hashlib.sha256(render_metrics_csv(sim.metrics()).encode()).hexdigest()
           for name, sim in zip(SHIPPED_60S_SHA256, sims)}
    assert got == SHIPPED_60S_SHA256
