import ast
import cProfile
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import pairwise, takewhile
from pathlib import Path

import pytest
from conftest import FixedWindowSender, examples, log_recorder, rto_timers
from hypothesis import example, given, settings, strategies as st

from subpace.config import load_scenario, with_values
from subpace.endpoint import (
    INITIAL_RTT,
    RTO_INITIAL,
    RTO_MAX,
    RTO_MIN,
    Ack,
    ProtocolError,
    TcpReceiver,
    TcpSender,
)
from subpace.engine import MS, SEC, Engine
from subpace.netpath import Packet
from subpace.pacing import pacing_delay
from subpace.scenario import Simulation

M = 1460
OVERHEAD = 58
FAR_FUTURE = RTO_MAX


def make_sender(engine, transmit, mode="submss", ecn=True, cc="reno-like", w_min=M // 64,
                grow=True):
    """A flow-0 sender; with grow=False its window stays where the test sets it."""
    return (TcpSender if grow else FixedWindowSender)(
        engine,
        flow_id=0,
        mss=M,
        frame_overhead=OVERHEAD,
        mode=mode,
        cc_variant=cc,
        ecn_capable=ecn,
        w_min=w_min,
        transmit=transmit,
    )


def ack_for(sender, nbytes, ece=False):
    return Ack(0, min(sender.snd_una + nbytes, sender.snd_nxt), ece)


class LoopbackRig:
    """Sender wired to an auto-ACKing sink a fixed RTT away."""

    def __init__(self, rtt=6 * MS, mode="submss", delayed_acks=False):
        self.engine = Engine()
        self.rtt = rtt
        self.sends = []
        self.sender = make_sender(self.engine, self._transmit, mode=mode, grow=False)
        self.receiver = TcpReceiver(self.engine, 0, self._return_ack, delayed_acks=delayed_acks)

    def _transmit(self, packet):
        self.sends.append((self.engine.now, packet))
        self.engine.schedule(self.engine.now + self.rtt // 2, self.receiver.on_segment)[3] = packet

    def _return_ack(self, ack):
        self.engine.schedule(self.engine.now + self.rtt // 2, self.sender.on_ack)[3] = ack


# -- window clocking ----------------------------------------------------------

def test_send_decrements_window_below_zero():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, grow=False)
    sender.window = M // 2
    sender.app_write(10 * M)
    engine.run_until(1 * SEC)  # pacer wait elapses, one segment goes out
    assert sender.window == M // 2 - M  # "This makes W negative"
    assert sender.window > -M


def test_ack_restores_negative_window():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, grow=False)
    sender.window = M // 2
    sender.app_write(10 * M)
    engine.run_until(1 * SEC)
    assert sender.window == -(M // 2)
    sender.on_ack(Ack(0, M, False))
    assert sender.window == M // 2  # positive again, still below one segment


def test_single_ack_restores_presend_window():
    # Clocking conservation: send then full cumulative ACK is a round trip
    # back to the pre-send window when no congestion response intervenes.
    # The window is fixed, every segment is ACKed at once and nothing is
    # marked, so just after each ACK (a wait for the short window still
    # pending) the window is back at its pre-send 900 bytes.
    rig = LoopbackRig()
    after_acks = []

    def ack_and_sample(ack):
        rig.sender.on_ack(ack)
        after_acks.append(rig.sender.window)

    def return_ack(ack):  # the rig's return path, sampling the window after each ACK
        rig.engine.schedule(rig.engine.now + rig.rtt // 2, ack_and_sample)[3] = ack

    rig.receiver.send_ack = return_ack
    rig.sender.window = 900
    rig.sender.app_write(50 * M)
    rig.engine.run_until(200 * MS)
    assert len(after_acks) > 1
    assert after_acks == [900] * len(after_acks)


def test_ack_for_unsent_data_fails_loudly():
    engine = Engine()
    sender = make_sender(engine, lambda p: None)
    sender.app_write(3 * M)
    engine.run_until(1 * MS)
    with pytest.raises(ProtocolError):
        sender.on_ack(Ack(0, sender.snd_nxt + 1, False))


# -- app writes ---------------------------------------------------------------

def test_app_write_small_payload_segment():
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, grow=False)
    sender.app_write(500)
    engine.run_until(1 * MS)
    assert sent[0].size - OVERHEAD == 500  # s = min(M, snd_q)


def test_app_writes_coalesce():
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, grow=False)
    sender.window = 0  # hold the first send until both writes queue
    sender.app_write(700)
    sender.app_write(800)
    sender.window = 2 * M
    sender._pump(engine.now)
    engine.run_until(1 * MS)
    assert sent[0].size - OVERHEAD == M  # 1460 from the coalesced 1500


def test_app_write_rejects_a_byte_count_that_is_not_positive():
    sender = make_sender(Engine(), lambda p: None)
    with pytest.raises(ValueError, match="positive byte count"):
        sender.app_write(0)
    assert sender.snd_q == 0


def test_bulk_write_accumulates_snd_q():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, grow=False)
    sender.window = 0
    sender.app_write(10**9)
    assert sender.snd_q == 10**9


# -- congestion responses -----------------------------------------------------

def test_baseline_floor_binds_on_ece():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, mode="baseline")
    sender.slow_start = False
    sender.window = 2 * M
    sender.app_write(10 * M)
    engine.run_until(1 * MS)
    sender.on_ack(Ack(0, M, True))
    assert sender.conceptual_window == 2 * M  # halved then rounded back up to the floor


def test_baseline_loss_halves_with_floor():
    for start, expected in ((10 * M, 5 * M), (3 * M, 2 * M)):
        engine = Engine()
        sender = make_sender(engine, lambda p: None, mode="baseline")
        sender.slow_start = False
        sender.window = start
        sender.app_write(40 * M)
        engine.run_until(1 * MS)
        for _ in range(3):
            sender.on_ack(Ack(0, 0, False))  # duplicate ACKs
        assert sender.conceptual_window == expected


def test_submss_ece_halves_below_one_segment():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, grow=False)
    sender.window = M // 4
    sender.app_write(10 * M)
    sender.on_ack(Ack(0, 0, True))
    assert sender.window == M // 8


def test_submss_loss_halves_below_one_segment():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, grow=False)
    sender.window = M
    sender.app_write(10 * M)
    engine.run_until(1 * MS)  # one segment out
    for _ in range(3):
        sender.on_ack(Ack(0, 0, False))
    # conceptual window (clocking balance + flight credit) halves to M/2
    assert sender.conceptual_window == M // 2


def test_reno_reduction_at_most_once_per_rtt():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, grow=False)
    sender.srtt = 6 * MS
    sender.window = M // 4  # below one segment: nothing sends, no dup ACKs
    sender.app_write(10 * M)
    sender.on_ack(Ack(0, 0, True))
    sender.on_ack(Ack(0, 0, True))  # same RTT: ignored
    assert sender.window == M // 8
    engine.run_until(7 * MS)  # move past the gate
    sender.on_ack(Ack(0, 0, True))
    assert sender.window == M // 16


def test_slow_start_exits_on_first_signal():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, mode="baseline")
    assert sender.slow_start
    sender.app_write(10 * M)
    engine.run_until(1 * MS)
    sender.on_ack(Ack(0, M, True))
    assert not sender.slow_start


@pytest.mark.parametrize("mode", ["baseline", "submss"])
def test_slow_start_grows_by_the_bytes_acked_below_one_segment(mode):
    # RFC 5681 byte counting: each ACK grows the window by what it covers, at most one MSS.
    engine = Engine()
    sender = make_sender(engine, lambda p: None, mode=mode)
    sender.app_write(M + 100)
    engine.run_until(1 * MS)
    assert sender.snd_nxt == M + 100
    sender.on_ack(Ack(0, M, False))
    assert sender.conceptual_window == 3 * M
    sender.on_ack(Ack(0, M + 100, False))
    assert sender.slow_start
    assert sender.conceptual_window == 3 * M + 100


def test_congestion_avoidance_grows_a_quarter_window_per_rtt_below_4_mss_and_one_mss_above():
    # An RTT ACKs one conceptual window.  Below 4 MSS that adds a quarter of
    # it (x1.25 per RTT); at or above 4 MSS it adds one MSS.
    engine = Engine()
    sender = make_sender(engine, lambda p: None, mode="baseline")
    sender.slow_start = False
    sender.window = 100 * M
    sender.app_write(100 * M)  # every segment goes out at t = 0
    sender.window = M - sender.unreclaimed  # a one-MSS congestion window; nothing more sends
    windows = [sender.conceptual_window]
    while windows[-1] < 8 * M:
        engine.run_until(engine.now + 1 * MS)
        sender.on_ack(Ack(0, sender.snd_una + windows[-1], False))
        windows.append(sender.conceptual_window)
    assert sender.snd_nxt == 100 * M  # the ACKs sent nothing
    assert windows[:7] == [1460, 1825, 2281, 2851, 3563, 4453, 5566]
    for before, after in pairwise(windows):
        assert after == before + (before // 4 if before < 4 * M else M)


def test_dctcp_alpha_update_and_cut():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, cc="dctcp-like", grow=False)
    sender.window = 8 * M
    sender.app_write(100 * M)
    engine.run_until(1 * MS)  # a window of segments goes out
    flight = sender.unreclaimed
    conceptual = sender.conceptual_window
    # Ack the whole window, every byte marked: F = 1 for this round.
    sender.on_ack(Ack(0, flight, True))
    assert sender.dctcp_alpha == pytest.approx(1.0 / 16.0)
    expected = conceptual - round(conceptual * sender.dctcp_alpha / 2)
    grown = sender.conceptual_window
    assert grown == expected


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=200))
def test_dctcp_alpha_stays_in_unit_interval(fractions):
    alpha = 0.0
    for f in fractions:
        alpha += (1.0 / 16.0) * (f - alpha)
        assert 0.0 <= alpha <= 1.0


# -- invariant checks ---------------------------------------------------------
# Raised as ProtocolError rather than asserted, so they still run under -O.

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so an invariant checked by one would vanish.
    for path in sorted((SRC / "subpace").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name}: assert on lines {asserts}"


def test_package_names_no_setting_in_a_plain_value_error():
    # A bad setting raises ConfigError(field_name, message), so one `except
    # ConfigError` catches it and `field_name` names it; a plain ValueError is
    # left for broken preconditions.  Placeholders read as "{}", so a message
    # like f"{name}: ..." or "%s: %s" is caught too.
    def template(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.replace("%s", "{}")
        if isinstance(node, ast.JoinedStr):
            return "".join(template(part) if isinstance(part, ast.Constant) else "{}"
                           for part in node.values)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            return template(node.left)
        return ""

    named = []
    for path in sorted((SRC / "subpace").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            call = node.exc if isinstance(node, ast.Raise) else None
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "ValueError" and call.args
                    and re.match(r"(?:[\w-]|\{\})+: ", template(call.args[0]))):
                named.append(f"{path.name}:{node.lineno}")
    assert named == []


def test_package_has_no_generated_functions():
    # Code generated at import (as `dataclasses` does) costs start-up time and
    # shows in profiles as `<string>`, where functions of different classes
    # share one key.
    package = SRC / "subpace"
    generated = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"subpace.{path.stem}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for name, value in vars(cls).items():
                code = getattr(getattr(value, "fget", value), "__code__", None)
                if code is not None and Path(code.co_filename).resolve().parent != package:
                    generated.append(f"{cls.__qualname__}.{name} in {code.co_filename}")
    assert generated == []


# The functions every packet or ACK runs: each function of the package that
# a run calls at least once per four frames enqueued.  CPython 3.11
# specializes neither a call to builtin min/max nor a call that passes keyword
# arguments, and each costs several times a plain comparison or a positional
# call.
PER_PACKET_FUNCTIONS = {
    "netpath.py": ["AqmLink.enqueue", "AqmLink.retire", "AqmLink._drop", "Packet.__init__"],
    "scenario.py": ["Meter.backlog", "Meter.departure", "Meter.mark", "Meter.drop",
                    "Simulation._return_ack"],
    "endpoint.py": [
        "TcpSender._send", "TcpSender._pump", "TcpSender._next_segment", "TcpSender.on_ack",
        "TcpSender._take_rtt_sample", "TcpSender._grow", "TcpSender.current_rto",
        "TcpSender._on_pacer_ready", "TcpSender._dctcp_account", "TcpSender._apply_conceptual",
        "TcpSender.conceptual_window", "TcpSender.in_flight", "TcpSender.rtt",
        "TcpReceiver.on_segment", "TcpReceiver._emit_ack", "Ack.__init__",
    ],
    "pacing.py": ["Pacer.request", "Pacer.window_changed", "Pacer.waiting", "pacing_delay",
                  "segment_size"],
    "engine.py": [
        "Engine.schedule", "Engine.run_until", "Timer.set", "Timer._fire", "Timer.cancel",
        "Timer.stop", "div_round_half_up", "_cancelled",
    ],
}


def test_per_packet_functions_list_every_function_a_frame_runs():
    # 1 s runs of the three scenario kinds, profiled: a package function
    # called once per four frames or more is per-packet work.
    listed = {(module, name) for module, names in PER_PACKET_FUNCTIONS.items() for name in names}
    package = SRC / "subpace"
    for name in ("broadband12", "broadband12_reddrop", "broadband12_submss"):
        cfg = with_values(load_scenario(SRC.parent / "scenarios" / f"{name}.txt"),
                          seed=1, warmup=250 * MS, duration=SEC)
        profiler = cProfile.Profile(subcalls=False)
        profiler.enable()
        Simulation(cfg).run().metrics()
        profiler.disable()
        calls = Counter()
        for entry in profiler.getstats():
            path = Path(getattr(entry.code, "co_filename", "")).resolve()
            if path.parent == package:
                calls[path.name, entry.code.co_qualname] += entry.callcount
        frames = calls["netpath.py", "AqmLink.enqueue"]
        assert frames > 1_000
        hot = {function for function, n in calls.items() if 4 * n >= frames}
        assert sorted(hot - listed) == [], f"{name}: per-packet functions missing from the list"


def sender_attribute_uses(attr: str) -> dict[str, set[str]]:
    """The TcpSender methods that load or store `self.<attr>`, keyed "Load" and "Store"."""
    path = SRC / "subpace" / "endpoint.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    sender = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "TcpSender")
    uses = {}
    for method in (node for node in sender.body if isinstance(node, ast.FunctionDef)):
        for node in ast.walk(method):
            if (isinstance(node, ast.Attribute) and node.attr == attr
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                uses.setdefault(type(node.ctx).__name__, set()).add(method.name)
    return uses


def test_only_apply_conceptual_reads_the_senders_floor():
    # The floor is applied in one place, so the window cannot be lowered
    # past it by a second copy of the clamp.
    assert sender_attribute_uses("floor") == {"Load": {"_apply_conceptual"}, "Store": {"__init__"}}


def test_only_enter_recovery_starts_a_loss_episode():
    # Fast retransmit and both RTO responses open their loss episode through
    # one method, so none can leave slow start on or forget to resend the head.
    assert sender_attribute_uses("recovery_until")["Store"] == {"__init__", "_enter_recovery"}


def per_packet_function_nodes():
    """(module, name, AST node) of each function PER_PACKET_FUNCTIONS lists."""
    for module, names in PER_PACKET_FUNCTIONS.items():
        path = SRC / "subpace" / module
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            functions.update((f"{cls.name}.{node.name}", node) for node in cls.body
                             if isinstance(node, ast.FunctionDef))
        for name in names:
            assert name in functions, f"{module}: no function {name}"
            yield module, name, functions[name]


def test_per_packet_functions_call_no_min_or_max_and_pass_no_keywords():
    for module, name, function in per_packet_function_nodes():
        calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)]
        min_max = [call.lineno for call in calls
                   if isinstance(call.func, ast.Name) and call.func.id in ("min", "max")]
        keywords = [call.lineno for call in calls if call.keywords]
        assert min_max == [], f"{module} {name}: builtin min/max on lines {min_max}"
        assert keywords == [], f"{module} {name}: keyword arguments on lines {keywords}"


def test_per_packet_functions_build_no_partial_or_lambda():
    # An event's argument rides in its heap entry, so no per-event callable is built.
    for module, name, function in per_packet_function_nodes():
        built = [node.lineno for node in ast.walk(function)
                 if isinstance(node, ast.Lambda) or isinstance(node, ast.Call) and "partial" in (
                     getattr(node.func, "id", None), getattr(node.func, "attr", None))]
        assert built == [], f"{module} {name}: partial(...) or lambda on lines {built}"


OPTIMIZED_ACK_CHECK = """
from subpace.endpoint import Ack, ProtocolError, TcpSender
from subpace.engine import Engine
engine = Engine()
sender = TcpSender(engine, flow_id=0, mss=1460, frame_overhead=58, mode="submss",
                   cc_variant="reno-like", ecn_capable=True, w_min=22, transmit=lambda p: None)
sender.app_write(3 * 1460)
engine.run_until(1_000_000)
try:
    sender.on_ack(Ack(0, sender.snd_nxt + 1, False))
except ProtocolError as exc:
    print(exc)
"""


def test_ack_beyond_snd_nxt_raises_under_python_O():
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_ACK_CHECK], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert "beyond snd_nxt" in out.stdout


def test_send_to_minus_mss_raises():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, grow=False)
    sender.snd_q = M
    sender.window = 0
    with pytest.raises(ProtocolError):
        sender._send(engine.now, False, M)  # would leave the window at exactly -MSS


SENDER_STEPS = st.one_of(
    st.tuples(st.just("write"), st.integers(min_value=1, max_value=20 * M)),
    st.tuples(st.just("ack"), st.integers(min_value=0, max_value=8), st.booleans()),
    st.tuples(st.just("dup"), st.booleans()),
    st.tuples(st.just("wait"), st.integers(min_value=0, max_value=200 * MS)),
)


@settings(deadline=None, max_examples=examples(60))
@given(st.sampled_from(["baseline", "submss"]), st.sampled_from(["reno-like", "dctcp-like"]),
       st.integers(1, M), st.lists(SENDER_STEPS, max_size=60))
@example("baseline", "reno-like", 1, [("write", 1), ("wait", 50 * MS)])  # an RTO fires
@example("baseline", "reno-like", 1, [("write", M), ("wait", MS), ("ack", 1, False)])  # pipe drains
# The head is ACKed while its retransmission waits, and nothing is left to send.
@example("submss", "reno-like", 1, [("write", M), ("wait", 150 * MS), ("ack", 1, False)])
# A duplicate ACK after the pipe drains: the RTO timer stays stopped.
@example("baseline", "reno-like", 1,
         [("write", M), ("wait", MS), ("ack", 1, False), ("dup", False)])
def test_window_accounting_invariants_hold_for_any_ack_sequence(mode, cc, w_min, steps):
    engine = Engine()
    balances = []  # the window right after each new-data send

    def transmit(packet):
        assert packet.end_bytes > packet.seq_bytes  # every send carries payload
        if not packet.is_retransmission:
            balances.append(sender.window)

    sender = make_sender(engine, transmit, mode=mode, cc=cc, w_min=w_min)
    assert sender.conceptual_window >= sender.floor >= 1
    with rto_timers(50 * MS, 50 * MS):
        for step in steps:
            if step[0] == "write":
                sender.app_write(step[1])
            elif step[0] == "ack":  # cumulative ACK to the end of a segment sent before now
                _, count, ece = step
                sent = takewhile(lambda p: p.sent_at < engine.now, sender.segments)
                covered = list(sent)[:count]
                acked = covered[-1].end_bytes if covered else sender.snd_una
                sender.on_ack(Ack(0, acked, ece))
            elif step[0] == "dup":
                sender.on_ack(Ack(0, sender.snd_una, step[1]))
            else:
                engine.run_until(engine.now + step[1])
            # After a reduction with a full pipe the balance sits far below zero;
            # only a new-data send is bound to leave it above -MSS.
            assert all(balance > -M for balance in balances)
            assert sender.conceptual_window >= sender.floor >= 1
            # The RTO timer is armed only while data is in flight, dup ACKs included.
            assert sender.rto_timer.deadline is None or sender.in_flight > 0
            # A wait is pending only while there is a segment for it to send, and
            # it is priced for the current window from its epoch (or due at once).
            assert not sender.pacer.waiting or sender._next_segment()[1] > 0
            if sender.pacer.waiting:
                pacer = sender.pacer
                due = pacer.epoch + pacing_delay(sender._next_segment()[1], sender.window,
                                                 sender.rtt())
                assert pacer.timer.deadline == (due if due > engine.now else engine.now)
            assert sender.snd_una <= sender.snd_nxt
            if mode == "baseline":
                assert sender.unreclaimed == sender.in_flight
            # The retained segments tile the unacknowledged range, each in one frame.
            segments = sender.segments
            assert (not segments) == (sender.snd_una == sender.snd_nxt)
            if segments:
                assert segments[0].seq_bytes <= sender.snd_una < segments[0].end_bytes
                assert all(a.end_bytes == b.seq_bytes for a, b in pairwise(segments))
                assert segments[-1].end_bytes == sender.snd_nxt
            assert all(p.size == p.end_bytes - p.seq_bytes + OVERHEAD for p in segments)


@pytest.mark.parametrize("w_min", [0, -1, M + 1, 3 * M])
def test_sender_rejects_w_min_outside_one_byte_to_one_segment(w_min):
    with pytest.raises(ValueError, match="w_min"):
        make_sender(Engine(), lambda p: None, w_min=w_min)


def test_rto_constants_order_floor_initial_and_ceiling():
    assert 0 < RTO_MIN <= RTO_INITIAL <= RTO_MAX
    assert (RTO_MIN, RTO_INITIAL) == (200 * MS, 1 * SEC)


def test_a_patched_rto_constant_moves_the_next_armed_rto():
    # current_rto reads RTO_MIN and RTO_INITIAL when it runs, so a sender built
    # before the constants change arms its next timer from the new values.
    engine = Engine()
    sender = make_sender(engine, lambda p: None, mode="baseline")
    with rto_timers(RTO_MIN, 3 * SEC):
        sender.app_write(M)  # the initial window sends it at once
    assert sender.rto_timer.deadline == 3 * SEC
    engine.run_until(6 * MS)
    sender.on_ack(Ack(0, M, False))  # a 6 ms sample; nothing is left in flight
    assert sender.rto_timer.deadline is None and sender.srtt == 6 * MS
    with rto_timers(300 * MS, RTO_INITIAL):
        sender.app_write(M)
    assert sender.rto_timer.deadline == 6 * MS + 300 * MS


# -- retransmission timeouts --------------------------------------------------

def test_baseline_rto_resets_to_floor_and_doubles_timer():
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, mode="baseline")
    log = log_recorder(engine)
    sender.slow_start = False
    sender.window = 8 * M
    sender.app_write(100 * M)
    engine.run_until(1 * MS)
    before = sender.current_rto()
    engine.run_until(2_500 * MS)  # exactly one RTO fires, no ACKs ever arrive
    assert log.of("rto")
    assert sender.conceptual_window == 2 * M
    assert sender.current_rto() == min(2 * before, 60 * SEC)
    assert any(p.is_retransmission for p in sent)


@rto_timers(200 * MS, 200 * MS)
def test_baseline_rto_backoff_stops_at_256():
    # A 200 ms base keeps 256 backoffs (51.2 s) under RTO_MAX, so the cap
    # itself shows: the retransmission gaps double eight times, then plateau.
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, mode="baseline")
    sender.app_write(M)  # no ACK ever arrives
    engine.run_until(300 * SEC)
    times = [p.sent_at for p in sent if p.is_retransmission]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps[:8] == [200 * MS * 2**k for k in range(1, 9)]
    assert gaps[8:] and set(gaps[8:]) == {256 * 200 * MS}
    assert sender.rto_backoff == 256


@rto_timers(50 * MS, 50 * MS)
def test_submss_rto_sequence_halves_window_geometrically():
    # Three consecutive timeouts with no ACKs: the window halves each time,
    # M/2 -> M/4 -> M/8 -> M/16, with no timer doubling anywhere.
    engine = Engine()
    windows = []
    sender = make_sender(engine, lambda p: None, grow=False, w_min=M // 64)
    sender.window = M // 2
    original = sender.rto_timer.action

    def spy():
        original()
        windows.append(sender.window)

    sender.rto_timer.action = spy  # the timer looks its action up on every firing
    sender.app_write(M)
    engine.run_until(300 * SEC)
    assert windows[:3] == [M // 4, M // 8, M // 16]
    assert sender.rto_backoff == 1  # the growing wait replaces timer backoff


@rto_timers(50 * MS, 50 * MS)
def test_submss_rto_retransmissions_are_paced_and_window_untouched():
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, grow=False)
    sender.window = M // 2
    sender.app_write(M)
    engine.run_until(500 * MS)
    retx = [p for p in sent if p.is_retransmission]
    assert retx  # timeouts retransmit through the pacer
    # retransmissions do not decrement the clocking balance
    assert sender.window > 0


@rto_timers(50 * MS, 50 * MS)
def test_one_ack_after_blackout_restores_sending():
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, grow=False)
    sender.window = M // 2
    sender.app_write(100 * M)
    engine.run_until(2 * SEC)  # several RTOs, window deeply suppressed
    assert sender.window < M // 4
    count = len(sent)
    sender.on_ack(Ack(0, M, False))  # one ACK for the first segment
    engine.run_until(engine.now + 1 * MS)
    assert len(sent) > count  # a (re)transmission went out promptly


def test_fast_retransmit_sends_a_fresh_packet():
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, mode="baseline")
    sender.slow_start = False
    sender.window = 4 * M
    sender.app_write(10 * M)
    original = sent[0]
    original.ce_marked = True  # as the link would mark it in flight
    engine.run_until(5 * MS)
    for _ in range(3):
        sender.on_ack(Ack(0, 0, False))
    resent = sent[4]
    assert resent is not original and sender.segments[0] is resent
    assert (resent.seq_bytes, resent.size) == (original.seq_bytes, original.size)
    assert resent.is_retransmission and not resent.ce_marked
    assert resent.sent_at == engine.now == 5 * MS
    assert original.ce_marked and not original.is_retransmission and original.sent_at == 0


@rto_timers(50 * MS, 50 * MS)
def test_head_acked_while_its_retransmission_waits_is_not_resent():
    # submss: an RTO makes the head due while the pacer holds the next send,
    # then an ACK covers the head before the wait fires.
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, grow=False)
    sender.window = M // 2
    sender.app_write(100 * M)
    engine.run_until(100 * MS)  # the first wait elapses; segment 0 goes out
    assert [p.seq_bytes for p in sent] == [0]
    engine.run_until(150 * MS)  # the RTO fires and the pacer arms a wait
    assert sender.retx_head and sender.pacer.waiting
    assert sent[1:] == []
    engine.run_until(200 * MS)
    sender.on_ack(Ack(0, M, False))
    assert not sender.retx_head
    engine.run_until(2 * SEC)
    assert sent[1].seq_bytes == M and sent[1].sent_at == 200 * MS
    assert [p for p in sent if p.seq_bytes == 0 and p.is_retransmission] == []


@pytest.mark.parametrize("at, grows", [(15 * MS, False), (25 * MS, True)])
def test_ece_gate_holds_growth_until_it_ends(at, grows):
    # reno-like: an ECE halves the window and gates growth for one RTT (10 ms
    # here).  An ACK covering more than the window then grows it by one MSS,
    # but only once the gate has ended.
    engine = Engine()
    sender = make_sender(engine, lambda p: None, mode="baseline")
    sender.window = 40 * M
    sender.app_write(100 * M)  # 40 segments at t = 0
    engine.run_until(10 * MS)
    sender.on_ack(Ack(0, M, True))
    assert sender.conceptual_window == 20 * M and sender.ece_gate_until == 20 * MS
    engine.run_until(at)
    sender.on_ack(Ack(0, 22 * M, False))  # 21 segments, more than the 20-segment window
    assert sender.conceptual_window == (21 if grows else 20) * M


def test_mid_segment_ack_pops_nothing_and_takes_no_sample():
    engine = Engine()
    sender = make_sender(engine, lambda p: None)
    sender.app_write(M)
    engine.run_until(10 * MS)
    sender.on_ack(Ack(0, M // 2, False))
    assert sender.snd_una == M // 2 and len(sender.segments) == 1 and sender.srtt is None
    engine.run_until(20 * MS)
    sender.on_ack(Ack(0, M, False))  # the segment's end: popped, and sampled
    assert not sender.segments and sender.srtt == 20 * MS


# -- RTT estimation -----------------------------------------------------------

def test_srtt_ewma_arithmetic():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, grow=False)
    sender.window = 10 * M
    sender.app_write(100 * M)
    engine.run_until(0)
    engine.run_until(10 * MS)
    sender.on_ack(Ack(0, M, False))  # first sample: srtt = r, rttvar = r/2
    assert sender.srtt == 10 * MS
    assert sender.rttvar == 5 * MS
    engine.run_until(26 * MS)
    sender.on_ack(Ack(0, 2 * M, False))  # second sample r = 26 ms
    assert sender.rttvar == (3 * 5 * MS + abs(10 * MS - 26 * MS)) // 4
    assert sender.srtt == (7 * 10 * MS + 26 * MS) // 8


def test_pacer_waits_use_initial_rtt_then_the_smoothed_rtt():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, grow=False)
    sender.window = M // 2
    sender.app_write(M)
    first_wait = pacing_delay(M, M // 2, INITIAL_RTT)  # no RTT sample yet
    assert sender.rtt() == INITIAL_RTT
    assert sender.pacer.timer.deadline == first_wait
    engine.run_until(first_wait)  # the wait elapses and the segment goes out
    assert sender.snd_nxt == M and sender.window == -M // 2
    engine.run_until(first_wait + 10 * MS)
    sender.on_ack(Ack(0, M, False))  # first sample: srtt = 10 ms
    assert sender.srtt == 10 * MS and sender.rtt() == sender.srtt
    assert sender.window == M // 2 and not sender.pacer.waiting
    sender.app_write(M)
    assert sender.pacer.timer.deadline == engine.now + pacing_delay(M, M // 2, sender.srtt)


def test_karn_rule_skips_retransmitted_segments():
    engine = Engine()
    sender = make_sender(engine, lambda p: None, grow=False)
    sender.window = M
    sender.app_write(M)
    engine.run_until(1 * MS)
    sender.segments[0].is_retransmission = True
    engine.run_until(50 * MS)
    sender.on_ack(Ack(0, M, False))
    assert sender.srtt is None  # no sample taken


def test_srtt_converges_to_true_path_rtt():
    # Steady one-segment-at-a-time flow over a fixed path: the smoothed
    # estimate locks onto the true round trip exactly (EWMA of a constant).
    rig = LoopbackRig(rtt=6 * MS)
    rig.sender.window = 730
    rig.sender.app_write(100 * M)
    rig.engine.run_until(2 * SEC)
    assert rig.sender.srtt == 6 * MS


@rto_timers(1, FAR_FUTURE)
def test_rto_keeps_a_one_ns_variance_floor():
    # RFC 6298's clock granularity G: on a constant path rttvar decays to 0,
    # and with rto_min below the RTT only G keeps the RTO above srtt.
    rig = LoopbackRig(rtt=6 * MS)
    rig.sender.window = 730
    rig.sender.app_write(100 * M)
    rig.engine.run_until(2 * SEC)
    assert rig.sender.rttvar == 0
    assert rig.sender.current_rto() - rig.sender.srtt == 1


# -- steady-state rate --------------------------------------------------------

def test_long_run_rate_matches_window_over_rtt():
    # W/R law, delayed ACKs off, strictly sub-segment window, >= 50 intervals.
    for window in (584, 900):
        rig = LoopbackRig(rtt=6 * MS)
        rig.sender.window = window
        rig.sender.app_write(10**9)
        rig.engine.run_until(5 * SEC)
        times = [t for t, p in rig.sends]
        assert len(times) > 50
        span = times[-1] - times[0]
        rate = (len(times) - 1) * M / (span / SEC)  # payload bytes per second
        expected = window * SEC / (6 * MS)  # W/R in bytes per second
        assert rate == pytest.approx(expected, rel=0.05)


# -- receiver -----------------------------------------------------------------

class ReceiverRig:
    def __init__(self, delayed=True):
        self.engine = Engine()
        self.acks = []
        self.receiver = TcpReceiver(self.engine, 0,
                                    lambda a: self.acks.append((self.engine.now, a)),
                                    delayed_acks=delayed)

    def segment(self, seq, payload=M, ce=False):
        # The receiver reads the byte range, never the frame size.
        self.receiver.on_segment(Packet(flow_id=0, seq_bytes=seq, end_bytes=seq + payload,
                                        size=1518, ecn_capable=True, ce_marked=ce))


def test_delayed_ack_every_second_segment():
    rig = ReceiverRig()
    rig.segment(0)
    assert rig.acks == []
    rig.segment(M)
    assert len(rig.acks) == 1
    assert rig.acks[0][1].ack_bytes == 2 * M


def test_delack_timer_fires_at_40ms():
    rig = ReceiverRig()
    rig.segment(0)
    rig.engine.run_until(100 * MS)
    assert len(rig.acks) == 1
    assert rig.acks[0][0] == 40 * MS


def test_delayed_acks_disabled_acks_every_segment():
    rig = ReceiverRig(delayed=False)
    rig.segment(0)
    rig.segment(M)
    assert [a.ack_bytes for _, a in rig.acks] == [M, 2 * M]


def test_out_of_order_elicits_immediate_duplicate_ack():
    rig = ReceiverRig()
    rig.segment(0)
    rig.segment(M)
    rig.segment(3 * M)  # hole at 2M
    assert len(rig.acks) == 2
    assert rig.acks[-1][1].ack_bytes == 2 * M  # duplicate of the cumulative point


def test_hole_fill_acks_immediately_and_jumps():
    rig = ReceiverRig()
    rig.segment(0)
    rig.segment(M)
    rig.segment(3 * M)
    rig.segment(2 * M)  # fills the hole
    assert rig.acks[-1][1].ack_bytes == 4 * M


def test_shorter_copy_of_a_buffered_segment_keeps_the_longer_range():
    rig = ReceiverRig()
    rig.segment(M, payload=2 * M)  # out of order: buffers [M, 3M)
    rig.segment(M)  # a shorter copy from the same start, [M, 2M)
    assert [a.ack_bytes for _, a in rig.acks] == [0, 0]  # each re-ACKed at once
    rig.segment(0)  # fills the hole
    assert rig.receiver.rcv_nxt == 3 * M
    assert rig.acks[-1][1].ack_bytes == 3 * M


def test_ece_echo_latched_until_next_ack():
    rig = ReceiverRig()
    rig.segment(0, ce=True)
    rig.segment(M)
    assert rig.acks[0][1].ece is True
    rig.segment(2 * M)
    rig.segment(3 * M)
    assert rig.acks[1][1].ece is False


@pytest.mark.parametrize("payload", [0, -M])
def test_receiver_rejects_a_segment_that_carries_no_payload(payload):
    rig = ReceiverRig()
    with pytest.raises(ProtocolError, match="flow 0: segment carries no payload"):
        rig.segment(M, payload=payload)
    assert rig.receiver.rcv_nxt == 0 and rig.acks == []


def test_stale_duplicate_segment_reacked():
    rig = ReceiverRig(delayed=False)
    rig.segment(0)
    rig.segment(0)  # spurious retransmission
    assert [a.ack_bytes for _, a in rig.acks] == [M, M]


RECEIVER_STEPS = st.one_of(
    st.tuples(st.just("in_order"), st.integers(1, M), st.booleans()),
    # from rcv_nxt + gap
    st.tuples(st.just("ahead"), st.integers(1, 4 * M), st.integers(1, M), st.booleans()),
    # again from the start of a segment sent ahead, any length
    st.tuples(st.just("again"), st.integers(0, 7), st.integers(1, M), st.booleans()),
    # from below rcv_nxt, ending before or past it
    st.tuples(st.just("stale"), st.integers(1, 4 * M), st.integers(1, M), st.booleans()),
    st.tuples(st.just("wait"), st.integers(0, 100 * MS)),
)


def contiguous_prefix(ranges) -> int:
    """The end of the byte run from 0 that the ranges cover without a gap."""
    edge = 0
    for seq, end in sorted(ranges):
        if seq > edge:
            break
        edge = max(edge, end)
    return edge


@settings(deadline=None, max_examples=examples(100))
@given(st.booleans(), st.lists(RECEIVER_STEPS, max_size=50))
@example(True, [("in_order", M, False), ("wait", 50 * MS)])  # the delayed-ACK timer fires
@example(False, [("in_order", M, False), ("stale", 1, M, False)])  # a stale range ends ahead
def test_receiver_invariants_hold_for_any_segment_sequence(delayed, steps):
    engine = Engine()
    delivered, ahead = [], []  # every byte range handed over; starts sent past rcv_nxt
    ce_since_ack = False

    def send_ack(ack):
        nonlocal ce_since_ack
        assert ack.ack_bytes == receiver.rcv_nxt <= contiguous_prefix(delivered)
        assert ack.ece == ce_since_ack
        ce_since_ack = False

    receiver = TcpReceiver(engine, 0, send_ack, delayed_acks=delayed)
    for step in steps:
        rcv_nxt, ooo = receiver.rcv_nxt, dict(receiver._ooo)
        if step[0] == "wait":
            engine.run_until(engine.now + step[1])
        else:
            *_, payload, ce = step
            if step[0] == "in_order":
                seq = rcv_nxt
            elif step[0] == "ahead":
                seq = rcv_nxt + step[1]
                ahead.append(seq)
            elif step[0] == "again":
                starts = [seq for seq in ahead if seq > rcv_nxt]
                seq = starts[step[1] % len(starts)] if starts else rcv_nxt
            else:
                seq = max(0, rcv_nxt - step[1])
            delivered.append((seq, seq + payload))
            ce_since_ack |= ce
            receiver.on_segment(Packet(0, seq, seq + payload, payload + OVERHEAD, True, ce))
            if seq < rcv_nxt:  # stale: nothing below rcv_nxt is ever absorbed, so none is buffered
                assert receiver._ooo == ooo
        # The delayed-ACK timer runs exactly while a segment awaits its ACK.
        assert (receiver.delack_timer.deadline is not None) == (receiver.pending_segments > 0)
        assert receiver.pending_segments < receiver.ack_every
        assert receiver.rcv_nxt >= rcv_nxt


# -- try_send contract ----------------------------------------------------------

def test_baseline_bulk_sends_full_window_back_to_back():
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, mode="baseline")
    sender.slow_start = False
    sender.window = 4 * M
    sender.app_write(10**9)
    assert len(sent) == 4  # four maximum-size segments, same instant
    assert all(p.size - OVERHEAD == M for p in sent)


@rto_timers(FAR_FUTURE, FAR_FUTURE)  # no RTO may resend in the 1 s without ACKs
def test_baseline_full_window_blocks_emission():
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, mode="baseline")
    sender.slow_start = False
    sender.window = 2 * M
    sender.app_write(10**9)
    assert len(sent) == 2  # in_flight reached W; nothing more until an ACK
    engine.run_until(1 * SEC)
    assert len(sent) == 2


def test_submss_window_deficit_schedules_wait_not_send():
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, grow=False)
    sender.window = M // 2
    sender.app_write(10**9)
    assert sent == []  # no immediate emission
    assert sender.pacer.waiting  # a pacer wait is scheduled instead


def test_submss_window_above_segment_sends_without_wait():
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append, grow=False)
    sender.window = 3 * M
    sender.app_write(M)
    assert len(sent) == 1
    assert sender.window == 2 * M  # decremented by s, no wait involved
    assert not sender.pacer.waiting


@rto_timers(50 * MS, 50 * MS)
def test_ack_that_leaves_nothing_to_send_disarms_a_pending_wait():
    # Two submss RTOs halve the window below one segment, so the second
    # retransmission waits.  The late ACK of the original then covers the head
    # and no new data is queued: the wait goes and nothing more is sent.
    engine = Engine()
    sent = []
    sender = make_sender(engine, sent.append)
    sender.app_write(M)  # the initial two-segment window sends it at once
    engine.run_until(150 * MS)  # RTOs at 50 ms (window M, resent at once) and 100 ms (M/2)
    assert [p.sent_at for p in sent] == [0, 50 * MS]
    assert sender.conceptual_window == M // 2 and sender.retx_head and sender.pacer.waiting
    deadline = sender.pacer.timer.deadline
    assert deadline == 100 * MS + pacing_delay(M, M // 2, INITIAL_RTT)
    sender.on_ack(Ack(0, M, False))
    assert not sender.pacer.waiting and sender.pacer.timer.deadline is None
    engine.run_until(deadline + 1 * SEC)
    assert [p.sent_at for p in sent] == [0, 50 * MS]
