"""The per-layer tracer in perfbench/ still sees the simulator's entry points.

perfbench/tracer.py splits a run into layers by wrapping named entry points
of the simulator.  A refactor that stops calling one of them would empty its
layer without an error.  So a short traced run, in a child process because
the tracer patches classes in place, must call every wrapped entry point and
give the same metrics CSV as the untraced run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from subpace.config import load_scenario, with_value
from subpace.engine import SEC
from subpace.scenario import render_metrics_csv, run_scenario

ROOT = Path(__file__).resolve().parents[1]
WARMUP, DURATION = SEC // 2, 2 * SEC
COMMON = ("on_ack", "on_segment", "enqueue", "schedule", "cancel")

TRACED_RUN = """
import json, sys
import tracer
from subpace.config import load_scenario, with_value
from subpace.scenario import render_metrics_csv, run_scenario

spans = tracer.Tracer()
tracer.install(spans)
path, warmup, duration, *names = sys.argv[1:]
cfg = with_value(load_scenario(path), "warmup", int(warmup))
cfg = with_value(cfg, "duration", int(duration))
csv = render_metrics_csv(run_scenario(cfg))
calls = {name: spans.calls(name) for name in names}
print(json.dumps({"csv": csv, "calls": calls, "counts": spans.counts}))
"""


def check_traced_run(name, entry_points, counters=()):
    """Trace a short run of a shipped scenario; its CSV must equal the untraced
    one, and each named entry point and tracer counter must be non-zero."""
    scenario = ROOT / "scenarios" / f"{name}.txt"
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    args = [str(scenario), str(WARMUP), str(DURATION), *entry_points]
    child = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, *args],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    traced = json.loads(child.stdout)

    cfg = with_value(with_value(load_scenario(scenario), "warmup", WARMUP), "duration", DURATION)
    assert traced["csv"] == render_metrics_csv(run_scenario(cfg))
    assert [entry for entry, calls in traced["calls"].items() if calls == 0] == []
    assert [counter for counter in counters if traced["counts"].get(counter, 0) == 0] == []


def test_traced_run_calls_every_entry_point_and_keeps_the_csv():
    check_traced_run("broadband12_submss", ("request", "window_changed", "pacing_delay", *COMMON))


def test_traced_red_drop_run_covers_the_loss_path():
    # The pacer is idle here; endpoint.retx_ratio reads Packet.is_retransmission
    # at enqueue, so a send path that stops flagging retransmissions reads 0.
    check_traced_run("broadband12_reddrop", COMMON, ("retransmissions",))
