"""A whole `Simulation` built from the references gives the optimized run's output.

`EagerTimer` replaces `engine.Timer` in the sender, receiver and pacer, and
`EventLink` replaces `netpath.AqmLink`, for this test only.
"""

from pathlib import Path

import pytest
from conftest import log_recorder
from reference import EagerTimer, EventLink

from subpace import endpoint, pacing, scenario
from subpace.config import load_scenario, with_value
from subpace.engine import MS, SEC
from subpace.scenario import Simulation, render_metrics_csv

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def csv_and_rows(cfg):
    """The metrics CSV of one run and its recorder rows, stably in time order.

    The optimized link reports a departure when it retires it, after events
    that came later; in time order, the two streams match row for row.
    """
    sim = Simulation(cfg)
    log = log_recorder(sim.engine)
    csv = render_metrics_csv(sim.run().metrics())
    return csv, sorted(log.rows, key=lambda row: row[1]), sim


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.txt")), ids=lambda path: path.stem)
def test_reference_simulation_matches_the_optimized_one(monkeypatch, path):
    cfg = with_value(with_value(load_scenario(path), "warmup", 500 * MS), "duration", 2 * SEC)
    csv, rows, _ = csv_and_rows(cfg)
    monkeypatch.setattr(endpoint, "Timer", EagerTimer)
    monkeypatch.setattr(pacing, "Timer", EagerTimer)
    monkeypatch.setattr(scenario, "AqmLink", EventLink)
    reference_csv, reference_rows, reference = csv_and_rows(cfg)
    assert isinstance(reference.link, EventLink)
    assert all(isinstance(timer, EagerTimer) for timer in (
        reference.senders[0].rto_timer, reference.senders[0].pacer.timer,
        reference.receivers[0].delack_timer))
    assert reference_csv == csv
    assert reference_rows == rows
