"""Self-tests of the benchmark harness, without running the simulator.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import run
import tracer

HERE = Path(__file__).resolve().parent

GOOD_CSV = (
    "mean_queue_delay_ns,p95_queue_delay_ns,throughput_bps_total,throughput_bps_min,"
    "throughput_bps_max,jain_fairness,total_drops,total_marks,total_rtos,"
    "mean_pkts_per_rtt_per_flow\n"
    "5000000,6000000,3.9e+07,3.2e+06,3.3e+06,0.999,0,100,0,1.2\n"
)


class StepClock:
    """A clock that advances by a fixed step on every reading."""

    def __init__(self, step):
        self.now, self.step = 0, step

    def __call__(self):
        self.now += self.step
        return self.now


def test_self_time_subtracts_nested_spans():
    t = tracer.Tracer(clock=StepClock(10))
    leaf = t.wrap("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    t.call("outer", t.wrap("middle", middle))
    # Each span reads the clock twice, and the clock steps 10 ns per reading:
    # leaf spans last 10 ns; middle covers its own two readings' step plus
    # both leaves' four readings; outer covers middle's readings plus one step.
    assert t.calls("leaf") == 2
    assert t.stats["leaf"] == [2, 20, 20]
    assert t.stats["middle"] == [1, 50, 30]
    assert t.stats["outer"] == [1, 70, 20]
    assert t.self_s("outer", "middle", "leaf") * 1e9 == t.total_s("outer") * 1e9


def test_self_time_survives_an_exception():
    t = tracer.Tracer(clock=StepClock(1))

    def boom():
        raise ValueError

    try:
        t.call("outer", t.wrap("inner", boom))
    except ValueError:
        pass
    assert t.stats["inner"] == [1, 1, 1]
    assert t.stats["outer"] == [1, 3, 2]
    assert t._open == []


def test_quartiles_follow_statistics_quantiles():
    assert run.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (1.5, 3.0, 4.5)
    assert run.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert run.quartiles([7.0]) == (7.0, 7.0, 7.0)


def _record(csvs):
    return {"csvs": csvs, "hashes": run.csv_hashes(csvs), "ok": all(map(run.csv_is_sane, csvs))}


def test_matching_reference_passes():
    good = _record([GOOD_CSV])
    assert run.grade([good, good], run.csv_hashes([GOOD_CSV])) == (2, 0)


def test_wrong_reference_hash_fails_every_run():
    good = _record([GOOD_CSV])
    attempted, failed = run.grade([good, good], ["0" * 64])
    assert failed / attempted == 1.0


def test_without_reference_runs_must_agree():
    other = GOOD_CSV.replace("0.999", "0.998")
    records = [_record([GOOD_CSV, GOOD_CSV]), _record([GOOD_CSV, other]), None]
    # The second record's second row differs; the crashed run loses both rows.
    assert run.grade(records, None) == (6, 3)


def test_malformed_csv_fails():
    bad = GOOD_CSV.replace("0.999", "nan")
    assert not run.csv_is_sane(bad)
    assert run.grade([_record([bad])], None) == (1, 1)


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = list(tracer.layer_metrics(tracer.Tracer(), 0.0)) + ["trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracer.unit(name) for name in layer_names
    }


def test_every_layer_metric_is_attributed_once():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    attribution = json.loads((HERE / "attribution.json").read_text())
    attributed = [name for layer in attribution["layers"].values() for name in layer["metrics"]]
    assert sorted(attributed) == sorted(m["name"] for m in spec["per_layer"])
    assert set(attribution["workloads"]) == set(run.WORKLOADS)
