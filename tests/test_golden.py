"""Pinned CSV: every shipped scenario's metrics on a short run, one sweep, and
the README's `subpace regions` grid.

Each shipped scenario runs at seeds 1 and 2 with a 1 s warmup and a 4 s
duration, which covers the drop, mark, RTO and delayed-ACK paths.  The sweep
varies n_flows over 4 and 8 on broadband12_submss in the same window, so its
derived per-row seeds are pinned too.  A hash that stops matching means the
simulator's output changed.  Changing a hash here is a deliberate
re-baseline: the ROADMAP contract asks that such a change go in its own
change, with the reason written in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from subpace import cli
from subpace.config import load_scenario, with_values
from subpace.engine import SEC
from subpace.scenario import render_metrics_csv, render_sweep_csv, run_scenario, sweep

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

GOLDEN_SHA256 = {
    ("broadband12", 1): "eaeb6256b3e775dfbd9e890b75176c5c34f02002b14e902bc7fc29c17f1d4e3b",
    ("broadband12", 2): "721cca6d69b633c81ef26330e7bf24b6922d0de22e2dd39f0587a0e4d7fbdce1",
    ("broadband12_reddrop", 1): "a45e533e8063abc9599fbb66f2a9e7180a245c1da3e4c18921fe061fa306cad2",
    ("broadband12_reddrop", 2): "125d0c777458d6f904b4270dd9bc60cd6998491a651d7bbfc4888db0ef2df113",
    ("broadband12_submss", 1): "076514948a17a7257d7e04789b9bfba7554afa56d6ffccbb467a6a2551e0a678",
    ("broadband12_submss", 2): "e9ce12b769ae54c200cc341a0043de136472c8fca81e86c6824c26affadfca91",
    ("broadband12_submss_nodelack", 1):
        "706359a98d349feaebd54b02ebaa3489170602a9478d8d58caaf64a1f32f914f",
    ("broadband12_submss_nodelack", 2):
        "d8fe09dabe618d918330202de75b30ccd99cd95f1d2354248eca73b40f702e67",
}

SWEEP_SHA256 = "b19225782ace6ad25b101517812d15f5272ff7248948805d22686c964318a85f"

REGIONS_ARGS = ["regions", "--rtt-min", "1ms", "--rtt-max", "100ms",
                "--rate-min", "100kbps", "--rate-max", "100mbps", "--mss", "1460B"]
REGIONS_SHA256 = "d603a659c0b1d32f47e748fcd76df110d211f905a2b4427822b51029e481ad8a"


def test_every_shipped_scenario_is_pinned():
    assert {name for name, _ in GOLDEN_SHA256} == {p.stem for p in SCENARIO_DIR.glob("*.txt")}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_SHA256))
def test_short_run_csv_matches_pinned_hash(name, seed):
    cfg = with_values(load_scenario(SCENARIO_DIR / f"{name}.txt"),
                      warmup=1 * SEC, duration=4 * SEC, seed=seed)
    csv = render_metrics_csv(run_scenario(cfg))
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_SHA256[(name, seed)]


def test_short_sweep_csv_matches_pinned_hash():
    cfg = with_values(load_scenario(SCENARIO_DIR / "broadband12_submss.txt"),
                      warmup=1 * SEC, duration=4 * SEC)
    csv = render_sweep_csv("n_flows", sweep(cfg, "n_flows", ["4", "8"]))
    assert hashlib.sha256(csv.encode()).hexdigest() == SWEEP_SHA256


def test_readme_regions_csv_matches_pinned_hash(tmp_path):
    out = tmp_path / "regions.csv"
    assert cli.main([*REGIONS_ARGS, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REGIONS_SHA256


@pytest.mark.parametrize("argv", [
    [*REGIONS_ARGS, "--points", "0"],
    ["sweep", str(SCENARIO_DIR / "broadband12.txt"), "--vary", "n_flows", "--values", "4,0"],
])
def test_a_rejected_command_leaves_its_out_file_unchanged(tmp_path, capsys, argv):
    # The CSV streams into --out, so every argument must be checked before it is opened.
    out = tmp_path / "kept.csv"
    out.write_bytes(b"earlier,output\n")
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert out.read_bytes() == b"earlier,output\n"
    assert capsys.readouterr().err.startswith("subpace: error: ")
