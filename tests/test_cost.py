"""The exact call counts of short runs equal the ledger, COST.json.

`tools/cost.py` counts the Python calls of 2 s runs of three shipped
scenarios under cProfile.  The counts depend on the code and the
interpreter, not on the host's speed, so they are pinned like the metrics
CSV hashes: a change that moves them records the new counts with
`python3 tools/cost.py --write` and gives old -> new in CHANGES.md.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_call_counts_equal_the_ledger():
    # A fresh, isolated interpreter without site hooks: in this process the
    # profile would also count callbacks other libraries hang on the garbage
    # collector (hypothesis does), and those fire only after earlier tests.
    out = subprocess.run([sys.executable, "-I", "-S", str(ROOT / "tools" / "cost.py"), "--json"],
                         capture_output=True, text=True, check=True)
    ((interpreter, counts),) = json.loads(out.stdout).items()
    ledger = json.loads((ROOT / "COST.json").read_text(encoding="utf-8"))
    if interpreter not in ledger:
        pytest.skip(f"COST.json pins counts for {', '.join(sorted(ledger))}, not for "
                    f"{interpreter}, and another interpreter makes other calls")
    assert counts == ledger[interpreter], (
        "call counts moved: record them with `python3 tools/cost.py --write` "
        "and give old -> new in CHANGES.md")
