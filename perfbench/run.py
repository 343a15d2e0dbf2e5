"""Benchmark of the subpace simulator: speed, memory and set-up per workload.

    python3 perfbench/run.py --workload submss_ecn --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the simulator is imported from its `src/`.
Each workload is a batch job run closed-loop, one process at a time: every
timed run is a fresh child process (child.py), so peak RSS and set-up time
belong to that run alone.  Runs repeat until `--seconds` is used up, at least
MIN_RUNS times, and each metric is the median over runs.  Extra child
processes that only import and build give set-up time more samples.

The host's speed drifts by up to a fifth within minutes, and host times
drift with it.  So a fixed pure-Python loop is timed before and after each
run and its set-up samples, and `sim_s_per_s` and `setup_s` are scaled to a
host that runs the loop in CALIBRATION_REF_S.  The table also prints them
unscaled.

Every run's metrics CSV (one per sweep row) is hashed and checked against
reference.json where it holds the seed, and against the run's other
repetitions always.  A run fails if its child raises or a hash differs.

`--trace 1` runs untraced and traced children in pairs instead, checks that
their CSV hashes agree, and reports the per-layer metrics of the traced runs
(tracer.py) plus the tracing overhead.  End-to-end metrics never come from
traced runs.

The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it are a readable table.
"""

import argparse
import hashlib
import heapq
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

WORKLOADS = ("submss_ecn", "reddrop_loss", "sweep_flows")
END_TO_END = {"sim_s_per_s": "s/s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_RUNS = 3
SETUP_PROBES_PER_RUN = 3
TIME_LIMIT_S = 170  # the whole benchmark must end within 180 s
CALIBRATION_REF_S = 0.11  # about what calibrate() took on a 2-core x86-64 VM, Python 3.11


def calibrate():
    """Host seconds, right now, for a fixed loop of heap, tuple and dict work."""
    heap, seen = [], {}
    start = time.perf_counter()
    for i in range(100_000):
        heapq.heappush(heap, ((i * 7919) % 100_003, i, (i, i & 7)))
        seen[i & 1023] = i
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - start


def quartiles(values):
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def csv_hashes(csvs):
    return [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in csvs]


def csv_is_sane(text):
    """A metrics CSV: one header and one row of finite numbers, with a plausible fairness."""
    lines = text.splitlines()
    if len(lines) != 2:
        return False
    header, row = lines[0].split(","), lines[1].split(",")
    try:
        values = dict(zip(header, (float(cell) for cell in row), strict=True))
    except ValueError:
        return False
    return (
        all(math.isfinite(v) and v >= 0 for v in values.values())
        and 0 < values.get("jain_fairness", 0) <= 1
        and values.get("throughput_bps_total", 0) > 0
    )


def grade(records, expected):
    """(attempted, failed) rows of `records` against the reference hashes `expected`.

    A record is a child's result, or None when the child failed; it holds one
    metrics CSV per row, and every row counts as one attempted run.  A row
    fails if its child failed, or its CSV is malformed or differs from
    `expected`.  When the seed has no reference (`expected` is None), the
    first complete record stands in for it, so the repetitions must agree.
    """
    rows = max((len(r["csvs"]) for r in records if r is not None), default=1)
    if expected is None:
        expected = next((r["hashes"] for r in records if r is not None and r["ok"]), None)
    failed = 0
    for record in records:
        if record is None or expected is None or len(record["hashes"]) != len(expected):
            failed += rows
            continue
        failed += sum(
            1
            for got, want, text in zip(record["hashes"], expected, record["csvs"])
            if got != want or not csv_is_sane(text)
        )
    return rows * len(records), failed


def child(mode, workload, seed, deadline):
    """Run child.py once; its result, with CSV hashes added, or None if it failed."""
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"{mode} child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    if "csvs" in result:
        result["hashes"] = csv_hashes(result["csvs"])
        result["ok"] = all(csv_is_sane(text) for text in result["csvs"])
    return result


def run_workload(workload, seed, seconds, trace):
    """Repeat runs until `seconds` have passed; returns (runs, traced runs, set-up records).

    Each untraced record carries `host_factor`: the calibration time around
    it over CALIBRATION_REF_S, above 1 on a host slower than the reference.
    """
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    # An untimed first child leaves the byte-code cache warm, as users have it.
    child("setup", workload, seed, deadline)
    runs, traced, setups = [], [], []
    while True:
        began = time.monotonic()
        before = calibrate()
        run = child("run", workload, seed, deadline)
        probes = [] if trace else [
            child("setup", workload, seed, deadline) for _ in range(SETUP_PROBES_PER_RUN)
        ]
        host_factor = (before + calibrate()) / (2 * CALIBRATION_REF_S)
        for record in (run, *probes):
            if record is not None:
                record["host_factor"] = host_factor
        runs.append(run)
        setups += [run, *probes]
        if trace:
            traced.append(child("trace", workload, seed, deadline))
        now = time.monotonic()
        enough = len(runs) >= (1 if trace else MIN_RUNS)
        if now > deadline or (enough and now + (now - began) > start + seconds):
            break
    return runs, traced, [s for s in setups if s is not None]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/subpace/__init__.py", "scenarios") if not (ROOT / p).exists()]
    if missing:
        sys.exit(f"run from the root of a subpace checkout; missing {', '.join(missing)}")

    runs, traced, setups = run_workload(args.workload, args.seed, args.seconds, args.trace)
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference.get(args.workload, {}).get(str(args.seed))
    attempted, failed = grade(runs + traced, expected)

    print(f"workload {args.workload}, seed {args.seed}, reference "
          f"{'stored' if expected else 'none; runs checked against each other'}")
    for kind, records in (("run", runs), ("traced", traced)):
        for i, r in enumerate(records, 1):
            if r is None:
                print(f"  {kind} {i}: FAILED")
                continue
            print(f"  {kind} {i}: {r['run_s']:.3f} s wall, {r['cpu_s']:.3f} s CPU "
                  f"for {r['sim_s']:g} simulated s, "
                  f"csv sha256 {' '.join(h[:16] for h in r['hashes'])}")
    print(f"  {'fail_ratio':12} {failed / attempted:.4g} ratio ({failed} of {attempted} CSVs)")

    good = [r for r in runs if r is not None]
    good_traced = [r for r in traced if r is not None]
    if not good or (args.trace and not good_traced):
        sys.exit("no run of some kind completed; no metrics to report")
    if args.trace:
        metrics, units = traced_metrics(good, good_traced)
    else:
        metrics, units = {}, END_TO_END
        for name, values, unscaled in (
            ("sim_s_per_s", [r["sim_s"] / r["run_s"] * r["host_factor"] for r in good],
             [r["sim_s"] / r["run_s"] for r in good]),
            ("setup_s", [s["setup_s"] / s["host_factor"] for s in setups],
             [s["setup_s"] for s in setups]),
            ("peak_rss_mb", [r["peak_rss_mb"] for r in good], None),
        ):
            q1, median, q3 = quartiles(values)
            metrics[name] = median
            print(f"  {name:12} {median:.6g} {units[name]} "
                  f"(quartiles {q1:.6g} .. {q3:.6g}, n={len(values)}"
                  + (f", unscaled median {statistics.median(unscaled):.6g})" if unscaled else ")"))
        factors = [r["host_factor"] for r in good]
        print(f"  host_factor  {statistics.median(factors):.4g} "
              f"(range {min(factors):.4g} .. {max(factors):.4g}; above 1 is a slower host)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def traced_metrics(runs, traced):
    """Per-layer medians over the traced runs, plus the tracing overhead."""
    import tracer

    # median_low keeps every value one that a traced run measured, and counts whole.
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median_low(t["layers"][name] for t in traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(t["run_s"] for t in traced) / statistics.median(r["run_s"] for r in runs)
    )
    units = {name: tracer.unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"  {name:34} {value:.6g} {units[name]}")
    return metrics, units


if __name__ == "__main__":
    main()
