"""One measured run of one workload, in a fresh process.

    python3 perfbench/child.py MODE WORKLOAD SEED

MODE is `setup` (import and build, then stop), `run` (the timed run) or
`trace` (the run with spans from tracer.py).  The simulator is imported from
`src/` of the current directory.  The child prints one JSON object: the
set-up time, and for `run` and `trace` the run's wall time, simulated
seconds, each metrics CSV and peak RSS; `trace` adds the
per-layer metrics.
"""

import json
import resource
import sys
import time
from pathlib import Path

# Runs are shortened from the files' 60 s, sweep rows most, so that one
# measured run of the benchmark holds several repetitions.
WORKLOADS = {
    "submss_ecn": {
        "scenario": "scenarios/broadband12_submss.txt",
        "warmup_ns": 5 * 10**9,
        "duration_ns": 20 * 10**9,
    },
    "reddrop_loss": {
        "scenario": "scenarios/broadband12_reddrop.txt",
        "warmup_ns": 5 * 10**9,
        "duration_ns": 20 * 10**9,
    },
    "sweep_flows": {
        "scenario": "scenarios/broadband12.txt",
        "vary": "n_flows",
        "values": ("4", "8", "12", "24", "48"),
        "warmup_ns": 2 * 10**9,
        "duration_ns": 8 * 10**9,
    },
}


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(mode, workload, seed):
    spec = WORKLOADS[workload]
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))

    t0 = time.perf_counter()
    import subpace
    from subpace import config, scenario

    import_s = time.perf_counter() - t0
    if not Path(subpace.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"imported subpace from {subpace.__file__}, not from {root / 'src'}")

    def call(name, fn, *args):
        return fn(*args)

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        call = tracer.call

    cfg = call("load_scenario", config.load_scenario, root / spec["scenario"])
    cfg = config.with_value(cfg, "seed", seed)
    cfg = config.with_value(cfg, "warmup", spec["warmup_ns"])
    cfg = config.with_value(cfg, "duration", spec["duration_ns"])
    if "vary" in spec:
        def run():
            rows = call("sweep", scenario.sweep, cfg, spec["vary"], list(spec["values"]))
            if tracer is not None:
                tracer.counts["sweep_rows"] += len(rows)
            return [metrics for _, metrics in rows]
    else:
        sim = scenario.Simulation(cfg)

        def run():
            return [sim.run().metrics()]

    setup_s = time.perf_counter() - t0
    if mode == "setup":
        return {"setup_s": setup_s}
    t1, c1 = time.perf_counter(), time.process_time()
    csvs = [call("render", scenario.render_metrics_csv, metrics) for metrics in run()]
    run_s, cpu_s = time.perf_counter() - t1, time.process_time() - c1

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "sim_s": cfg.duration * len(csvs) / 1e9,
        "csvs": csvs,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, import_s)
    return result


if __name__ == "__main__":
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if mode not in ("setup", "run", "trace"):
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(main(mode, workload, seed)))
