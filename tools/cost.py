"""Exact cost of short runs of the shipped scenarios, in counts that do not drift.

    python3 tools/cost.py            # calls, top functions, bytecodes and events per run
    python3 tools/cost.py --json     # the call counts COST.json pins, as JSON
    python3 tools/cost.py --write    # record those call counts in COST.json

Each run is 2 s of simulated time after a 0.5 s warmup, at seed 1, counted
from `Simulation` construction to its metrics.  Python calls are the sum of
the call counts in `cProfile.Profile().getstats()`, builtins included, in
total and by the `src/subpace` module that defines the callee ("other" for
builtins and the standard library); the table also names the 15 most-called
functions of each run.  Bytecodes are the opcodes executed in
Python frames, counted by a `sys.settrace` hook with `f_trace_opcodes`, by
module and by opcode name; they take seconds per run, so only the table
shows them.  The opcode names show work that makes no Python call, such as
building a `functools.partial` or a bound method.  Events are the calls of
`Engine.schedule`, by tag, counted through a wrapper in a run of their own
without a profiler (a `Timer` that queues its entry again does so without
`schedule`); only the table shows them too.  Wall time moves with the
host, these counts move only with the code and the interpreter, so COST.json
keys them by interpreter version.
"""

import argparse
import cProfile
import dis
import json
import platform
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LEDGER = ROOT / "COST.json"
SCENARIOS = ("broadband12_submss", "broadband12_reddrop", "broadband12")
WARMUP_NS, DURATION_NS, SEED = 500_000_000, 2_000_000_000, 1

sys.path.insert(0, str(SRC))

from subpace.config import load_scenario, with_values  # noqa: E402
from subpace.engine import Engine  # noqa: E402
from subpace.scenario import Simulation  # noqa: E402


def interpreter() -> str:
    """The ledger key: counts differ between interpreters, not between hosts."""
    return f"{sys.implementation.name}-{platform.python_version()}"


def config(name: str):
    return with_values(load_scenario(ROOT / "scenarios" / f"{name}.txt"),
                       seed=SEED, warmup=WARMUP_NS, duration=DURATION_NS)


def module_of(code) -> str:
    """The `src/subpace` module that defines `code`, or "other"."""
    path = Path(getattr(code, "co_filename", ""))
    return path.stem if path.parent == SRC / "subpace" else "other"


def function_of(code) -> str:
    """`module.qualname` of a Python function; cProfile's own label for a builtin."""
    if isinstance(code, str):
        return code
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


def profile(cfg) -> list:
    """cProfile's entries for one run: each callee's code, or a builtin's label, and its calls."""
    # No per-caller counts: they cost time, and each function's total is the same.
    profiler = cProfile.Profile(subcalls=False)
    profiler.enable()
    Simulation(cfg).run().metrics()
    profiler.disable()
    return profiler.getstats()


def count_calls(stats) -> dict:
    by_module = Counter()
    for entry in stats:
        by_module[module_of(entry.code)] += entry.callcount
    return {"calls": sum(by_module.values()), "calls_by_module": dict(sorted(by_module.items()))}


def top_functions(stats, n: int = 15) -> list[tuple[str, int]]:
    """The n most-called functions, most calls first, ties by name."""
    by_function = Counter()
    for entry in stats:
        by_function[function_of(entry.code)] += entry.callcount
    return sorted(by_function.items(), key=lambda item: (-item[1], item[0]))[:n]


def count_bytecodes(cfg) -> dict:
    by_site = Counter()  # (code, offset of the instruction) -> executions

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        code = frame.f_code

        def on_opcode(frame, event, arg):
            if event == "opcode":
                by_site[code, frame.f_lasti] += 1
            return on_opcode

        return on_opcode

    sys.settrace(on_call)
    try:
        Simulation(cfg).run().metrics()
    finally:
        sys.settrace(None)
    by_module, by_opcode = Counter(), Counter()
    for (code, offset), n in by_site.items():
        by_module[module_of(code)] += n
        by_opcode[dis.opname[code.co_code[offset]]] += n
    return {"bytecodes": sum(by_module.values()),
            "bytecodes_by_module": dict(sorted(by_module.items())),
            "bytecodes_by_opcode": dict(sorted(by_opcode.items(), key=lambda item: -item[1]))}


def count_events(cfg) -> dict:
    by_tag = Counter()
    schedule = Engine.schedule

    def counted(engine, at, action, tag=None):
        by_tag[str(tag)] += 1
        return schedule(engine, at, action, tag)

    Engine.schedule = counted
    try:
        Simulation(cfg).run().metrics()
    finally:
        Engine.schedule = schedule
    return {"events": sum(by_tag.values()), "events_by_tag": dict(sorted(by_tag.items()))}


def call_counts() -> dict:
    """Every scenario's call counts under this interpreter's key, as COST.json holds them."""
    return {interpreter(): {name: count_calls(profile(config(name))) for name in SCENARIOS}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="print the call counts as JSON")
    output.add_argument("--write", action="store_true", help="record the call counts in COST.json")
    args = parser.parse_args()

    if args.json:
        print(json.dumps(call_counts(), sort_keys=True))
    elif args.write:
        ledger = json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else {}
        ledger.update(call_counts())
        LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        print(f"{interpreter()}: {DURATION_NS / 1e9:g} s runs, "
              f"{WARMUP_NS / 1e9:g} s warmup, seed {SEED}")
        for name in SCENARIOS:
            cfg = config(name)
            stats = profile(cfg)
            counts = {**count_calls(stats), **count_bytecodes(cfg), **count_events(cfg)}
            print(f"\n{name}")
            for kind, part in (("calls", "module"), ("bytecodes", "module"), ("events", "tag")):
                print(f"  {kind:<10} {counts[kind]:>12,}")
                for key, n in counts[f"{kind}_by_{part}"].items():
                    print(f"    {key:<12} {n:>8,}")
                if kind == "calls":
                    print("    most-called functions:")
                    for function, n in top_functions(stats):
                        print(f"      {n:>12,}  {function}")
                if kind == "bytecodes":
                    print("    by opcode, most-executed first:")
                    for opcode, n in counts["bytecodes_by_opcode"].items():
                        print(f"      {n:>12,}  {opcode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
