"""Which branch outcomes reachable traffic takes, counted in an instrumented copy of the package.

    python3 tools/branches.py                # reachable traffic only
    python3 tools/branches.py --tier1        # and `pytest tests` against the same copy

The tool copies `src/subpace` to a temporary directory and rewrites the
copy's `engine`, `netpath`, `pacing`, `endpoint` and `scenario` modules with
an AST transform: every `if`, `while` and conditional-expression test, and
every `and`/`or` operand wherever it appears, becomes a probe that counts its
true and false outcomes and returns the value unchanged.  An operand is
wrapped in place, so short-circuiting still skips the probes it skips.  A
constant test or operand (`while True`, `or 1`) has no outcome to count and
is left alone.  `src/` is never written.

Reachable traffic is what `Simulation` does from inputs `ScenarioConfig`
accepts, from fixed seeds, with no state written by hand, each run's metrics
rendered as CSV with `render_metrics_csv`:
- the four shipped scenarios at 60 s with seed 1, and at 20 s with seeds 2-5
- eight staged ACK-blackhole runs (the path is severed from 5/12 to 2/3 of the
  run): acceptance 7's config in both sender modes and both variants, with its
  10 ms RTO floor and 1 s initial RTO, and the four shipped files at 12 s with
  a 3 s warmup
- `RANDOM_CONFIGS` (190) random configs that cycle through
  every AQM policy, sender mode, variant, `ecn` and `delayed_acks` setting,
  at 1 Mb/s-10 Gb/s and 20 us-40 ms
- two `subpace sweep` commands through `cli.main`, on `broadband12_submss`
  cut to 2 s with a 0.5 s warmup: one over `n_flows` 1, 4 and 12, one over
  `seed` 1, 2 and 3.  The sweep's worker processes add their counts too.

`--tier1` also runs `pytest tests` on the copy, without the tests
NOT_ON_COPY names.  Processes the tests start (subprocess runs, sweep workers)
add their counts too.

The report names each probe that reachable traffic took one way only (or
never), with its counts and, under `--tier1`, whether tier-1 took both
outcomes.  A probe in the test of an `if` whose body only raises is flagged
`raise-only`: traffic is not meant to take it.  With CPython 3.11.7 on a
2-core machine, the traffic takes about 50 s and instrumented tier-1 about 40 s.
"""

import argparse
import ast
import itertools
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

import acceptance_7  # noqa: E402  (plain data, no `subpace` import)

MODULES = ("engine", "netpath", "pacing", "endpoint", "scenario")
SHIPPED = ("broadband12", "broadband12_submss", "broadband12_submss_nodelack",
           "broadband12_reddrop")
PROBE = "_branch_probe"  # the counter module in the copy, and its alias in each rewritten module
OUT_ENV = "SUBPACE_BRANCHES_OUT"
RANDOM_CONFIGS = 190
# Tier-1 tests that cannot pass on the copy: the probes' calls move the pinned
# call counts, and the rewritten functions are compiled from outside `src/`,
# where the other two tests look for the package's functions.
NOT_ON_COPY = ("tests/test_cost.py",
               "tests/test_endpoint.py::test_package_has_no_generated_functions",
               "tests/test_endpoint.py::test_per_packet_functions_list_every_function_a_frame_runs")

# The counter the rewritten modules call.  It imports only what `import
# subpace` already loads, so tests that check the package's imports still pass.
PROBE_SOURCE = '''\
import atexit
import os

COUNTS = [[0, 0] for _ in range({n})]  # per probe: [false, true]


def probe(index, value):
    COUNTS[index][1 if value else 0] += 1
    return value


def _dump():
    out = os.environ.get("{env}")
    if out and any(f or t for f, t in COUNTS):
        with open(os.path.join(out, f"{{os.getpid()}}.txt"), "w") as handle:
            handle.writelines(f"{{f}} {{t}}\\n" for f, t in COUNTS)


def _after_fork():
    # A forked worker counts from zero and leaves through os._exit, not atexit.
    for pair in COUNTS:
        pair[0] = pair[1] = 0
    real_exit = os._exit

    def exit_after_dump(code):
        _dump()
        real_exit(code)

    os._exit = exit_after_dump


atexit.register(_dump)
os.register_at_fork(after_in_child=_after_fork)
'''


class Probe:
    __slots__ = ("module", "line", "function", "kind", "text", "raise_only")

    def __init__(self, module, line, function, kind, text, raise_only):
        self.module, self.line, self.function = module, line, function
        self.kind, self.text, self.raise_only = kind, text, raise_only


class Instrument(ast.NodeTransformer):
    """Wrap each branch test, and each `and`/`or` operand anywhere, in a counting probe."""

    def __init__(self, module: str, source: str, probes: list):
        self.module, self.source, self.probes = module, source, probes
        self.scope: list[str] = []
        self.elifs: set[int] = set()
        self.probed: set[int] = set()  # ids of the probe calls, whose insides are done
        self.raise_only = False

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        return node

    visit_ClassDef = visit_FunctionDef = _scoped

    def visit_If(self, node):
        if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
            self.elifs.add(id(node.orelse[0]))
        self.raise_only = len(node.body) == 1 and isinstance(node.body[0], ast.Raise) \
            and not node.orelse
        node.test = self._test(node.test, "elif" if id(node) in self.elifs else "if")
        self.raise_only = False
        self.generic_visit(node)
        return node

    def visit_While(self, node):
        node.test = self._test(node.test, "while")
        self.generic_visit(node)
        return node

    def visit_IfExp(self, node):
        node.test = self._test(node.test, "ifexp")
        self.generic_visit(node)
        return node

    def visit_BoolOp(self, node):
        # Each operand is wrapped where it stands, so short-circuiting still skips its probe.
        kind = "and" if isinstance(node.op, ast.And) else "or"
        node.values = [value if isinstance(value, ast.Constant)
                       else self._probe(value, f"{kind} operand") for value in node.values]
        for call in node.values:
            if id(call) in self.probed:
                call.args[1] = self.visit(call.args[1])
        return node

    def visit_Call(self, node):
        return node if id(node) in self.probed else self.generic_visit(node)

    def _test(self, test, kind):
        if isinstance(test, ast.Constant):
            return test
        wrapped = self._probe(test, kind)  # numbered before its operands
        wrapped.args[1] = self.visit(test)
        return wrapped

    def _probe(self, expr, kind):
        index = len(self.probes)
        self.probes.append(Probe(self.module, expr.lineno, ".".join(self.scope) or "<module>",
                                 kind, ast.get_source_segment(self.source, expr), self.raise_only))
        call = ast.Call(ast.Name(PROBE, ast.Load()), [ast.Constant(index), expr], [])
        self.probed.add(id(call))
        return ast.copy_location(call, expr)


def instrument(package: Path) -> list[Probe]:
    """Rewrite MODULES in the copied `package` in place; returns the probes in id order."""
    probes: list[Probe] = []
    for module in MODULES:
        path = package / f"{module}.py"
        source = path.read_text(encoding="utf-8")
        tree = Instrument(module, source, probes).visit(ast.parse(source, str(path)))
        body = tree.body
        at = 1 if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) else 0  # after the docstring
        body.insert(at, ast.ImportFrom(PROBE, [ast.alias("probe", PROBE)], 1))
        path.write_text(ast.unparse(ast.fix_missing_locations(tree)) + "\n", encoding="utf-8")
    (package / f"{PROBE}.py").write_text(
        PROBE_SOURCE.format(n=len(probes), env=OUT_ENV), encoding="utf-8")
    return probes


# -- reachable traffic --------------------------------------------------------

def staged(scenario, cfg) -> None:
    """Run with the ACK path severed from 5/12 to 2/3 of the duration, as acceptance 7 does."""
    sim = scenario.Simulation(cfg)
    sim.run(cfg.duration * 5 // 12)
    return_acks = [receiver.send_ack for receiver in sim.receivers]
    for receiver in sim.receivers:
        receiver.send_ack = lambda ack: None  # each ACK goes nowhere
    sim.run(cfg.duration * 2 // 3)
    for receiver, send_ack in zip(sim.receivers, return_acks):
        receiver.send_ack = send_ack
    scenario.render_metrics_csv(sim.run().metrics())


def random_config(config, netpath, rng: random.Random, policy, mode, variant, ecn, delack):
    """A config with the given choices and drawn numbers, each in a range ScenarioConfig accepts.

    The buffer holds at least one frame and more than the target's bytes, and
    the duration holds about 6,000 full-rate frames, but at least 8 RTTs and
    at most 30 s, so every run stays short under instrumentation.
    """
    capacity = round(10 ** rng.uniform(6, 10))
    base_rtt = round(10 ** rng.uniform(math.log10(20_000), math.log10(40_000_000)))
    frame_size = rng.choice((576, 1518, 9018))
    target = round(10 ** rng.uniform(math.log10(50_000), math.log10(20_000_000)))
    frame_ns = frame_size * 8 * 10**9 // capacity
    least_buffer = max(netpath.target_backlog(capacity, target) + 1, frame_size)
    return config.ScenarioConfig(
        capacity=capacity, n_flows=rng.randint(1, 16), frame_size=frame_size,
        smss=frame_size - rng.choice((40, 58, 78)), base_rtt=base_rtt, aqm_policy=policy,
        aqm_target=target, aqm_ceiling=rng.choice((None, round(target * rng.uniform(1.05, 4)))),
        buffer_limit=round(least_buffer * rng.uniform(1, 4)), sender_mode=mode,
        cc_variant=variant, ecn=ecn, delayed_acks=delack,
        duration=min(max(6_000 * frame_ns, 8 * base_rtt), 30 * 10**9),
        seed=rng.randrange(1 << 30),
        w_min_fraction=rng.choice((1 / 64, 1 / 1024, 1.0, rng.uniform(0.001, 1))))


def short_scenario(name: str, directory: Path) -> Path:
    """A copy of shipped scenario `name` in `directory`, cut to 2 s with a 0.5 s warmup."""
    text = (ROOT / "scenarios" / f"{name}.txt").read_text(encoding="utf-8")
    kept = [line for line in text.splitlines() if not line.startswith(("duration", "warmup"))]
    path = directory / f"{name}_short.txt"
    path.write_text("\n".join([*kept, "duration = 2 s", "warmup = 500 ms"]) + "\n",
                    encoding="utf-8")
    return path


def run_traffic(scratch: Path) -> None:
    """Drive the imported (instrumented) package with reachable traffic only."""
    from subpace import cli, config, endpoint, netpath, scenario

    ms = 10**6
    with_values = config.with_values
    render = scenario.render_metrics_csv
    for name in SHIPPED:
        shipped = config.load_scenario(ROOT / "scenarios" / f"{name}.txt")
        for seed, seconds in ((1, 60), (2, 20), (3, 20), (4, 20), (5, 20)):
            print(f"  {name} seed {seed} {seconds} s", file=sys.stderr, flush=True)
            cfg = with_values(shipped, seed=seed, duration=seconds * 1_000 * ms)
            render(scenario.Simulation(cfg).run().metrics())

    link = config.ScenarioConfig(**acceptance_7.LINK)
    with mock.patch.multiple(endpoint, RTO_MIN=acceptance_7.RTO_MIN,
                             RTO_INITIAL=acceptance_7.RTO_INITIAL):
        for mode, variant in itertools.product(endpoint.SENDER_MODES, endpoint.CC_VARIANTS):
            print(f"  blackhole: acceptance 7, {mode} {variant}", file=sys.stderr, flush=True)
            staged(scenario, with_values(link, sender_mode=mode, cc_variant=variant))
    for name in SHIPPED:
        print(f"  blackhole: {name} 12 s", file=sys.stderr, flush=True)
        shipped = config.load_scenario(ROOT / "scenarios" / f"{name}.txt")
        staged(scenario, with_values(shipped, warmup=3_000 * ms, duration=12_000 * ms))

    rng = random.Random(29)
    choices = list(itertools.product(netpath.AQM_POLICIES, endpoint.SENDER_MODES,
                                     endpoint.CC_VARIANTS, (True, False), (True, False)))
    for index in range(RANDOM_CONFIGS):
        cfg = random_config(config, netpath, rng, *choices[index % len(choices)])
        if index % 10 == 0:
            print(f"  random configs {index + 1}-{min(index + 10, RANDOM_CONFIGS)} of {RANDOM_CONFIGS}",
                  file=sys.stderr, flush=True)
        render(scenario.Simulation(cfg).run().metrics())

    short = str(short_scenario("broadband12_submss", scratch))
    for key, values in (("n_flows", "1,4,12"), ("seed", "1,2,3")):
        print(f"  subpace sweep --vary {key} --values {values}", file=sys.stderr, flush=True)
        if cli.main(["sweep", short, "--vary", key, "--values", values, "--out", os.devnull]):
            raise RuntimeError(f"subpace sweep --vary {key} failed")


def run_tier1(copy: Path, out: Path) -> int:
    """`pytest tests` against the copy; every process it starts leaves its counts in `out`."""
    env = {**os.environ, OUT_ENV: str(out), "PYTHONPATH": str(copy)}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "-o", f"pythonpath={copy}", *(f"--deselect={test}" for test in NOT_ON_COPY),
               "tests"]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def merged_counts(out: Path, n: int) -> list[list[int]]:
    total = [[0, 0] for _ in range(n)]
    for path in out.glob("*.txt"):
        for pair, line in zip(total, path.read_text().splitlines()):
            false, true = map(int, line.split())
            pair[0] += false
            pair[1] += true
    return total


def one_way(pair) -> bool:
    return not (pair[0] and pair[1])


def describe(probe: Probe) -> str:
    flag = "  [raise-only]" if probe.raise_only else ""
    return f"{probe.module}.py:{probe.line} {probe.function} {probe.kind}: {probe.text}{flag}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier1", action="store_true",
                        help="also run `pytest tests` against the instrumented copy")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="subpace-branches-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src" / "subpace", copy / "subpace",
                        ignore=shutil.ignore_patterns("__pycache__"))
        probes = instrument(copy / "subpace")
        sys.path.insert(0, str(copy))
        print(f"{len(probes)} probes in {', '.join(MODULES)}; running reachable traffic",
              file=sys.stderr, flush=True)
        counts = Path(tmp) / "traffic"
        counts.mkdir()
        # Sweep workers leave their counts in `counts` when they exit; so does this process.
        with mock.patch.dict(os.environ, {OUT_ENV: str(counts)}):
            run_traffic(Path(tmp))
            from subpace import _branch_probe

            _branch_probe._dump()
        traffic = merged_counts(counts, len(probes))
        tier1 = None
        if args.tier1:
            out = Path(tmp) / "counts"
            out.mkdir()
            print("running tier-1 against the instrumented copy", file=sys.stderr, flush=True)
            status = run_tier1(copy, out)
            if status:
                print(f"tier-1 exited {status}; its counts are still reported", flush=True)
            tier1 = merged_counts(out, len(probes))

    print(f"{len(probes)} probes; reachable traffic took {sum(not one_way(p) for p in traffic)} "
          f"both ways and {sum(one_way(p) for p in traffic)} one way or never")
    for probe, pair, index in zip(probes, traffic, itertools.count()):
        if one_way(pair):
            both = "" if tier1 is None else \
                f"; tier-1 {'both ways' if not one_way(tier1[index]) else 'ONE WAY'}"
            print(f"  {describe(probe)}\n      false {pair[0]:,}  true {pair[1]:,}{both}")
    if tier1 is not None:
        missed = [(probe, pair) for probe, pair in zip(probes, tier1) if one_way(pair)]
        print(f"tier-1 took {len(probes) - len(missed)} of {len(probes)} probes both ways")
        for probe, pair in missed:
            print(f"  {describe(probe)}\n      false {pair[0]:,}  true {pair[1]:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
