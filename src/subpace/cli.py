"""Command-line front end: run scenarios, sweep a parameter, print the
analytic packet floor, or emit the window-region grid as CSV."""

import argparse
import os
import sys

from .analysis import MAX_GRID_POINTS, pkt_per_rtt_floor, window_region_grid
from .config import ConfigError, load_scenario, parse_rate, parse_size, parse_time, with_value
from .endpoint import ProtocolError
from .scenario import regions_csv_lines, render_metrics_csv, render_sweep_csv, run_scenario, sweep


def _write_output(lines, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.writelines(lines)
        sys.stdout.flush()  # a reader that has closed the pipe shows here, inside main
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)


def _load(args):
    cfg = load_scenario(args.scenario)
    return cfg if args.seed is None else with_value(cfg, "seed", args.seed)


def _cmd_run(args) -> int:
    _write_output([render_metrics_csv(run_scenario(_load(args)))], args.out)
    return 0


def _cmd_sweep(args) -> int:
    values = [v for v in args.values.split(",") if v != ""]
    if not values:
        raise ConfigError("values", "give at least one comma-separated value")
    rows = sweep(_load(args), args.vary, values)
    _write_output([render_sweep_csv(args.vary, rows)], args.out)
    return 0


def _cmd_floor(args) -> int:
    value = pkt_per_rtt_floor(
        parse_rate("capacity", args.capacity),
        args.flows,
        parse_size("frame", args.frame),
        parse_time("rtt", args.rtt),
    )
    _write_output([f"{value:.6g}\n"], args.out)
    return 0


def _cmd_regions(args) -> int:
    rtts = (parse_time("rtt-min", args.rtt_min), parse_time("rtt-max", args.rtt_max))
    rates = (parse_rate("rate-min", args.rate_min), parse_rate("rate-max", args.rate_max))
    rows = window_region_grid(rtts, rates, parse_size("mss", args.mss), points=args.points)
    _write_output(regions_csv_lines(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subpace",
        description="Simulate TCP flows over an AQM bottleneck, with or without "
        "sub-segment window pacing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file, print metrics CSV")
    run_p.add_argument("scenario", help="path to a key=value scenario file")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scenario once per value of one key")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--vary", required=True, help="scenario key to vary")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.set_defaults(func=_cmd_sweep)

    floor_p = sub.add_parser("floor", help="print the per-flow pkt/RTT needed to fill the link")
    floor_p.add_argument("--capacity", required=True, help="link rate, e.g. 40mbps")
    floor_p.add_argument("--flows", required=True, type=int)
    floor_p.add_argument("--frame", required=True, help="frame size, e.g. 1518B")
    floor_p.add_argument("--rtt", required=True, help="round-trip time, e.g. 6ms")
    floor_p.set_defaults(func=_cmd_floor)

    regions_p = sub.add_parser("regions", help="emit the window-size region grid as CSV")
    regions_p.add_argument("--rtt-min", required=True)
    regions_p.add_argument("--rtt-max", required=True)
    regions_p.add_argument("--rate-min", required=True)
    regions_p.add_argument("--rate-max", required=True)
    regions_p.add_argument("--mss", required=True)
    regions_p.add_argument("--points", type=int, default=25, help=f"at most {MAX_GRID_POINTS}")
    regions_p.set_defaults(func=_cmd_regions)

    for sub_parser in (run_p, sweep_p):
        sub_parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    for sub_parser in (run_p, sweep_p, floor_p, regions_p):
        sub_parser.add_argument("--out", default=None, help="output file (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader stopped early, as `| head` does: not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit's flush
        return 0
    except (OSError, ProtocolError, ValueError) as exc:
        print(f"subpace: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
