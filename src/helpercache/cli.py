"""Command line front end: `simulate` runs sweeps, `partition` solves instances."""

from __future__ import annotations

import argparse
import sys

from . import sim_harness
from .partitioner import format_partition_set, greedy_assign, load_instance, optimal_partitions


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helpercache",
        description="Coded-caching delivery simulator for partially connected helper networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo sweep and write results")
    sim.add_argument(
        "--sweep", choices=sim_harness.SWEEP_VARIABLES, required=True, help="sweep variable"
    )
    sim.add_argument("--values", required=True, help="comma-separated sweep values")
    sim.add_argument("--helpers", type=int, required=True, help="number of helpers E")
    sim.add_argument("--profiles", type=int, help="cache profile count L (fixed when sweeping r)")
    sim.add_argument("--gamma", type=float, required=True, help="cached library fraction")
    sim.add_argument("--radius", type=float, help="transmission radius r (fixed when sweeping L)")
    sim.add_argument("--user-radius", type=float, required=True, help="user disk radius")
    density = sim.add_mutually_exclusive_group(required=True)
    density.add_argument("--density", type=float, help="users per unit area")
    density.add_argument(
        "--density-per-profile", type=float, help="users per unit area divided by L"
    )
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--method",
        choices=sim_harness.ALL_METHODS + ("both",),
        default="both",
        help="both = bb and greedy; fc = the fully connected optimum of the same draw",
    )
    sim.add_argument(
        "--verify-decode",
        action="store_true",
        help="build and audit every schedule, and check that each served user decodes its subfiles",
    )
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--per-trial", action="store_true", help="include per-trial arrays (json)")
    sim.add_argument("--out", required=True, help="output file path")

    part = sub.add_parser("partition", help="solve a subnetwork instance file")
    part.add_argument("--instance", required=True, help="instance file (user: h1,h2,... lines)")
    part.add_argument(
        "--method",
        choices=sim_harness.METHODS,
        default="bb",
        help="bb = a minimum partition set, by matching; greedy = the helper-scan baseline",
    )
    return parser


def _parse_values(raw: str, sweep: str) -> tuple[float, ...]:
    """The numbers of `--values`; a whole profile count is an int, so `10.0` is written as `10`."""
    values = []
    for token in filter(str.strip, raw.split(",")):
        try:
            value = float(token)
        except ValueError:
            raise ValueError(f"--values must be numbers, got {token.strip()!r}") from None
        values.append(int(value) if sweep == "L" and value.is_integer() else value)
    return tuple(values)


def _run_simulate(args: argparse.Namespace) -> None:
    if args.per_trial and args.format == "csv":
        raise ValueError("--per-trial needs --format json")
    methods = sim_harness.METHODS if args.method == "both" else (args.method,)
    config = sim_harness.ExperimentConfig(
        helpers=args.helpers,
        gamma=args.gamma,
        user_radius=args.user_radius,
        trials=args.trials,
        seed=args.seed,
        sweep=args.sweep,
        values=_parse_values(args.values, args.sweep),
        profiles=args.profiles,
        radius=args.radius,
        density=args.density,
        density_per_profile=args.density_per_profile,
        methods=methods,
        verify=args.verify_decode,
    )
    results = sim_harness.run_sweep(config)
    sim_harness.emit_results(results, args.format, args.out, per_trial=args.per_trial)
    print(f"wrote {len(results)} result rows to {args.out}")


def _run_partition(args: argparse.Namespace) -> None:
    with open(args.instance) as handle:
        subnet = load_instance(handle)
    pset = (greedy_assign if args.method == "greedy" else optimal_partitions)(subnet)
    print(f"partitions: {pset.count}")
    if pset.partitions:
        print(format_partition_set(pset))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            _run_simulate(args)
        else:
            _run_partition(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
