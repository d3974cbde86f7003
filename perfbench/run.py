"""Sweep benchmark for helpercache.

    python3 perfbench/run.py --workload radius_sweep --seed 0 --seconds 36 --trace 0

`--trace 0` times `run_sweep`, one sweep point per operation, and reports
the end-to-end metrics of BENCHMARK.json.  `--trace 1` alternates each
untraced operation with the same operation through the benchmark's traced
copy of the trial loop (tracing.py), and reports the per-layer metrics.
`--workload all` runs every workload in its own process, one after another.

Every operation's output is checked: the CSV digest of each round against
digests.json on the default seed, bb against greedy trial by trial, and in
the traced run bb against the matching oracle on every instance.  The last
line of standard output is one JSON object with the result; a record with
the host, the workload's parameters and every total behind the metrics is
written to perfbench/results/, beside the traced run's span file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from checkout import OUT, ROOT, ProgramMissing, use_checkout_sources


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    import measure
    import sweeps

    workload = sweeps.WORKLOADS[name]
    section = "per_layer" if trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    OUT.mkdir(exist_ok=True)
    run_kind = measure.run_traced if trace else measure.run_untraced
    values, record = run_kind(workload, seed, seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {"host": measure.host_record(workload, seed, seconds, trace), "metrics": metrics,
              **record}
    (OUT / f"{name}.trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    if record["digests_recorded"]:
        check = "every round checked against digests.json"
    else:
        check = "no recorded digests for this seed; repeated rounds checked against their first run"
    print(f"{name} seed {seed}: {record['rounds']} rounds, {record['attempted']} operations, "
          f"{record['failed']} failed, failed_share {record['failed_share']:g}")
    print(f"csv sha256 of round 0: {record['first_round_csv_sha256']} ({check})")
    for metric_name, metric in metrics.items():
        print(f"  {metric_name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(names: list[str], seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process, so each peak RSS is its own."""
    status = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Sweep benchmark for helpercache.")
    parser.add_argument("--workload", required=True,
                        help="radius_sweep, profile_sweep, verify_decode, or all")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed (0 has recorded digests)")
    parser.add_argument("--seconds", type=float, default=36.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import sweeps

    if args.workload == "all":
        return run_all(list(sweeps.WORKLOADS), args.seed, args.seconds, args.trace)
    if args.workload not in sweeps.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
