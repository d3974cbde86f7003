"""Record the CSV digest of every round of every workload for the default seed.

    python3 perfbench/record_digests.py

Each round runs as one whole-sweep `run_sweep` call, while the benchmark
runs it point by point; the digests must agree.  Re-record only for a
change that is meant to alter the sweep output, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from checkout import use_checkout_sources


def main() -> int:
    use_checkout_sources()
    import sweeps
    from helpercache.sim_harness import run_sweep

    digests = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        path = Path(tmp) / "round.csv"
        for name, workload in sweeps.WORKLOADS.items():
            configs = [workload.round_config(sweeps.DEFAULT_SEED, i) for i in range(sweeps.ROUND_CYCLE)]
            digests[name] = [sweeps.digest(sweeps.csv_bytes(run_sweep(c), path)) for c in configs]
            print(f"{name}: {digests[name][0]}")
    record = {"seed": sweeps.DEFAULT_SEED, "digests": digests}
    sweeps.DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
