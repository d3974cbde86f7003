"""Check the README's radius ratio table against the sweep it comes from.

    python3 scripts/readme_radius_table.py [README.md]

Runs the acceptance radius sweep (r 1.2, 2.2, 3.2 and 4.2, 1000 trials,
seed 20240801, methods bb, greedy and fc) and prints every cell of the
README table whose header starts with `| radius | mean `dof_bb / dof_fc` |`:
its printed text, the value in full precision, and whether the cell still
reads as printed.  A number reads as printed when, rounded to the decimals
the cell shows, it is the cell's text; the trial count below 1 must match
exactly.  The exit status is 1 if any cell does not read as printed.  Use
it to edit the table after a change that moves a result.
"""

from __future__ import annotations

import math
import sys
from itertools import takewhile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from helpercache.sim_harness import AggregateResult, ExperimentConfig, run_sweep  # noqa: E402

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| radius | mean `dof_bb / dof_fc` |"
COLUMNS = ("mean dof_bb / dof_fc", "minimum", "trials below 1", "mean dof_greedy / dof_fc")
SWEEP = ExperimentConfig(
    helpers=4, gamma=0.1, user_radius=2.7, trials=1000, seed=20240801,
    sweep="r", values=(1.2, 2.2, 3.2, 4.2), profiles=10, density=12 / (1.2**2 * math.pi),
    methods=("bb", "greedy", "fc"),
)


def table_rows(readme: Path) -> list[list[str]]:
    """The cells of each body row of the radius ratio table."""
    lines = [line.strip() for line in readme.read_text(encoding="utf-8").splitlines()]
    start = next(i for i, line in enumerate(lines) if line.startswith(HEADER))
    rows = takewhile(lambda line: line.startswith("|"), lines[start + 2 :])
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def shown_as(value: float, text: str) -> bool:
    """Whether `value`, rounded to the decimals `text` prints, reads as `text`."""
    return f"{value:.{len(text.partition('.')[2])}f}" == text


def cells(
    results: list[AggregateResult], rows: list[list[str]]
) -> list[tuple[str, str, str, float | int, bool]]:
    """(radius, column, printed text, value, reads as printed) of every cell after the radius."""
    per_trial = {(r.sweep_value, r.method): np.array(r.per_trial_dof) for r in results}
    checked = []
    for radius, *printed in rows:
        bound = per_trial[float(radius), "fc"]
        bb = per_trial[float(radius), "bb"] / bound
        greedy = per_trial[float(radius), "greedy"] / bound
        values = (float(bb.mean()), float(bb.min()), int(np.count_nonzero(bb < 1)), float(greedy.mean()))
        for column, text, value in zip(COLUMNS, printed, values):
            ok = int(text) == value if column == "trials below 1" else shown_as(value, text)
            checked.append((radius, column, text, value, ok))
    return checked


def main(argv: list[str]) -> int:
    readme = Path(argv[0]) if argv else README
    checked = cells(run_sweep(SWEEP), table_rows(readme))
    for radius, column, text, value, ok in checked:
        print(f"r {radius}  {column:24s}  printed {text:>8s}  value {value!r:22}  "
              + ("reads as printed" if ok else "DIFFERS"))
    return 0 if all(ok for *_, ok in checked) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
