"""The benchmark in `perfbench/` imports library names from outside the package.

Its modules are loaded here against the package sources, so a deleted or
renamed name the benchmark needs fails this suite, not only the benchmark's
own slow self-tests.  Small traced sweeps then read every attribute the
traced trial loop uses and must give the untraced sweep's CSV bytes: the
traced loop draws each trial's channel, profiles and symbols with
`draw_channels`, `assign_profiles` and `draw_subfile_symbols`, and the
sweep draws the chunk's profiles in one pass over its raw words and its
channel with one `channel_gains` call.  The sweep draws no symbols, which
were each trial's last draw, so the traced loop's symbols change nothing
else.
"""

import importlib
import sys
from pathlib import Path

import pytest

from helpercache.sim_harness import ExperimentConfig, run_sweep

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_MODULES = ("calibration", "checkout", "sweeps", "tracing", "measure")


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    yield {name: importlib.import_module(name) for name in ("tracing", "measure", "sweeps")}
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_benchmark_runs_against_the_sources(bench_modules, tmp_path):
    tracing, sweeps = bench_modules["tracing"], bench_modules["sweeps"]
    config = ExperimentConfig(
        helpers=4, gamma=0.1, user_radius=2.7, trials=3, seed=0, sweep="r",
        values=(1.2, 4.2), profiles=10, density=sweeps.ACCEPTANCE_DENSITY, verify=True,
    )
    traced, records = tracing.traced_sweep(config, tracing.SpanLog())
    assert tracing.solver_problems(records) == []
    assert tracing.tally(records)["trials"] == 6
    assert sweeps.csv_bytes(traced, tmp_path / "traced.csv") == sweeps.csv_bytes(
        run_sweep(config), tmp_path / "untraced.csv"
    )


@pytest.mark.parametrize("sweep", ["r", "L"])
def test_unverified_traced_points_give_the_sweep_bytes(bench_modules, tmp_path, sweep):
    tracing, sweeps = bench_modules["tracing"], bench_modules["sweeps"]
    if sweep == "r":
        point = dict(values=(1.2,), profiles=10, density=sweeps.ACCEPTANCE_DENSITY)
    else:
        point = dict(values=(40,), radius=1.2, density_per_profile=sweeps.PROFILE_DENSITY)
    config = ExperimentConfig(
        helpers=4, gamma=0.1, user_radius=2.7, trials=3, seed=0, sweep=sweep, **point
    )
    traced, records = tracing.traced_sweep(config, tracing.SpanLog())
    assert tracing.solver_problems(records) == []
    assert sweeps.csv_bytes(traced, tmp_path / "traced.csv") == sweeps.csv_bytes(
        run_sweep(config), tmp_path / "untraced.csv"
    )
