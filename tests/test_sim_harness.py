import json
import math

import numpy as np
import pytest

from helpercache import sim_harness
from helpercache.cache_placement import ConfigError
from helpercache.cli import main
from helpercache.partitioner import dump_instance, min_partition_counts
from helpercache.sim_harness import (
    CSV_HEADER,
    ExperimentConfig,
    PointConfig,
    derive_trial_seed,
    emit_results,
    run_sweep,
    run_trial,
)

REFERENCE_DENSITY = 12 / (1.2**2 * math.pi)


def _point(radius=1.2, profiles=10, density=REFERENCE_DENSITY):
    return PointConfig(
        helpers=4, profiles=profiles, gamma=0.1, radius=radius, user_radius=2.7, density=density
    )


def _tiny_config(**overrides):
    base = dict(
        helpers=2,
        gamma=0.5,
        user_radius=1.5,
        trials=4,
        seed=3,
        sweep="r",
        values=(1.0, 2.5),
        profiles=2,
        density=1.5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_trial_is_deterministic():
    seed = derive_trial_seed(0, 5)
    a = run_trial(_point(), seed)
    b = run_trial(_point(), seed)
    assert a == b


def test_trial_seeds_are_stable_values():
    assert derive_trial_seed(0, 0) == derive_trial_seed(0, 0)
    assert derive_trial_seed(0, 0) != derive_trial_seed(0, 1)
    assert derive_trial_seed(0, 0) != derive_trial_seed(1, 0)


def test_exact_solver_never_loses_to_greedy():
    for index in range(25):
        trial = run_trial(_point(), derive_trial_seed(1, index))
        assert trial.stats["bb"].dof >= trial.stats["greedy"].dof - 1e-12
        for bb_count, greedy_count in zip(
            trial.partition_counts["bb"], trial.partition_counts["greedy"]
        ):
            assert bb_count <= greedy_count


def test_trial_without_reachable_users_skips_metric():
    point = PointConfig(helpers=1, profiles=2, gamma=0.5, radius=0.0, user_radius=1.0, density=0.5)
    trial = run_trial(point, derive_trial_seed(0, 0))
    assert trial.num_users == 0
    assert trial.stats["bb"].dof is None
    assert trial.stats["bb"].transmissions == 0


def test_verified_trial_matches_unverified_stats():
    # Verified trials take bb's counts from bb_assign's partitions, plain
    # ones from Hall's formula; both must give the same numbers.
    for radius in (1.2, 2.2, 3.2, 4.2):
        for index in range(3):
            seed = derive_trial_seed(2, 7 + index)
            plain = run_trial(_point(radius=radius), seed)
            checked = run_trial(_point(radius=radius), seed, verify=True)
            assert plain.stats == checked.stats
            assert plain.partition_counts == checked.partition_counts


def test_verified_trial_rejects_count_mismatch(monkeypatch):
    def off_by_one(adjacency, profile_of, num_profiles):
        return min_partition_counts(adjacency, profile_of, num_profiles) + 1

    monkeypatch.setattr(sim_harness, "min_partition_counts", off_by_one)
    with pytest.raises(RuntimeError, match="Hall's formula"):
        run_trial(_point(), derive_trial_seed(2, 7), verify=True)


def test_helper_count_is_capped():
    config = _tiny_config(helpers=21)
    with pytest.raises(ValueError, match="at most 20 helpers"):
        config.points()
    assert _tiny_config(helpers=20).points()


def test_config_rejects_bad_setups():
    with pytest.raises(ValueError):
        _tiny_config(sweep="K")
    with pytest.raises(ValueError):
        _tiny_config(values=())
    with pytest.raises(ValueError):
        _tiny_config(density=None)
    with pytest.raises(ValueError):
        _tiny_config(density_per_profile=1.0)  # both density modes set
    with pytest.raises(ValueError):
        _tiny_config(sweep="L", values=(2, 4), radius=None)
    with pytest.raises(ValueError):
        _tiny_config(methods=("bb", "annealing"))
    with pytest.raises(ValueError, match="integers"):
        _tiny_config(sweep="L", values=(10.5,), radius=1.0)
    with pytest.raises(ConfigError, match="memory sharing"):
        PointConfig(helpers=4, profiles=10, gamma=0.15, radius=1.0, user_radius=2.7, density=1.0)


def test_sweep_points_resolve_density_per_profile():
    config = _tiny_config(
        sweep="L", values=(2, 4), radius=1.0, density=None, density_per_profile=0.7
    )
    points = config.points()
    assert [p.profiles for _, p in points] == [2, 4]
    assert [p.density for _, p in points] == pytest.approx([1.4, 2.8])


def test_sweep_rejects_fractional_share_at_any_point():
    config = _tiny_config(sweep="L", values=(2, 3), radius=1.0)  # gamma*3 = 1.5
    with pytest.raises(ValueError):
        config.points()


def test_sweep_shapes_and_aggregates():
    results = run_sweep(_tiny_config())
    assert len(results) == 4  # 2 points x 2 methods
    for result in results:
        assert result.trials == 4
        assert len(result.per_trial_users) == 4
        assert 0 <= result.std_dof
        if result.per_trial_dof:
            assert result.mean_dof == pytest.approx(np.mean(result.per_trial_dof))


def test_csv_output_is_byte_stable(tmp_path):
    config = _tiny_config()
    results = run_sweep(config)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_results(results, "csv", str(first))
    emit_results(run_sweep(config), "csv", str(second))
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5


def test_json_output_carries_per_trial_arrays(tmp_path):
    results = run_sweep(_tiny_config())
    path = tmp_path / "r.json"
    emit_results(results, "json", str(path), per_trial=True)
    rows = json.loads(path.read_text())
    assert len(rows) == 4
    assert set(rows[0]) >= {"sweep_var", "sweep_value", "method", "mean_sum_dof", "per_trial_sum_dof"}
    assert len(rows[0]["per_trial_K"]) == 4


def test_emit_rejects_empty_results(tmp_path):
    with pytest.raises(ValueError):
        emit_results([], "csv", str(tmp_path / "x.csv"))


def test_cli_simulate_round_trip(tmp_path):
    out = tmp_path / "sweep.csv"
    args = [
        "simulate",
        "--sweep", "r",
        "--values", "1.0,2.5",
        "--helpers", "2",
        "--profiles", "2",
        "--gamma", "0.5",
        "--user-radius", "1.5",
        "--density", "1.5",
        "--trials", "4",
        "--seed", "3",
        "--method", "both",
        "--out", str(out),
    ]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    assert first.decode().splitlines()[0] == CSV_HEADER


def test_cli_simulate_rejects_fractional_share(tmp_path, capsys):
    args = [
        "simulate", "--sweep", "r", "--values", "1.0", "--helpers", "2",
        "--profiles", "10", "--gamma", "0.15", "--user-radius", "1.5",
        "--density", "1.0", "--trials", "2", "--out", str(tmp_path / "x.csv"),
    ]
    assert main(args) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_partition_methods(tmp_path, capsys, reference_subnet):
    instance = tmp_path / "instance.txt"
    with instance.open("w") as handle:
        dump_instance(reference_subnet, handle)

    assert main(["partition", "--instance", str(instance), "--method", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "partitions: 4" in out
    assert "1-2-6-9" in out

    assert main(["partition", "--instance", str(instance), "--method", "bb"]) == 0
    out = capsys.readouterr().out
    assert "partitions: 3" in out
    assert "1-4-7-11" in out

    for method in ("brute", "flow"):
        assert main(["partition", "--instance", str(instance), "--method", method]) == 0
        assert "partitions: 3" in capsys.readouterr().out


def test_cli_partition_missing_file(capsys):
    assert main(["partition", "--instance", "/nonexistent/file.txt"]) == 1
    assert "error:" in capsys.readouterr().err
