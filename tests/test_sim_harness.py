import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpercache import sim_harness
from helpercache.cache_placement import ConfigError, ProfileAssignment
from helpercache.cli import main
from helpercache.partitioner import (
    dump_instance,
    greedy_assign,
    greedy_counts,
    min_partition_counts,
    subnetworks_from_connectivity,
)
from helpercache.sim_harness import (
    ALL_METHODS,
    CSV_HEADER,
    ExperimentConfig,
    PointConfig,
    derive_trial_seed,
    emit_results,
    evaluate_counts,
    run_point,
    run_sweep,
)
from helpercache.topology import Connectivity

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


def _assert_same_outcome(a, b):
    assert np.array_equal(a.num_users, b.num_users)
    for field in ("counts", "transmissions", "time", "dof"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.keys() == y.keys()
        for method in x:
            assert np.array_equal(x[method], y[method], equal_nan=True), (field, method)


def test_trial_is_deterministic():
    seed = derive_trial_seed(0, 5)
    _assert_same_outcome(run_point(_point(), [seed]), run_point(_point(), [seed]))


def test_trial_seeds_are_stable_values():
    assert derive_trial_seed(0, 0) == derive_trial_seed(0, 0)
    assert derive_trial_seed(0, 0) != derive_trial_seed(0, 1)
    assert derive_trial_seed(0, 0) != derive_trial_seed(1, 0)


def test_exact_solver_never_loses_to_greedy():
    outcome = run_point(_point(), [derive_trial_seed(1, index) for index in range(25)])
    assert np.all(outcome.num_users > 0)
    assert np.all(outcome.dof["bb"] >= outcome.dof["greedy"] - 1e-12)
    assert np.all(outcome.counts["bb"] <= outcome.counts["greedy"])


def test_trial_without_reachable_users_skips_metric():
    point = PointConfig(helpers=1, profiles=2, gamma=0.5, radius=0.0, user_radius=1.0, density=0.5)
    trial = run_point(point, [derive_trial_seed(0, 0)])
    assert trial.num_users.tolist() == [0]
    assert math.isnan(trial.dof["bb"][0])
    assert trial.transmissions["bb"].tolist() == [0]


def test_verified_trial_matches_unverified_stats():
    # Verified trials also build every partition and decode the schedule;
    # the numbers must be those of the plain run.
    seeds = [derive_trial_seed(2, 7 + index) for index in range(3)]
    for radius in (1.2, 2.2, 3.2, 4.2):
        plain = run_point(_point(radius=radius), seeds)
        _assert_same_outcome(plain, run_point(_point(radius=radius), seeds, verify=True))


def test_verified_trial_rejects_count_mismatch(monkeypatch):
    # The batched Hall call is off by one on a single label: 2 * L + 2 is
    # profile 3 of the third trial, which must be the trial that fails.
    # A count one too high still admits a matching, so only the failed
    # matching one below the count rejects it.
    config = ExperimentConfig(
        helpers=4, gamma=0.1, user_radius=2.7, trials=4, seed=2, sweep="r", values=(1.2,),
        profiles=10, density=REFERENCE_DENSITY, verify=True,
    )
    for error in (1, -1):

        def off_by_one(adjacency, labels, num_labels, error=error):
            counts = min_partition_counts(adjacency, labels, num_labels)
            counts[2 * 10 + 2] += error
            return counts

        monkeypatch.setattr(sim_harness, "min_partition_counts", off_by_one)
        with pytest.raises(RuntimeError, match="Hall's formula") as failure:
            run_sweep(config)
        assert f"(seed {derive_trial_seed(2, 2)})" in str(failure.value)


def test_verified_trial_rejects_greedy_count_mismatch(monkeypatch):
    def off_by_one(adjacency, labels, num_labels):
        return greedy_counts(adjacency, labels, num_labels) + 1

    monkeypatch.setattr(sim_harness, "greedy_counts", off_by_one)
    with pytest.raises(RuntimeError, match="greedy_assign partition counts .* differ"):
        run_point(_point(), [derive_trial_seed(2, 7)], verify=True)


def test_verified_large_cluster_finishes():
    # 19 helpers: on these two trials a single profile kept the branch and
    # bound busy for seconds to minutes; one matching per count takes
    # milliseconds.
    point = PointConfig(
        helpers=19, profiles=10, gamma=0.1, radius=1.3, user_radius=4.5, density=6.0
    )
    seeds = [derive_trial_seed(3, 9), derive_trial_seed(3, 15)]
    plain = run_point(point, seeds, ("bb",))
    _assert_same_outcome(plain, run_point(point, seeds, ("bb",), verify=True))


@st.composite
def _trial_networks(draw):
    """A chunk of trials: ragged profiles, some empty, and trials without users."""
    num_helpers = draw(st.integers(1, 6))
    num_profiles = draw(st.integers(1, 5))
    trials = draw(st.integers(1, 4))
    adjacencies, profiles = [], []
    for _ in range(trials):
        users = draw(st.lists(
            st.tuples(st.integers(1, (1 << num_helpers) - 1), st.integers(1, num_profiles)),
            max_size=14,
        ))
        masks = np.array([m for m, _ in users], dtype=np.int64)
        adjacencies.append((masks[None, :] >> np.arange(num_helpers)[:, None] & 1).astype(bool))
        profiles.append(np.array([p for _, p in users], dtype=np.int64))
    return adjacencies, profiles, num_profiles


@settings(max_examples=300, deadline=None)
@given(_trial_networks())
def test_batched_counts_match_per_trial_solvers(network):
    adjacencies, profiles, num_profiles = network
    counts = evaluate_counts(adjacencies, profiles, num_profiles, ALL_METHODS)
    for t, (adjacency, profile_of) in enumerate(zip(adjacencies, profiles)):
        num_helpers, num_users = adjacency.shape
        conn = Connectivity(adjacency=adjacency, radius=1.0, reachable_users=np.arange(num_users))
        subnets = subnetworks_from_connectivity(conn, ProfileAssignment(profile_of, num_profiles))
        greedy = [greedy_assign(subnets[p]).count for p in range(1, num_profiles + 1)]
        hall = min_partition_counts(adjacency, profile_of, num_profiles).tolist()
        full = [-(-subnets[p].num_users // num_helpers) for p in range(1, num_profiles + 1)]
        assert counts["greedy"][t].tolist() == greedy
        assert counts["bb"][t].tolist() == hall
        assert counts["fc"][t].tolist() == full
        assert all(f <= b <= g for f, b, g in zip(full, hall, greedy))


def _sweep_bytes(config, tmp_path, name):
    results = run_sweep(config)
    emit_results(results, "csv", str(tmp_path / f"{name}.csv"))
    emit_results(results, "json", str(tmp_path / f"{name}.json"), per_trial=True)
    return (tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}.json").read_bytes()


def test_results_do_not_depend_on_chunking(monkeypatch, tmp_path):
    config = ExperimentConfig(
        helpers=4, gamma=0.1, user_radius=2.7, trials=11, seed=8, sweep="r",
        values=(1.2, 2.2, 4.2), profiles=10, density=REFERENCE_DENSITY,
        methods=("greedy", "fc", "bb"),
    )
    whole = _sweep_bytes(config, tmp_path, "whole")
    for trials_per_chunk in (1, 3):
        monkeypatch.setattr(sim_harness, "CHUNK_TABLE_ENTRIES", trials_per_chunk * 10 * 2**4)
        assert _sweep_bytes(config, tmp_path, f"chunks{trials_per_chunk}") == whole


def test_single_trial_points_match_their_sweep_entries():
    config = ExperimentConfig(
        helpers=3, gamma=0.5, user_radius=2.0, trials=12, seed=4, sweep="r",
        values=(0.6,), profiles=2, density=0.3, methods=ALL_METHODS,
    )
    ((_, point),) = config.points()
    results = {r.method: r for r in run_sweep(config)}
    trials = [
        run_point(point, [derive_trial_seed(4, i)], ALL_METHODS) for i in range(config.trials)
    ]
    users = [int(t.num_users[0]) for t in trials]
    assert 0 in users  # empty trials are skipped in the sweep
    for method in ALL_METHODS:
        assert results[method].per_trial_users == tuple(users)
        assert results[method].per_trial_dof == tuple(
            float(t.dof[method][0]) for t, k in zip(trials, users) if k > 0
        )


def test_unverified_sweep_builds_no_partitions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an unverified sweep built partitions or a schedule")

    monkeypatch.setattr(sim_harness, "subnetworks_from_connectivity", refuse)
    monkeypatch.setattr(sim_harness, "greedy_assign", refuse)
    monkeypatch.setattr(sim_harness, "optimal_partitions", refuse)
    monkeypatch.setattr(sim_harness, "build_schedule", refuse)
    results = run_sweep(_tiny_config(methods=ALL_METHODS, trials=6))
    assert len(results) == 6


def test_fc_is_the_fully_connected_optimum():
    # At radius 4.2 every user reaches all four helpers, so the network is
    # fully connected and Hall's count is ceil(n_p / E) for every profile.
    seeds = [derive_trial_seed(6, index) for index in range(10)]
    full = run_point(_point(radius=4.2), seeds, ("bb", "fc"))
    for field in ("counts", "transmissions", "time", "dof"):
        assert np.array_equal(getattr(full, field)["bb"], getattr(full, field)["fc"])
    partial = run_point(_point(radius=1.2), seeds, ("bb", "fc"))
    assert np.all(partial.counts["fc"] <= partial.counts["bb"])
    assert np.all(partial.dof["bb"] <= partial.dof["fc"])
    with pytest.raises(ValueError, match="cannot be decode-verified"):
        run_point(_point(), seeds[:1], ("bb", "fc"), verify=True)


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
    with pytest.raises(ValueError, match="must not repeat"):
        _tiny_config(methods=("bb", "bb"))
    with pytest.raises(ValueError, match="cannot be decode-verified"):
        _tiny_config(methods=("bb", "fc"), verify=True)
    with pytest.raises(ValueError, match="integers"):
        _tiny_config(sweep="L", values=(10.5,), radius=1.0)
    with pytest.raises(ValueError, match="must be an integer"):
        _tiny_config(profiles=10.5, density=None, density_per_profile=1.0)
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
    with pytest.raises(ValueError, match="per-trial arrays need json output"):
        emit_results(results, "csv", str(tmp_path / "r.csv"), per_trial=True)
    assert not (tmp_path / "r.csv").exists()


def test_emit_rejects_empty_results(tmp_path):
    with pytest.raises(ValueError):
        emit_results([], "csv", str(tmp_path / "x.csv"))


def test_cli_simulate_round_trip(tmp_path, capsys):
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
    # csv carries no per-trial arrays, so asking for them is an error
    assert main(args + ["--per-trial"]) == 1
    assert "error: --per-trial needs --format json" in capsys.readouterr().err
    assert out.read_bytes() == first


def test_cli_simulate_fc_method(tmp_path, capsys):
    out = tmp_path / "fc.csv"
    args = [
        "simulate", "--sweep", "r", "--values", "1.0,2.5", "--helpers", "2",
        "--profiles", "2", "--gamma", "0.5", "--user-radius", "1.5", "--density", "1.5",
        "--trials", "4", "--seed", "3", "--method", "fc", "--out", str(out),
    ]
    assert main(args) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["fc", "fc"]
    assert main(args + ["--verify-decode"]) == 1
    assert "cannot be decode-verified" in capsys.readouterr().err


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
