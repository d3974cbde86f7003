import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_INSTANCE
from helpercache import delivery, sim_harness
from helpercache.cache_placement import ConfigError, ProfileAssignment, assign_profiles
from helpercache.cli import main
from helpercache.delivery import DecodeFailure, SingularChannelError, decode_round
from helpercache.partitioner import (
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
from helpercache.topology import Connectivity, connect, draw_channels, hex_layout, sample_users

REFERENCE_DENSITY = 12 / (1.2**2 * math.pi)


def _point(radius=1.2, profiles=10, density=REFERENCE_DENSITY):
    return PointConfig(
        helpers=4, profiles=profiles, gamma=0.1, radius=radius, user_radius=2.7, density=density
    )


_POINT = dict(helpers=4, profiles=2, gamma=0.5, radius=1.0, user_radius=2.7, density=1.0)


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
    for field in ("counts", "transmissions", "dof"):
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


def _users_named(message):
    """Every user index an error message names."""
    found = re.search(r"users \(([^)]*)\)|user (\d+) failed", message)
    assert found, message
    return [int(user) for user in (found.group(1) or found.group(2)).split(",") if user.strip()]


def test_verify_errors_name_the_trial(monkeypatch):
    # One chunk of three verified trials: an error must name the trial's seed
    # and its own user indices, not the chunk-wide rows of its channel.
    point = _point()
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    sizes = run_point(point, seeds).num_users.tolist()
    assert min(sizes) > 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delivery, "CONDITION_LIMIT", 1.0)  # every slot of two or more users fails
        with pytest.raises(SingularChannelError, match=rf"\(seed {seeds[0]}\)") as failure:
            run_point(point, seeds, verify=True)
    assert max(_users_named(str(failure.value))) < sizes[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delivery, "DECODE_TOLERANCE", 0.0)  # no residual is below zero
        with pytest.raises(DecodeFailure, match=rf"\(seed {seeds[0]}, method bb\)") as failure:
            run_point(point, seeds, verify=True)
    assert max(_users_named(str(failure.value))) < sizes[0]
    # The third trial hears nothing from helper 0: a zero on its matched diagonal.
    calls = []

    def deaf_third_trial(conn, rng):
        channel = draw_channels(conn, rng)
        calls.append(None)
        if len(calls) == 3:
            channel[:, 0] = 0
        return channel

    monkeypatch.setattr(sim_harness, "draw_channels", deaf_third_trial)
    with pytest.raises(ValueError, match=rf"structurally zero .* \(seed {seeds[2]}\)") as failure:
        run_point(point, seeds, verify=True)
    assert max(_users_named(str(failure.value))) < sizes[2] < sizes[0] + sizes[1]


def _trial_drawn_alone(point, seed):
    """One trial's links, kept users, channel, profiles and next uniform, from plain numpy calls."""
    rng = np.random.default_rng(seed)
    count = rng.poisson(point.density * math.pi * point.user_radius**2)
    radii = point.user_radius * np.sqrt(rng.uniform(size=count))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    users = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    delta = hex_layout(point.helpers)[:, None, :] - users[None, :, :]
    within = (delta**2).sum(axis=2) <= point.radius**2
    kept = np.flatnonzero(within.any(axis=0))
    support = within[:, kept].T
    gains = rng.standard_normal(support.shape) + 1j * rng.standard_normal(support.shape)
    channel = np.where(support, gains / math.sqrt(2.0), 0)
    profiles = rng.integers(1, point.profiles + 1, size=kept.size)
    return within[:, kept], kept, channel, profiles, rng.random()


@st.composite
def _chunk_points(draw):
    """A small point, its radius sometimes too short for any user to stay."""
    profiles = draw(st.integers(2, 5))
    return PointConfig(
        helpers=draw(st.integers(1, 6)),
        profiles=profiles,
        gamma=draw(st.integers(1, profiles - 1)) / profiles,
        radius=draw(st.sampled_from((0.0, 0.1, 0.6, 1.2, 2.4))),
        user_radius=draw(st.sampled_from((1.0, 2.0))),
        density=draw(st.sampled_from((0.3, 1.0, 3.0))),
    )


@settings(max_examples=150, deadline=None)
@given(
    _chunk_points(),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
    st.booleans(),
)
def test_chunk_draw_matches_trials_drawn_alone(point, seeds, verify):
    generators = []

    def tracked(seed, default_rng=np.random.default_rng):
        generators.append(default_rng(seed))
        return generators[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", tracked)
        adjacency, labels, num_users, draws = sim_harness._draw_chunk(point, seeds, verify)
    assert len(generators) == len(seeds)
    assert len(draws) == (len(seeds) if verify else 0)
    bounds = np.concatenate(([0], np.cumsum(num_users)))
    assert adjacency.shape == (point.helpers, bounds[-1]) and labels.shape == (bounds[-1],)
    for i, seed in enumerate(seeds):
        links, kept, channel, profiles, after = _trial_drawn_alone(point, seed)
        columns = slice(bounds[i], bounds[i + 1])
        assert num_users[i] == kept.size
        assert np.array_equal(adjacency[:, columns], links)
        assert np.array_equal(labels[columns], profiles + i * point.profiles)
        assert generators[i].random() == after  # the draw left the generator where it should
        if verify:
            draw = draws[i]
            assert draw.seed == seed and draw.rng is generators[i]
            assert np.array_equal(draw.conn.adjacency, links)
            assert np.array_equal(draw.conn.reachable_users, kept)
            assert np.array_equal(draw.channel, channel)
            assert np.array_equal(draw.assignment.profile_of, profiles)
        # The per-trial library path, which the benchmark's traced loop follows.
        rng = np.random.default_rng(seed)
        users = sample_users(point.density, point.user_radius, rng)
        conn = connect(hex_layout(point.helpers), users, point.radius)
        assert np.array_equal(conn.adjacency, links) and np.array_equal(conn.reachable_users, kept)
        assert np.array_equal(draw_channels(conn, rng), channel)
        assert np.array_equal(assign_profiles(conn.num_users, point.profiles, rng).profile_of, profiles)
        assert rng.random() == after


@settings(max_examples=60, deadline=None)
@given(_chunk_points(), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
def test_residuals_do_not_depend_on_the_chunk(point, seeds):
    # Every decode residual of a trial verified with others in one chunk,
    # bit for bit those of the trial verified alone.
    residuals = []

    def recorded(channel, rs):
        residuals.append(decode_round(channel, rs))
        return residuals[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delivery, "decode_round", recorded)
        chunked = run_point(point, seeds, ("bb", "greedy"), verify=True)
        together = residuals[:]
        residuals.clear()
        for seed in seeds:
            run_point(point, [seed], ("bb", "greedy"), verify=True)
    assert together == residuals
    # one residual per round of each method's schedule
    assert len(together) == sum(int(chunked.counts[m].max(axis=1).sum()) for m in ("bb", "greedy"))


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
    labels = np.concatenate([p + t * num_profiles for t, p in enumerate(profiles)])
    counts = evaluate_counts(
        np.concatenate(adjacencies, axis=1), labels, len(profiles), num_profiles, ALL_METHODS
    )
    for t, (adjacency, profile_of) in enumerate(zip(adjacencies, profiles)):
        num_helpers, num_users = adjacency.shape
        conn = Connectivity(adjacency=adjacency, reachable_users=np.arange(num_users))
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


def test_results_do_not_depend_on_chunking(tmp_path):
    # Chunk boundaries cut both the draw and the evaluate stage.
    radius_sweep = ExperimentConfig(
        helpers=4, gamma=0.1, user_radius=2.7, trials=11, seed=8, sweep="r",
        values=(1.2, 2.2, 4.2), profiles=10, density=REFERENCE_DENSITY,
        methods=("greedy", "fc", "bb"),
    )
    profile_sweep = replace(
        radius_sweep, seed=9, sweep="L", values=(10, 20, 40), profiles=None, radius=1.2,
        density=None, density_per_profile=REFERENCE_DENSITY / 10,
    )
    verified = replace(
        radius_sweep, trials=7, seed=10, values=(1.2, 4.2), methods=("bb", "greedy"), verify=True
    )
    for config in (radius_sweep, profile_sweep, verified):
        whole = _sweep_bytes(config, tmp_path, "whole")
        for name, entries in (
            ("CHUNK_TABLE_ENTRIES", 10 * 2**4),  # one trial per chunk
            ("CHUNK_TABLE_ENTRIES", 3 * 10 * 2**4),  # three at L = 10, one above
            ("CHUNK_LINK_ENTRIES", 1000),  # four at L = 10, fewer above
        ):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sim_harness, name, entries)
                chunked = _sweep_bytes(config, tmp_path, f"{name}{entries}")
            assert chunked == whole, (config.sweep, config.verify, name, entries)


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


@st.composite
def _small_sweeps(draw):
    """A small radius or profile-count sweep over every method, in a drawn order."""
    config = dict(
        helpers=draw(st.integers(1, 6)),
        user_radius=draw(st.sampled_from((1.0, 2.0))),
        trials=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**32 - 1)),
        methods=tuple(draw(st.permutations(ALL_METHODS))),
    )
    radii = st.sampled_from((0.4, 1.0, 1.6, 2.4))
    if draw(st.booleans()):
        profiles = draw(st.integers(2, 5))
        config.update(
            gamma=draw(st.integers(1, profiles - 1)) / profiles,
            sweep="r",
            values=tuple(draw(st.lists(radii, min_size=1, max_size=3, unique=True))),
            profiles=profiles,
        )
    else:
        share = draw(st.sampled_from((2, 3)))  # gamma = 1 / share, so L is a multiple of it
        config.update(
            gamma=1 / share,
            sweep="L",
            values=tuple(draw(st.lists(
                st.sampled_from((share, 2 * share)), min_size=1, max_size=2, unique=True
            ))),
            radius=draw(radii),
        )
    density = st.sampled_from((0.3, 1.0, 2.0))
    if config["sweep"] == "L" and draw(st.booleans()):
        config.update(density_per_profile=draw(density) / 2)
    else:
        config.update(density=draw(density))
    return ExperimentConfig(**config)


def _rows(config, **overrides):
    """Each (sweep value, method) row of a sweep, per-trial arrays included, as JSON."""
    return {
        (r.sweep_value, r.method): json.dumps(asdict(r))
        for r in run_sweep(replace(config, **overrides))
    }


@settings(max_examples=40, deadline=None)
@given(_small_sweeps())
def test_sweep_rows_do_not_depend_on_what_else_runs(config):
    rows = _rows(config)
    assert _rows(config, methods=config.methods[::-1]) == rows
    for method in config.methods:
        assert _rows(config, methods=(method,)) == {k: v for k, v in rows.items() if k[1] == method}
    for value in config.values:
        assert _rows(config, values=(value,)) == {k: v for k, v in rows.items() if k[0] == value}
    verified = _rows(config, methods=("bb", "greedy"), verify=True)
    assert verified == {k: v for k, v in rows.items() if k[1] != "fc"}


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
    for field in ("counts", "transmissions", "dof"):
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
    with pytest.raises(ValueError, match="requires a fixed radius"):
        _tiny_config(sweep="L", values=(2, 4), profiles=None, radius=None)
    # a fixed value for the swept variable would be silently dropped
    with pytest.raises(ValueError, match="radius is swept"):
        _tiny_config(radius=1.5)
    with pytest.raises(ValueError, match="profiles is swept"):
        _tiny_config(sweep="L", values=(2, 4), radius=1.0)
    with pytest.raises(ValueError):
        _tiny_config(methods=("bb", "annealing"))
    with pytest.raises(ValueError, match="must not repeat"):
        _tiny_config(methods=("bb", "bb"))
    with pytest.raises(ValueError, match="cannot be decode-verified"):
        _tiny_config(methods=("bb", "fc"), verify=True)
    with pytest.raises(ValueError, match="integers"):
        _tiny_config(sweep="L", values=(10.5,), profiles=None, radius=1.0)
    with pytest.raises(ValueError, match="must be an integer"):
        _tiny_config(profiles=10.5, density=None, density_per_profile=1.0)
    with pytest.raises(ConfigError, match="memory sharing"):
        PointConfig(helpers=4, profiles=10, gamma=0.15, radius=1.0, user_radius=2.7, density=1.0)
    # every point is checked when the sweep resolves it, before any trial is drawn
    for overrides, message in (
        (dict(helpers=0), "helper count"),
        (dict(density=0.0), "user density"),
        (dict(user_radius=-1.0), "user disk radius"),
        (dict(values=(1.0, -0.5)), "transmission radius"),
    ):
        with pytest.raises(ValueError, match=message):
            _tiny_config(**overrides).points()
    with pytest.raises(ValueError, match="trial count"):
        _tiny_config(trials=2.5)
    with pytest.raises(ValueError, match="trial count"):
        _tiny_config(trials=0)
    for overrides, message in (
        (dict(profiles=2.5, gamma=0.4), "profile count"),
        (dict(helpers=2.0), "helper count"),
        (dict(radius=math.nan), "transmission radius"),
    ):
        with pytest.raises(ValueError, match=message):
            PointConfig(**{**_POINT, **overrides})


def test_sweep_points_resolve_density_per_profile():
    config = _tiny_config(
        sweep="L", values=(2, 4), profiles=None, radius=1.0, density=None,
        density_per_profile=0.7,
    )
    points = config.points()
    assert [p.profiles for _, p in points] == [2, 4]
    assert [p.density for _, p in points] == pytest.approx([1.4, 2.8])


def test_sweep_rejects_fractional_share_at_any_point():
    config = _tiny_config(sweep="L", values=(2, 3), profiles=None, radius=1.0)  # gamma*3 = 1.5
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
    # the swept radius cannot also be fixed
    assert main(args + ["--radius", "9"]) == 1
    assert "error: radius is swept" in capsys.readouterr().err
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


def test_cli_partition_methods(tmp_path, capsys):
    instance = tmp_path / "instance.txt"
    instance.write_text(REFERENCE_INSTANCE)

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
