import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_INSTANCE
from helpercache import cli, delivery, partitioner, sim_harness
from helpercache.cache_placement import ConfigError, ProfileAssignment, assign_profiles
from helpercache.cli import main
from helpercache.delivery import DecodeFailure, SingularChannelError, decode_round
from helpercache.partitioner import (
    greedy_assign,
    greedy_counts,
    load_instance,
    min_partition_counts,
    optimal_partitions,
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
from partition_reference import brute_force_min_partitions

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


def test_verified_multiword_profiles_match_plain_and_chunked(monkeypatch):
    # About 175 users per profile on two helpers: greedy_counts holds each
    # profile in two or more 64-bit words, and the verified run checks those
    # counts against greedy_assign's scan.
    point = PointConfig(
        helpers=2, profiles=2, gamma=0.5, radius=1.2, user_radius=1.5,
        density=400 / (math.pi * 1.5**2),
    )
    seeds = [derive_trial_seed(4, index) for index in range(4)]
    plain = run_point(point, seeds)
    assert plain.counts["greedy"].min() > 64
    _assert_same_outcome(plain, run_point(point, seeds, verify=True))
    monkeypatch.setattr(sim_harness, "CHUNK_TABLE_ENTRIES", point.profiles << point.helpers)
    _assert_same_outcome(plain, run_point(point, seeds))  # one trial per chunk


@pytest.mark.parametrize("builder, method", [(optimal_partitions, "bb"), (greedy_assign, "greedy")])
def test_verified_sweep_refuses_an_unserved_user(monkeypatch, builder, method):
    # A builder that leaves one user out keeps every count and every slot
    # decodable; only the check of who is served catches it.
    dropped = []

    def dropping_one(*args):
        pset = builder(*args)
        for g, part in enumerate(pset.partitions):
            if len(part) > 1 and not dropped:
                dropped.append(part[0][1])
                partitions = pset.partitions[:g] + (part[1:],) + pset.partitions[g + 1 :]
                return replace(pset, partitions=partitions)
        return pset

    monkeypatch.setattr(sim_harness, builder.__name__, dropping_one)
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    expected = rf"coverage audit failed \(seed {seeds[0]}, method {method}\)"
    with pytest.raises(RuntimeError, match=expected) as failure:
        run_point(_point(), seeds, verify=True)
    assert f"users [{dropped[0]}] are not served" in str(failure.value)


def test_verified_sweep_refuses_a_user_outside_the_trial(monkeypatch):
    # A bb builder that adds a pair for user K, one past the trial's last
    # user, serves every user once; only the check of who is served catches it.
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    outsider = int(run_point(_point(), seeds[:1]).num_users[0])

    def adding_one(subnet, count):
        pset = optimal_partitions(subnet, count)
        if subnet.profile > 1 or not pset.partitions:
            return pset
        first = pset.partitions[0] + ((pset.num_helpers - 1, outsider),)
        return replace(pset, partitions=(first,) + pset.partitions[1:])

    monkeypatch.setattr(sim_harness, "optimal_partitions", adding_one)
    expected = rf"coverage audit failed \(seed {seeds[0]}, method bb\)"
    with pytest.raises(RuntimeError, match=expected) as failure:
        run_point(_point(), seeds, ("bb",), verify=True)
    assert f"users [{outsider}] are not in the trial" in str(failure.value)


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
    generators, initial_states = [], []

    def tracked(trial_seeds, make=sim_harness._trial_generators):
        made = make(trial_seeds)
        generators.extend(made)
        initial_states.extend(g.bit_generator.state for g in made)
        return made

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_harness, "_trial_generators", tracked)
        adjacency, labels, num_users, draws = sim_harness._draw_chunk(point, seeds, verify)
    assert len(generators) == len(seeds)
    for seed, state in zip(seeds, initial_states):
        assert state == np.random.default_rng(seed).bit_generator.state
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=8))
def test_seed_words_are_numpy_seed_sequence_states(seeds):
    # The vectorised hash must be numpy's own: a numpy release that changed
    # its SeedSequence would change every sweep output, and fail here.
    seeds = seeds + [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    words = sim_harness._seed_words(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for row, seed in zip(words, seeds):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))


def test_run_point_refuses_seeds_outside_64_bits():
    drawn = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_harness, "_draw_chunk", lambda *args: drawn.append(args))
        for seed in (-1, 2**64, 2.5):
            with pytest.raises(ValueError, match=re.escape(f"trial seed {seed!r} ")):
                run_point(_point(), [7, seed])
    assert drawn == []  # refused before any trial is drawn
    outcome = run_point(_point(), [np.uint64(2**64 - 1), 0])
    assert outcome.num_users.shape == (2,)


def test_resolving_a_sweep_leaves_numpy_random_unloaded():
    # Importing numpy.random takes about 13 ms; a sweep that has not drawn
    # yet, like the benchmark's set-up, does not need it.
    code = (
        "import sys\n"
        "from helpercache.sim_harness import ExperimentConfig\n"
        "ExperimentConfig(helpers=4, gamma=0.1, user_radius=2.7, trials=5, seed=0,\n"
        "                 sweep='r', values=(1.2, 4.2), profiles=10, density=1.0).points()\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    source = str(Path(sim_harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout == "[]\n"


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
    with pytest.raises(ValueError, match="sweeping r requires a fixed profile count"):
        _tiny_config(profiles=None)
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
    # True is an integer to Python, but no count: it is refused, not read as 1
    with pytest.raises(ValueError, match="trial count"):
        _tiny_config(trials=True)
    with pytest.raises(ValueError, match="helper count"):
        _tiny_config(helpers=True).points()
    with pytest.raises(ValueError, match="profile count must be an integer, got True"):
        _tiny_config(profiles=True)
    with pytest.raises(ValueError, match="profile counts must be integers"):
        _tiny_config(sweep="L", values=(True, 10), profiles=None, radius=1.0)
    # nor is True a real number: it would run as radius or density 1.0
    for overrides, message in (
        (dict(values=(True, 2.5)), "transmission radius"),
        (dict(sweep="L", values=(2, 4), profiles=None, radius=True), "transmission radius"),
        (dict(density=None, density_per_profile=True), "user density per profile"),
    ):
        with pytest.raises(ValueError, match=f"the {message} must be a real number, got True"):
            _tiny_config(**overrides)
    for overrides, message in (
        (dict(density=True), "user density"),
        (dict(user_radius=True), "user disk radius"),
    ):
        with pytest.raises(ValueError, match=f"the {message} must be a real number, got True"):
            _tiny_config(**overrides).points()
    for overrides, message in (
        (dict(radius=True), "transmission radius must be a real number"),
        (dict(user_radius=True), "user disk radius must be a real number"),
        (dict(density=True), "user density must be a real number"),
        (dict(profiles=2.5, gamma=0.4), "profile count"),
        (dict(helpers=2.0), "helper count"),
        (dict(radius=math.nan), "transmission radius"),
        (dict(density=math.inf), "user density must be finite"),
        (dict(user_radius=math.inf), "user disk radius must be finite"),
    ):
        with pytest.raises(ValueError, match=message):
            PointConfig(**{**_POINT, **overrides})


def test_config_rejects_repeated_values_and_non_integer_seeds(tmp_path):
    with pytest.raises(ValueError, match="sweep values must not repeat"):
        _tiny_config(values=(1.0, 2.5, 1.0))
    with pytest.raises(ValueError, match="sweep values must not repeat"):
        _tiny_config(sweep="L", values=(2, 2.0), profiles=None, radius=1.0)
    # 1.0 would hash to other trials than 1
    for seed in (1.0, "1", True, None):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            _tiny_config(seed=seed)
    # a numpy integer draws the trials of the equal int, and writes the same bytes
    for fmt in ("csv", "json"):
        paths = [tmp_path / f"{name}.{fmt}" for name in ("numpy", "int")]
        for seed, path in zip((np.int64(3), 3), paths):
            emit_results(run_sweep(_tiny_config(seed=seed)), fmt, str(path), fmt == "json")
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_infinite_radius_links_every_user():
    point = PointConfig(**{**_POINT, "radius": math.inf})
    outcome = run_point(point, [derive_trial_seed(1, index) for index in range(3)], ALL_METHODS)
    assert outcome.num_users.min() > 0
    assert np.array_equal(outcome.counts["bb"], outcome.counts["fc"])


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


def test_emit_rejects_unknown_formats(tmp_path):
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        emit_results(run_sweep(_tiny_config()), "xml", str(tmp_path / "x.xml"))
    assert not (tmp_path / "x.xml").exists()


def test_run_point_needs_a_trial():
    with pytest.raises(ValueError, match="at least one trial"):
        run_point(_point(), [])


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


def test_cli_simulate_profile_sweep_round_trip(tmp_path, capsys):
    out = tmp_path / "sweep_L.csv"
    args = [
        "simulate", "--sweep", "L", "--values", " 2, 4,", "--helpers", "2", "--gamma", "0.5",
        "--radius", "1.0", "--user-radius", "1.5", "--density-per-profile", "0.75",
        "--trials", "4", "--seed", "3", "--out", str(out),
    ]
    assert main(args) == 0
    assert capsys.readouterr().out == f"wrote 4 result rows to {out}\n"
    config = _tiny_config(
        sweep="L", values=(2, 4), profiles=None, radius=1.0, density=None,
        density_per_profile=0.75,
    )
    emit_results(run_sweep(config), "csv", str(tmp_path / "api.csv"))
    assert out.read_bytes() == (tmp_path / "api.csv").read_bytes()
    assert [row.split(",")[1] for row in out.read_text().splitlines()[1:]] == ["2"] * 2 + ["4"] * 2
    # profile counts are parsed as integers
    assert main(args[:4] + ["2.5"] + args[5:]) == 1
    assert "error: invalid literal for int()" in capsys.readouterr().err


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    for args in (
        ["simulate", "--sweep", "r"],
        ["partition", "--instance", str(tmp_path / "i.txt"), "--method", "annealing"],
        # count-only oracles, kept in the tests
        ["partition", "--instance", str(tmp_path / "i.txt"), "--method", "brute"],
        ["partition", "--instance", str(tmp_path / "i.txt"), "--method", "flow"],
    ):
        with pytest.raises(SystemExit) as stop:
            main(args)
        assert stop.value.code == 2
        assert "usage: helpercache" in capsys.readouterr().err


def test_cli_simulate_refuses_an_infinite_density(tmp_path, capsys):
    args = [
        "simulate", "--sweep", "r", "--values", "1.0", "--helpers", "2", "--profiles", "2",
        "--gamma", "0.5", "--user-radius", "1.5", "--density", "inf", "--trials", "2",
        "--out", str(tmp_path / "x.csv"),
    ]
    assert main(args) == 1
    assert "error: user density must be finite and positive, got inf" in capsys.readouterr().err


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

    # the matching's optimum, not bb_assign's equally small 1-4-7-11 / 2-5-8-12 / 3-9-6-10
    assert main(["partition", "--instance", str(instance), "--method", "bb"]) == 0
    assert capsys.readouterr().out == "partitions: 3\n1-4-6-9\n2-5-7-11\n3-10-8-12\n"


def _solve_instance(tmp_path, capsys, text):
    """The count and rows that `partition --method bb` prints for an instance text."""
    instance = tmp_path / "instance.txt"
    instance.write_text(text)
    assert main(["partition", "--instance", str(instance), "--method", "bb"]) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    return int(head.removeprefix("partitions: ")), [row for row in rows if row]


def _assert_rows_serve_each_user_once(subnet, rows):
    """Every row pairs distinct helpers with linked users, and every user appears once."""
    links = dict(zip(subnet.users, subnet.candidates))
    served = []
    for row in rows:
        slots = [int(user) for user in row.split("-")]
        assert len(slots) == subnet.num_helpers  # one slot per helper
        served += [user for user in slots if user]
        assert all(helper in links[user] for helper, user in enumerate(slots) if user)
    assert sorted(served) == sorted(subnet.users)


@pytest.fixture
def no_branch_and_bound(monkeypatch):
    def refuse(tables):
        raise AssertionError("bb_assign ran")

    # through the module, or through a name the CLI imported for itself
    monkeypatch.setattr(partitioner, "bb_assign", refuse)
    monkeypatch.setattr(cli, "bb_assign", refuse, raising=False)


@pytest.mark.usefixtures("no_branch_and_bound")
def test_cli_partition_bb_prints_an_optimum_without_the_branch_and_bound(tmp_path, capsys):
    rng = random.Random(7)
    texts = [REFERENCE_INSTANCE]
    for _ in range(60):
        num_helpers = rng.randint(1, 6)
        texts.append(f"helpers: {num_helpers}\n")
        for user in range(1, rng.randint(0, 10) + 1):
            labels = rng.sample(range(1, num_helpers + 1), rng.randint(1, min(3, num_helpers)))
            texts[-1] += f"{user}: {','.join(map(str, labels))}\n"
    for text in texts:
        subnet = load_instance(io.StringIO(text))
        count, rows = _solve_instance(tmp_path, capsys, text)
        assert count == len(rows) == brute_force_min_partitions(subnet)
        _assert_rows_serve_each_user_once(subnet, rows)


@pytest.mark.usefixtures("no_branch_and_bound")
def test_cli_partition_bb_past_the_hall_table(tmp_path, capsys):
    # 24 helpers, past the 20 of Hall's table; 34 single-homed users and 120
    # users on three helpers of a ring.  K = 154 users need ceil(K / E) = 7
    # partitions by pigeonhole, which proves the printed count optimal.
    rng, num_helpers = random.Random(5), 24
    cands = [(h,) for h in range(num_helpers) for _ in range(rng.randint(0, 3))]
    for _ in range(120):
        a = rng.randrange(num_helpers)
        cands.append((a, (a + 1) % num_helpers, (a + rng.randint(2, 4)) % num_helpers))
    text = f"helpers: {num_helpers}\n" + "".join(
        f"{user}: {','.join(str(h + 1) for h in cand)}\n" for user, cand in enumerate(cands, 1)
    )
    subnet = load_instance(io.StringIO(text))
    count, rows = _solve_instance(tmp_path, capsys, text)
    assert subnet.num_users == 154
    assert count == len(rows) == math.ceil(154 / num_helpers) == 7
    _assert_rows_serve_each_user_once(subnet, rows)


def test_cli_partition_missing_file(capsys):
    assert main(["partition", "--instance", "/nonexistent/file.txt"]) == 1
    assert "error:" in capsys.readouterr().err
