import copy
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_INSTANCE
from delivery_reference import build_rounds, served_pairs
from helpercache import cli, delivery, partitioner, sim_harness
from helpercache.cache_placement import (
    ConfigError,
    ProfileAssignment,
    assign_profiles,
)
from helpercache.cli import main
from helpercache.delivery import (
    DecodeFailure,
    ServedPairs,
    SingularChannelError,
    decode_schedules,
)
from helpercache.partitioner import (
    greedy_counts,
    hall_witnesses,
    load_instance,
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
from helpercache.topology import (
    MAX_DISK_RADIUS,
    Connectivity,
    connect,
    draw_channels,
    hex_layout,
    mean_user_count,
    sample_users,
)
import partition_reference
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


@pytest.mark.parametrize(
    "master", [0, 7, -3, 2**64 + 5, -(2**70), np.int64(-9), np.uint64(2**64 - 1), np.int32(11)]
)
def test_trial_seeds_hash_the_decimal_text(master):
    # The key is the text "master|index", for numpy integers as for Python's.
    for index in (0, 1, np.int64(3), 10**20):
        key = f"{int(master)}|{int(index)}".encode()
        expected = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        assert derive_trial_seed(master, index) == expected
    pinned = {(0, 0): 451139424097934950, (20240801, 999): 17713714548675653784}
    pinned[-5, 2**64] = 3512047972878095211
    assert {key: derive_trial_seed(*key) for key in pinned} == pinned


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
    # At a subnormal density the chunk step, entries over expected entries, overflows.
    sparse = PointConfig(
        helpers=1, profiles=2, gamma=0.5, radius=1.0, user_radius=1.0, density=1e-310
    )
    assert run_point(sparse, [1, 2], ("greedy",)).num_users.tolist() == [0, 0]


def test_verified_trial_matches_unverified_stats():
    # Verified trials also build every partition and decode the schedule;
    # the numbers must be those of the plain run.
    seeds = [derive_trial_seed(2, 7 + index) for index in range(3)]
    for radius in (1.2, 2.2, 3.2, 4.2):
        plain = run_point(_point(radius=radius), seeds)
        _assert_same_outcome(plain, run_point(_point(radius=radius), seeds, verify=True))


def _shifted(builder, error, first_label=0):
    """`builder`, with every partition of the first nonempty label above
    `first_label` moved by `error`: that label's built count moves by
    `error`.  Either chunk builder: both take (links, labels, a count) and
    return (partition, helper), greedy's after its scan's counts."""

    def shifted(first, labels, last):
        *counts, partition, helper = builder(first, labels, last)
        label = labels[labels > first_label].min()
        partition[labels == label] += error
        return (*counts, partition, helper)

    return shifted


def _chunk_counts(point, seeds):
    """The labels, greedy's counts and Hall's counts of the verified chunk of `seeds`."""
    adjacency, labels, _, _, _ = sim_harness._draw_chunk(point, seeds, True)
    num_labels = len(seeds) * point.profiles
    hall = hall_witnesses(adjacency, labels, num_labels)[0]
    return labels, greedy_counts(adjacency, labels, num_labels), hall


def _hall_edited(edit):
    """`hall_witnesses`, its (counts, witnesses) passed through `edit` in place."""

    def edited(adjacency, labels, num_labels, run=sim_harness.hall_witnesses):
        counts, witnesses = run(adjacency, labels, num_labels)
        edit(counts, witnesses)
        return counts, witnesses

    return edited


def test_verified_trial_rejects_count_mismatch(monkeypatch):
    # The batched Hall call is off by one on a single label: 2 * L + 2 is
    # profile 3 of the third trial, which must be the trial that fails.
    # There greedy's scan takes one partition more than Hall's count.  One
    # too high, the table meets greedy's count, so bb keeps greedy's
    # placement, whose built count agrees: only the witness's recount
    # catches it.  One too low, the label goes to the matching, whose
    # partitions are the fewest there are and so one more.  The same fault
    # in the matching's placement, on the third trial's first label that
    # it places, names the same trial.
    config = ExperimentConfig(
        helpers=4, gamma=0.1, user_radius=2.7, trials=4, seed=2, sweep="r", values=(1.2,),
        profiles=10, density=REFERENCE_DENSITY, verify=True,
    )
    seeds = [derive_trial_seed(2, index) for index in range(4)]
    _, scanned, hall = _chunk_counts(_point(), seeds)
    assert scanned[2 * 10 + 2] == hall[2 * 10 + 2] + 1
    expected = {
        1: "^Hall's formula .* differs from its witnesses' bounds ceil",
        -1: "^partition counts .* differ from Hall's formula",
    }
    for error in (1, -1):

        def off_by_one(counts, witnesses, error=error):
            counts[2 * 10 + 2] += error

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim_harness, "hall_witnesses", _hall_edited(off_by_one))
            with pytest.raises(RuntimeError, match=expected[error]) as failure:
                run_sweep(config)
        assert str(failure.value).endswith(f"(seed {seeds[2]}, method bb)")
        with pytest.MonkeyPatch.context() as patch:
            shifted = _shifted(sim_harness.optimal_placement, error, first_label=2 * 10)
            patch.setattr(sim_harness, "optimal_placement", shifted)
            with pytest.raises(RuntimeError, match=expected[-1]) as failure:
                run_sweep(config)
        assert str(failure.value).endswith(f"(seed {seeds[2]}, method bb)")


def test_verified_bb_rejects_a_short_witness_and_a_shifted_greedy_label(monkeypatch):
    # Two more faults on the third trial.  A witness S whose recount of
    # ceil(N_S / |S|) falls short of Hall's count: S = every helper, on
    # the trial's first label where that bound is below the count.  And
    # greedy's partitions shifted on the trial's first label with users,
    # where greedy's count is Hall's, so bb's placement there is greedy's:
    # bb's check fails first, as bb comes first.
    point, seeds = _point(), [derive_trial_seed(2, index) for index in range(4)]
    labels, scanned, hall = _chunk_counts(point, seeds)
    users = np.bincount(labels - 1, minlength=hall.size)
    short = next(i for i in range(20, 30) if -(-users[i] // point.helpers) < hall[i])

    def every_helper(counts, witnesses):
        witnesses[short] = (1 << point.helpers) - 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_harness, "hall_witnesses", _hall_edited(every_helper))
        expected = rf"^Hall's formula .* \(seed {seeds[2]}, method bb\)$"
        with pytest.raises(RuntimeError, match=expected):
            run_point(point, seeds, verify=True)
    first = labels[labels > 2 * 10].min() - 1
    assert scanned[first] == hall[first]
    place = sim_harness.greedy_placement
    monkeypatch.setattr(sim_harness, "greedy_placement", _shifted(place, 1, first_label=2 * 10))
    expected = rf"^partition counts .* from Hall's formula .* \(seed {seeds[2]}, method bb\)$"
    with pytest.raises(RuntimeError, match=expected):
        run_point(point, seeds, verify=True)


def test_verified_trial_rejects_greedy_count_mismatch(monkeypatch):
    # Verified greedy's counts are the pass counts of the scan that places
    # it, checked against the partitions that scan recorded.  Either side
    # off, on the third trial's labels, names the third trial: the scan's
    # counts one too high on its first label with users, which then goes
    # to bb's matching, or the recorded partitions shifted by one on its
    # first label where greedy's count exceeds Hall's, which bb's placement
    # does not share.
    seeds = [derive_trial_seed(2, index) for index in range(4)]
    expected = (
        rf"^partition counts .* differ from greedy_placement's scan .* "
        rf"\(seed {seeds[2]}, method greedy\)$"
    )
    place = sim_harness.greedy_placement

    def off_by_one(adjacency, labels, num_labels):
        counts, partition, helper = place(adjacency, labels, num_labels)
        counts[labels[labels > 2 * 10].min() - 1] += 1
        return counts, partition, helper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_harness, "greedy_placement", off_by_one)
        with pytest.raises(RuntimeError, match=expected):
            run_point(_point(), seeds, verify=True)
    _, scanned, hall = _chunk_counts(_point(), seeds)
    (over,) = np.flatnonzero(scanned[20:30] > hall[20:30])  # label 23, as above
    shifted = _shifted(place, 1, first_label=2 * 10 + over)
    monkeypatch.setattr(sim_harness, "greedy_placement", shifted)
    with pytest.raises(RuntimeError, match=expected):
        run_point(_point(), seeds, verify=True)


def test_verified_chunk_scans_greedy_once(monkeypatch):
    # A verified chunk counts greedy and places it with one scan; only an
    # unverified chunk calls `greedy_counts`.  A verified chunk scans even
    # without greedy, for bb's placement; an unverified bb chunk does not.
    # Every chunk with bb, verified or not, makes one `hall_witnesses` call,
    # and one without bb none.  The chunks here hold one trial each.
    scans, counted, halls = [], [], []

    def scan(*args, run=partitioner._greedy_scan, **options):
        scans.append(args[2])
        return run(*args, **options)

    def counting(*args, run=greedy_counts):
        counted.append(args[2])
        return run(*args)

    def hall(*args, run=hall_witnesses):
        halls.append(args[2])
        return run(*args)

    monkeypatch.setattr(partitioner, "_greedy_scan", scan)
    monkeypatch.setattr(sim_harness, "greedy_counts", counting)
    monkeypatch.setattr(sim_harness, "hall_witnesses", hall)
    monkeypatch.setattr(sim_harness, "CHUNK_LINK_ENTRIES", 1)
    point, seeds = _point(), [derive_trial_seed(4, index) for index in range(3)]
    chunks = [point.profiles] * len(seeds)
    verified = run_point(point, seeds, verify=True)
    assert scans == halls == chunks and counted == []
    scans.clear()
    halls.clear()
    _assert_same_outcome(run_point(point, seeds), verified)
    assert scans == counted == halls == chunks
    scans.clear()
    halls.clear()
    run_point(point, seeds, ("bb",), verify=True)
    assert scans == halls == chunks
    scans.clear()
    halls.clear()
    run_point(point, seeds, ("bb",))
    assert scans == [] and halls == chunks
    halls.clear()
    run_point(point, seeds, ("greedy",), verify=True)
    run_point(point, seeds, ("greedy",))
    assert halls == []


def test_verified_bb_matches_only_labels_greedy_overcounts(monkeypatch):
    # Bb's placement is greedy's on every label whose scan count is Hall's.
    # One matching call per chunk gets the users of the other labels and
    # no others, and a chunk with none makes no call.  A bb-only verified
    # run still works and reports only bb.  Every label's witness is
    # checked, empty ones too.
    calls = []

    def counted(candidates, labels, num_helpers, place=sim_harness.optimal_placement):
        calls.append(labels.copy())
        return place(candidates, labels, num_helpers)

    monkeypatch.setattr(sim_harness, "optimal_placement", counted)
    point, seeds = _point(), [derive_trial_seed(2, index) for index in range(4)]
    labels, scanned, hall = _chunk_counts(point, seeds)
    over = scanned > hall
    assert over.reshape(4, 10).any(axis=1).tolist() == [True, False, True, True]
    outcome = run_point(point, seeds, ("bb",), verify=True)
    assert list(outcome.counts) == ["bb"]
    _assert_same_outcome(outcome, run_point(point, seeds, ("bb",)))
    (matched,) = calls
    assert np.array_equal(matched, labels[over[labels - 1]])
    calls.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_harness, "CHUNK_TABLE_ENTRIES", point.profiles << point.helpers)
        run_point(point, seeds, ("bb",), verify=True)  # a chunk per trial
    trial = (labels - 1) // point.profiles
    assert [c.size for c in calls] == [np.sum(over[labels - 1] & (trial == i)) for i in (0, 2, 3)]
    # At r = 4.2 greedy's count is Hall's on every label of the benchmark's
    # seed-0 verify_decode cycle, so no matching runs.
    calls.clear()
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import sweeps

        workload = sweeps.WORKLOADS["verify_decode"]
        for index in range(sweeps.ROUND_CYCLE):
            run_sweep(replace(workload.round_config(0, index), values=(4.2,)))
    finally:
        for name in ("sweeps", "calibration"):
            sys.modules.pop(name, None)
    assert calls == []
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    counts = run_point(point, seeds, ("bb",)).counts["bb"].ravel()
    empty = int(np.flatnonzero(counts == 0)[0])

    def one_on_an_empty_label(counts, witnesses):
        counts[empty] += 1

    monkeypatch.setattr(sim_harness, "hall_witnesses", _hall_edited(one_on_an_empty_label))
    expected = rf"Hall's formula .* \(seed {seeds[empty // 10]}, method bb\)$"
    with pytest.raises(RuntimeError, match=expected):
        run_point(point, seeds, ("bb",), verify=True)


def test_verified_saturated_chunk_keeps_its_checks_and_their_errors(monkeypatch):
    # At r = 4.2 every kept user links every helper, so Hall's counts and
    # greedy's placement come in closed form, with no table and no scan.
    # The chunk still recounts its witnesses and audits its table, once
    # each, and a fault in a witness, a count or a slot raises the error
    # it raises anywhere else, text for text.
    point, seeds = _point(radius=4.2), [derive_trial_seed(2, index) for index in range(4)]
    adjacency, labels, *_ = sim_harness._draw_chunk(point, seeds, True)
    assert adjacency.all()
    calls = []
    for name in ("_witness_bounds", "audit_pairs"):

        def spied(*args, run=getattr(sim_harness, name), name=name):
            calls.append(name)
            return run(*args)

        monkeypatch.setattr(sim_harness, name, spied)
    run_point(point, seeds, verify=True)
    assert calls == ["_witness_bounds", "audit_pairs"]
    hall = -(-np.bincount(labels - 1, minlength=40) // point.helpers)
    first = int(labels[labels > 2 * 10].min() - 1)  # the third trial's first label with users
    third = tuple(hall[20:30].tolist())

    def without_helper_3(counts, witnesses):
        witnesses[first] = 0b0111  # every user links helper 3, so N_S = 0

    bounds = tuple(0 if i == first else c for i, c in enumerate(hall[20:30].tolist(), 20))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_harness, "hall_witnesses", _hall_edited(without_helper_3))
        with pytest.raises(RuntimeError) as failure:
            run_point(point, seeds, verify=True)
    assert str(failure.value) == (
        f"Hall's formula {third} differs from its witnesses' bounds ceil(N_S / |S|) "
        f"{bounds} (seed {seeds[2]}, method bb)"
    )

    def one_too_many(counts, witnesses):
        counts[first] += 1

    raised = tuple(c + (i == first) for i, c in enumerate(hall[20:30].tolist(), 20))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_harness, "hall_witnesses", _hall_edited(one_too_many))
        with pytest.raises(RuntimeError) as failure:
            run_point(point, seeds, verify=True)
    assert str(failure.value) == (
        f"partition counts {third} differ from Hall's formula {raised} "
        f"(seed {seeds[2]}, method bb)"
    )
    clash = {}

    def sharing_a_helper(columns):
        rows = next(rows for rows in _slots(columns, 0) if len(rows) > 1)
        columns["helper"][rows[1]] = columns["helper"][rows[0]]
        clash.update({name: columns[name][rows[0]] for name in _COLUMNS})

    _edit_table(monkeypatch, sharing_a_helper)
    with pytest.raises(RuntimeError) as failure:
        run_point(point, seeds, verify=True)
    assert str(failure.value) == (
        f"coverage audit failed (seed {seeds[0]}, method bb): helper {clash['helper']}: matched "
        f"to 2 users of slot (round, profile) ({clash['round']}, {clash['profile']})"
    )


def test_verified_large_cluster_finishes():
    # 19 helpers: on these two trials a single profile kept the branch and
    # bound busy for seconds to minutes; one matching pass takes
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
    # counts against the users greedy_placement's run of the scan places.
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


_COLUMNS = ("schedule", "round", "profile", "helper", "user")


def _edit_table(patch, edit):
    """Pass the table of each verified chunk through `edit`, which changes a
    dict of its columns as lists, before the table is audited."""
    build = sim_harness._pair_table

    def edited(*args):
        pairs = build(*args)
        columns = {name: getattr(pairs, name).tolist() for name in _COLUMNS}
        edit(columns)
        arrays = (np.array(columns[name], dtype=np.int32) for name in _COLUMNS)
        return ServedPairs(pairs.num_profiles, *arrays)

    patch.setattr(sim_harness, "_pair_table", edited)


def _slots(columns, schedule):
    """The rows of each (round, profile) slot of a schedule, slots in row order."""
    slots = {}
    for row, owner in enumerate(columns["schedule"]):
        if owner == schedule:
            slots.setdefault((columns["round"][row], columns["profile"][row]), []).append(row)
    return list(slots.values())


def _insert(columns, at, **values):
    for name in _COLUMNS:
        columns[name].insert(at, values[name])


def _reference_table(point, seeds):
    """Every schedule of the verified trials of `seeds` as one table, repeats too.

    Each trial's schedule under bb, then under greedy, built one profile at
    a time from `optimal_partitions` and the reference `greedy_assign`, not
    the scan the chunk's greedy placement runs: schedule i * 2 + m is
    trial i's under method m, as in a chunk's table.  A profile's bb
    partitions are greedy's where greedy's are as few, else the matching's.
    """
    adjacency, labels, num_users, _, _ = sim_harness._draw_chunk(point, seeds, True)
    bounds = np.concatenate(([0], np.cumsum(num_users))).tolist()
    schedules = []
    for i, (first, last) in enumerate(zip(bounds, bounds[1:])):
        conn = Connectivity(adjacency[:, first:last], reachable_users=np.arange(last - first))
        profiles = ProfileAssignment(labels[first:last] - i * point.profiles, point.profiles)
        subnets = subnetworks_from_connectivity(conn, profiles)
        greedy = {p: partition_reference.greedy_assign(subnet) for p, subnet in subnets.items()}
        fewest = {p: optimal_partitions(subnet) for p, subnet in subnets.items()}
        bb = {p: greedy[p] if greedy[p].count == fewest[p].count else fewest[p] for p in subnets}
        schedules += [build_rounds(bb, point.profiles), build_rounds(greedy, point.profiles)]
    return served_pairs(schedules)


def _record_calls(patch, calls):
    """Keep the arguments of the chunk's `decode_schedules` call and of the precoders it makes."""
    for module, name in ((delivery, "matched_precoders"), (sim_harness, "decode_schedules")):

        def recorded(*args, call=getattr(module, name), name=name):
            calls.setdefault(name, []).append(args)
            return call(*args)

        patch.setattr(module, name, recorded)


def _schedule_rows(pairs):
    """Each schedule of a table: its id, and its (round, profile, helper, user) rows."""
    rows = {}
    for s, *row in zip(*(getattr(pairs, name).tolist() for name in _COLUMNS)):
        rows.setdefault(s, []).append(tuple(row))
    return {s: tuple(schedule) for s, schedule in rows.items()}


@pytest.mark.parametrize("method", ["bb", "greedy"])
def test_verified_sweep_refuses_an_unserved_user(monkeypatch, method):
    # A table that leaves one user out keeps every count and every slot
    # decodable; only the check of who is served catches it.  The user is
    # dropped from the method's first schedule in the table: the first
    # trial's greedy schedule repeats its bb one, so the table has none.
    dropped = []
    m = ("bb", "greedy").index(method)

    def dropping_one(columns):
        if not dropped:
            schedule = min(s for s in columns["schedule"] if s % 2 == m)
            row = next(rows[0] for rows in _slots(columns, schedule) if len(rows) > 1)
            dropped.append((schedule, columns["user"][row]))
            for name in _COLUMNS:
                del columns[name][row]

    _edit_table(monkeypatch, dropping_one)
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    with pytest.raises(RuntimeError) as failure:
        run_point(_point(), seeds, verify=True)
    ((schedule, user),) = dropped
    assert str(failure.value) == (
        f"coverage audit failed (seed {seeds[schedule // 2]}, method {method}): "
        f"users [{user}] are not served"
    )


def test_verified_sweep_refuses_a_user_outside_the_trial(monkeypatch):
    # A table that adds a pair for user K, one past the trial's last user,
    # on a helper its slot leaves idle, serves every user once; only the
    # check of who is served catches it.
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    outsider = int(run_point(_point(), seeds[:1]).num_users[0])

    def adding_one(columns):
        rows = next(rows for rows in _slots(columns, 0) if len(rows) < 4)
        idle = min(set(range(4)) - {columns["helper"][row] for row in rows})
        values = {name: columns[name][rows[0]] for name in _COLUMNS}
        _insert(columns, rows[-1] + 1, **{**values, "helper": idle, "user": outsider})

    _edit_table(monkeypatch, adding_one)
    expected = (
        rf"coverage audit failed \(seed {seeds[0]}, method bb\): "
        rf"users \[{outsider}\] are not in the trial$"
    )
    with pytest.raises(RuntimeError, match=expected):
        run_point(_point(), seeds, ("bb",), verify=True)


def test_verified_sweep_refuses_a_user_in_two_slots(monkeypatch):
    # The second trial's first user, served again in a round added after
    # the last of its greedy schedule: the audit names it with both
    # (round, profile) slots, and no other problem.
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    twice = {}

    def serving_again(columns):
        rows = [row for row, owner in enumerate(columns["schedule"]) if owner == 3]
        values = {name: columns[name][rows[0]] for name in _COLUMNS}
        added = max(columns["round"][row] for row in rows) + 1
        twice.update(values, added=added)
        _insert(columns, rows[-1] + 1, **{**values, "round": added})

    _edit_table(monkeypatch, serving_again)
    with pytest.raises(RuntimeError) as failure:
        run_point(_point(), seeds, verify=True)
    user, profile = twice["user"], twice["profile"]
    assert str(failure.value) == (
        f"coverage audit failed (seed {seeds[1]}, method greedy): user {user}: served in 2 "
        f"slots (round, profile): ({twice['round']}, {profile}), ({twice['added']}, {profile})"
    )


def test_verified_sweep_refuses_a_helper_twice_in_a_slot(monkeypatch):
    # Two users of one slot on one helper: the slot is no matching.  Every
    # user is still served once; the audit names the helper and the slot.
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    clash = {}

    def sharing_a_helper(columns):
        rows = next(rows for rows in _slots(columns, 0) if len(rows) > 1)
        columns["helper"][rows[1]] = columns["helper"][rows[0]]
        clash.update({name: columns[name][rows[0]] for name in _COLUMNS})

    _edit_table(monkeypatch, sharing_a_helper)
    with pytest.raises(RuntimeError) as failure:
        run_point(_point(), seeds, ("bb",), verify=True)
    assert str(failure.value) == (
        f"coverage audit failed (seed {seeds[0]}, method bb): helper {clash['helper']}: matched "
        f"to 2 users of slot (round, profile) ({clash['round']}, {clash['profile']})"
    )


def test_verified_audit_names_the_first_failing_trial(monkeypatch):
    # Faults in the second and third trials: a miscount in the third, a
    # user left out in the second.  The error is the second trial's, as it
    # would be if the trials were checked one at a time.
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    monkeypatch.setattr(
        sim_harness, "greedy_placement", _shifted(sim_harness.greedy_placement, 1, first_label=20)
    )

    def dropping_one(columns):
        row = columns["schedule"].index(2)  # the second trial's, under bb
        for name in _COLUMNS:
            del columns[name][row]

    _edit_table(monkeypatch, dropping_one)
    expected = rf"^coverage audit failed \(seed {seeds[1]}, method bb\)"
    with pytest.raises(RuntimeError, match=expected):
        run_point(_point(), seeds, verify=True)


def _users_named(message):
    """Every user index an error message names."""
    found = re.search(r"users \(([^)]*)\)|user (\d+) failed", message)
    assert found, message
    return [int(user) for user in (found.group(1) or found.group(2)).split(",") if user.strip()]


def _equal_gains(patch):
    """Every linked gain equal, so every fully linked slot of two or more users is exactly singular.

    The normals are still drawn, so the rest of each trial's draw is unchanged.
    """

    def ones(num_users, num_helpers, rng, draw=sim_harness.channel_normals):
        return np.ones_like(draw(num_users, num_helpers, rng))

    patch.setattr(sim_harness, "channel_normals", ones)


def test_verify_errors_name_the_trial(monkeypatch):
    # One chunk of three verified trials: an error must name the trial's seed
    # and its own user indices, not the chunk-wide rows of its channel.
    point = _point()
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    sizes = run_point(point, seeds).num_users.tolist()
    assert min(sizes) > 0
    with pytest.MonkeyPatch.context() as patch:
        _equal_gains(patch)  # the first singular slot is the second trial's
        singular = rf"\) is ill-conditioned \(seed {seeds[1]}, method bb\)$"
        with pytest.raises(SingularChannelError, match=singular) as failure:
            run_point(point, seeds, verify=True)
    named = _users_named(str(failure.value))
    # its own indices: the trial's chunk rows start at sizes[0], and one named index is below it
    assert max(named) < sizes[1] and min(named) < sizes[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delivery, "DECODE_TOLERANCE", 0.0)  # no residual is below zero
        with pytest.raises(DecodeFailure, match=rf"\(seed {seeds[0]}, method bb\)") as failure:
            run_point(point, seeds, verify=True)
    assert max(_users_named(str(failure.value))) < sizes[0]
    # The third trial hears nothing from helper 0: a zero on its matched diagonal.
    calls = []

    def deaf_third_trial(num_users, num_helpers, rng, draw=sim_harness.channel_normals):
        normals = draw(num_users, num_helpers, rng)
        calls.append(None)
        if len(calls) == 3:
            normals[:, :, 0] = 0
        return normals

    monkeypatch.setattr(sim_harness, "channel_normals", deaf_third_trial)
    zero = rf"structurally zero .* \(seed {seeds[2]}, method bb\)$"
    with pytest.raises(ValueError, match=zero) as failure:
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


# L = 3 * 2^30 rejects about a quarter of numpy's 32-bit halves, so most of
# these trials are redrawn by `assign_profiles`.
_REJECTING = PointConfig(
    helpers=3, profiles=3 * 2**30, gamma=1 / (3 * 2**30), radius=2.4, user_radius=2.0, density=1.0
)


@settings(max_examples=150, deadline=None)
@given(
    _chunk_points(),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
    st.booleans(),
)
@example(_REJECTING, [0, 1, 2**32, 2**64 - 1], False)
@example(_REJECTING, [0, 1, 2**32, 2**64 - 1], True)
def test_chunk_draw_matches_trials_drawn_alone(point, seeds, verify):
    generators, initial_states = [], []

    def tracked(trial_seeds, make=sim_harness._trial_generators):
        made = make(trial_seeds)
        generators.extend(made)
        initial_states.extend(g.bit_generator.state for g in made)
        return made

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_harness, "_trial_generators", tracked)
        adjacency, labels, num_users, first_users, channel = sim_harness._draw_chunk(
            point, seeds, verify
        )
    assert len(generators) == len(seeds)
    for seed, state in zip(seeds, initial_states):
        assert state == np.random.default_rng(seed).bit_generator.state
    bounds = np.concatenate(([0], np.cumsum(num_users)))
    assert np.array_equal(first_users, bounds[:-1])
    assert adjacency.shape == (point.helpers, bounds[-1]) and labels.shape == (bounds[-1],)
    if verify:
        assert channel.shape == (bounds[-1], point.helpers)
    else:
        assert channel is None
    for i, seed in enumerate(seeds):
        links, kept, alone, profiles, after = _trial_drawn_alone(point, seed)
        rows = slice(bounds[i], bounds[i + 1])
        assert num_users[i] == kept.size
        assert np.array_equal(adjacency[:, rows], links)
        assert np.array_equal(labels[rows], profiles + i * point.profiles)
        # The per-trial library path, which the benchmark's traced loop follows.
        rng = np.random.default_rng(seed)
        users = sample_users(point.density, point.user_radius, rng)
        conn = connect(hex_layout(point.helpers), users, point.radius)
        assert np.array_equal(conn.adjacency, links) and np.array_equal(conn.reachable_users, kept)
        assert np.array_equal(draw_channels(conn, rng), alone)
        assignment = assign_profiles(conn.num_users, point.profiles, rng)
        assert np.array_equal(assignment.profile_of, profiles)
        assert copy.deepcopy(rng).random() == after
        if verify:
            assert np.array_equal(channel[rows], alone)
        # The draw left the trial's generator where the library path ends,
        # after the profiles, verified or not: the chunk draws no symbols.
        assert generators[i].random() == rng.random()


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


# L = 3 * 2^30 rejects about a quarter of numpy's draws; 2^32 takes halves as they are.
@pytest.mark.parametrize("num_profiles", [2, 3, 10, 40, 3 * 2**30, 2**32])
def test_chunk_profiles_are_numpy_bounded_draws(num_profiles):
    # Every trial's profiles from one pass over the chunk's raw words, each
    # trial's as `integers(1, L + 1, size=K)` on a fresh generator draws
    # them, and each generator left where that draw leaves numpy's.
    sizes = [0, 1, 2, 7, 8, 13, 0, 64]
    outran = 0  # trials whose draw read past its first ceil(K / 2) words
    for batch in range(25):
        seeds = [derive_trial_seed(batch, i) for i in range(len(sizes))]
        order = random.Random(batch).sample(sizes, len(sizes))
        rngs = [np.random.default_rng(seed) for seed in seeds]
        sizes_in_order = np.array(order)
        firsts = np.cumsum(sizes_in_order) - sizes_in_order
        profiles = sim_harness._chunk_profiles(rngs, sizes_in_order, firsts, num_profiles)
        numpy_rngs = [np.random.default_rng(seed) for seed in seeds]
        expected = [rng.integers(1, num_profiles + 1, size=k) for rng, k in zip(numpy_rngs, order)]
        assert profiles.dtype == np.int64
        assert np.array_equal(profiles, np.concatenate(expected))
        for seed, k, rng, numpy_rng in zip(seeds, order, rngs, numpy_rngs):
            after = numpy_rng.random()
            assert rng.random() == after
            assert np.array_equal(rng.standard_normal(3), numpy_rng.standard_normal(3))
            words_only = np.random.default_rng(seed)
            words_only.bit_generator.random_raw((k + 1) // 2)
            outran += words_only.random() != after
    assert outran > 0 if num_profiles == 3 * 2**30 else outran == 0


def test_chunk_profiles_of_one_profile_draw_nothing():
    rngs = [np.random.default_rng(seed) for seed in (4, 5)]
    profiles = sim_harness._chunk_profiles(rngs, np.array([3, 0]), np.array([0, 3]), 1)
    assert profiles.tolist() == [1, 1, 1] and profiles.dtype == np.int64
    assert [rng.random() for rng in rngs] == [np.random.default_rng(s).random() for s in (4, 5)]


def test_run_point_refuses_seeds_outside_64_bits():
    drawn = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_harness, "_draw_chunk", lambda *args: drawn.append(args))
        for seed in (-1, 2**64, 2.5, True):
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
    # Every decode error of a trial verified with others in one chunk, bit
    # for bit those of the trial verified alone.
    residuals = []

    def recorded(channel, pairs, *args):
        replayed = decode_schedules(channel, pairs, *args)
        if len(pairs):
            _, firsts = np.unique(pairs.schedule, return_index=True)
            residuals.extend(np.split(replayed, firsts[1:]))
        return replayed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_harness, "decode_schedules", recorded)
        run_point(point, seeds, ("bb", "greedy"), verify=True)
        together = [r.tobytes() for r in residuals]
        residuals.clear()
        for seed in seeds:
            run_point(point, [seed], ("bb", "greedy"), verify=True)
    assert together == [r.tobytes() for r in residuals]
    # one residual set per distinct schedule of each trial with users
    full = _schedule_rows(_reference_table(point, seeds))
    assert len(together) == len({(s // 2, rows) for s, rows in full.items()})


@settings(max_examples=60, deadline=None)
@given(_chunk_points(), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
def test_chunk_table_holds_the_per_trial_schedules(point, seeds):
    # The table `_checked_pairs` gives one chunk, row for row, is the
    # schedules of its trials built one profile at a time and flattened in
    # trial and method order, less every greedy schedule equal, row for
    # row, to its trial's bb schedule: the same pairs, in the same
    # transmission order, under the same schedule ids.
    adjacency, labels, num_users, first_users, _ = sim_harness._draw_chunk(point, seeds, True)
    methods = ("bb", "greedy")
    counts, scan, witnesses = evaluate_counts(
        adjacency, labels, len(seeds), point.profiles, methods, verify=True
    )
    names = [f"seed {seed}, method {method}" for seed in seeds for method in methods]
    pairs = sim_harness._checked_pairs(
        point, adjacency, labels, num_users, first_users, names, counts, scan, witnesses
    )
    full = _reference_table(point, seeds)
    rows = _schedule_rows(full)
    distinct = [s for s, schedule in rows.items() if s % 2 == 0 or schedule != rows[s - 1]]
    kept = np.isin(full.schedule, distinct)
    assert pairs.num_profiles == full.num_profiles
    for name in _COLUMNS:
        column = getattr(pairs, name)
        assert column.dtype == np.int32
        assert np.array_equal(column, getattr(full, name)[kept]), name


@pytest.mark.parametrize("radius", [1.2, 4.2])
def test_checked_pairs_sorts_and_tables_only_distinct_schedules(monkeypatch, radius):
    # A verified chunk makes one table, one ServedPairs, whose one sort
    # orders only the rows of its distinct schedules: a repeat is dropped
    # before the sort.  No schedule of the table is its trial's first
    # schedule row for row.  At r 4.2 greedy repeats bb in every trial.
    tables, made, sorted_keys = [], [], []
    build, argsort, served = sim_harness._pair_table, np.argsort, sim_harness.ServedPairs

    def sorting(keys, **options):
        sorted_keys.append(keys.size)
        return argsort(keys, **options)

    def building(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "argsort", sorting)
            tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(sim_harness, "_pair_table", building)
    monkeypatch.setattr(sim_harness, "ServedPairs", lambda *args: made.append(1) or served(*args))
    point, seeds = _point(radius=radius), [derive_trial_seed(5, index) for index in range(8)]
    run_point(point, seeds, verify=True)
    (table,) = tables
    assert len(made) == 1 and sorted_keys == [len(table)]
    rows = _schedule_rows(table)
    assert all(rows[s] != rows.get(s - 1) for s in rows if s % 2)
    if radius == 4.2:
        assert 2 * len(table) == len(_reference_table(point, seeds))


@pytest.mark.parametrize("radius", [1.2, 4.2])
def test_decode_skips_only_greedy_schedules_equal_to_bb(monkeypatch, radius):
    # The precoders and the decode get every trial's bb schedule, and its
    # greedy schedule only where that differs from bb's; every schedule they
    # do not get is, row for row, its trial's bb schedule.  At r 4.2 every
    # user reaches every helper, so greedy's partitions are bb's in every
    # trial; at r 1.2 most trials' differ.
    calls = {}
    _record_calls(monkeypatch, calls)
    point, seeds = _point(radius=radius), [derive_trial_seed(5, index) for index in range(20)]
    outcome = run_point(point, seeds, verify=True)
    full = _schedule_rows(_reference_table(point, seeds))
    ((channel, pairs, first_rows, labels),) = calls["matched_precoders"]
    ((heard, decoded, rows, names),) = calls["decode_schedules"]
    assert decoded is pairs and heard is channel and rows is first_rows and names is labels
    kept = _schedule_rows(pairs)
    assert kept == {s: full[s] for s in kept}
    differing = [i for i in range(len(seeds)) if full.get(2 * i) != full.get(2 * i + 1)]
    served = np.flatnonzero(outcome.num_users > 0)
    assert sorted(kept) == sorted([2 * i for i in served] + [2 * i + 1 for i in differing])
    for s in full.keys() - kept.keys():
        assert full[s] == full[s - 1]
    if radius == 4.2:
        assert not differing
    else:
        assert 0 < len(differing) < len(seeds)


def test_decode_keeps_a_greedy_schedule_that_differs_only_in_helpers():
    # A greedy schedule with bb's partitions but not bb's rows must be
    # tabled, and so decoded.  A sweep makes none, since bb takes greedy's
    # placement wherever greedy's count is Hall's; so `_checked_pairs` is
    # given one.  At r 4.2 greedy's counts are Hall's; greedy's placement
    # here is the matching's, with two users of one of the third trial's
    # slots trading helpers, and that label's scan count is given one above
    # Hall's, so that bb's placement there is the matching's own.
    point, seeds = _point(radius=4.2), [derive_trial_seed(5, index) for index in range(4)]
    adjacency, labels, num_users, first_users, channel = sim_harness._draw_chunk(point, seeds, True)
    num_labels = len(seeds) * point.profiles
    hall, witnesses = partitioner.hall_witnesses(adjacency, labels, num_labels)
    candidates = partitioner.helper_candidates(adjacency)
    partition, helper = partitioner.optimal_placement(candidates, labels, point.helpers)
    slots = {}
    for user, slot in enumerate(zip(labels.tolist(), partition.tolist())):
        if slot[0] > 2 * point.profiles and slots.setdefault(slot, user) != user:
            a, b = slots[slot], user
            helper[[a, b]] = helper[[b, a]]
            label = slot[0]
            break
    scanned = hall.copy()
    scanned[label - 1] += 1
    methods = ("bb", "greedy")
    counts = dict.fromkeys(methods, hall.reshape(len(seeds), point.profiles))
    names = [f"seed {seed}, method {method}" for seed in seeds for method in methods]
    pairs = sim_harness._checked_pairs(
        point, adjacency, labels, num_users, first_users, names, counts,
        (scanned, partition, helper), witnesses,
    )
    decode_schedules(channel, pairs, np.repeat(first_users, 2), names)
    kept = _schedule_rows(pairs)
    trial = (label - 1) // point.profiles
    bb, greedy = kept[2 * trial], kept[2 * trial + 1]
    assert trial >= 2 and greedy != bb
    # (round, profile, user) of every row: the two differ only in helpers
    assert sorted(row[:2] + row[3:] for row in greedy) == sorted(row[:2] + row[3:] for row in bb)
    assert sorted(kept) == sorted([2 * i for i in range(4)] + [2 * trial + 1])


@pytest.mark.parametrize(
    "error",
    [
        pytest.param(DecodeFailure, id="DECODE_TOLERANCE-0.0-DecodeFailure"),
        pytest.param(SingularChannelError, id="equal_gains-SingularChannelError"),
    ],
)
def test_verify_errors_are_those_of_the_full_table(monkeypatch, error):
    # With repeated schedules left out, the first error is still the one the
    # full table of every schedule raises, text for text: a decode failing
    # at a zero tolerance, and a slot that equal gains make singular.
    if error is DecodeFailure:
        monkeypatch.setattr(delivery, "DECODE_TOLERANCE", 0.0)
    else:
        _equal_gains(monkeypatch)
    calls = {}
    _record_calls(monkeypatch, calls)
    point, seeds = _point(radius=4.2), [derive_trial_seed(5, index) for index in range(4)]
    with pytest.raises(error) as failure:
        run_point(point, seeds, verify=True)
    full = _reference_table(point, seeds)
    ((channel, pairs, first_rows, labels),) = calls["decode_schedules"]
    assert len(pairs) < len(full)
    with pytest.raises(error) as direct:
        delivery.decode_schedules(channel, full, first_rows, labels)
    assert str(failure.value) == str(direct.value)


def test_a_split_slot_is_refused_where_its_table_is_built(monkeypatch):
    # The fault of test_rows_that_go_back_are_refused in a sweep: in the
    # second trial's bb schedule, the first user of its first slot moves to
    # a slot of its own after the round's last, so the round would hold that
    # profile in two slots and send fewer groups than its slots imply.
    # Every user is still served once on its own helper, but the moved row
    # goes back in profile, so the table is refused as it is made, naming
    # the row and the keys it goes back between.
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    moved = {}

    def splitting_a_slot(columns):
        first, *others = _slots(columns, 1)  # schedule i with bb alone
        same_round = [s for s in others if columns["round"][s[0]] == columns["round"][first[0]]]
        assert len(first) > 1 and same_round
        values = {name: columns[name].pop(first[0]) for name in _COLUMNS}
        at = same_round[-1][-1]  # its rows moved up one by the pop
        _insert(columns, at, **values)
        moved.update(values, at=at, last=columns["profile"][at - 1])

    _edit_table(monkeypatch, splitting_a_slot)
    with pytest.raises(ValueError) as failure:
        run_point(_point(), seeds, ("bb",), verify=True)
    g = moved["round"]
    assert moved["last"] > moved["profile"]
    assert str(failure.value) == (
        f"row {moved['at']} goes back in (schedule, round, profile), "
        f"from (1, {g}, {moved['last']}) to (1, {g}, {moved['profile']})"
    )


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
    adjacency = np.concatenate(adjacencies, axis=1)
    counts, scan, witnesses = evaluate_counts(
        adjacency, labels, len(profiles), num_profiles, ALL_METHODS
    )
    assert scan is None and witnesses.shape == (len(profiles) * num_profiles,)
    # verified, greedy is counted by its placing scan: the same counts
    verified, scan, _ = evaluate_counts(
        adjacency, labels, len(profiles), num_profiles, ALL_METHODS, verify=True
    )
    assert scan[0].tolist() == counts["greedy"].ravel().tolist()
    assert all(np.array_equal(verified[m], counts[m]) for m in ALL_METHODS)
    for t, (adjacency, profile_of) in enumerate(zip(adjacencies, profiles)):
        num_helpers, num_users = adjacency.shape
        conn = Connectivity(adjacency=adjacency, reachable_users=np.arange(num_users))
        subnets = subnetworks_from_connectivity(conn, ProfileAssignment(profile_of, num_profiles))
        greedy = [
            partition_reference.greedy_assign(subnets[p]).count for p in range(1, num_profiles + 1)
        ]
        hall = hall_witnesses(adjacency, profile_of, num_profiles)[0].tolist()
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

    for name in ("helper_candidates", "optimal_placement", "greedy_placement", "_pair_table"):
        monkeypatch.setattr(sim_harness, name, refuse)
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


def _cluster_point(helpers):
    """The acceptance point, its user disk grown with the helper cluster."""
    return PointConfig(
        helpers=helpers, profiles=10, gamma=0.1, radius=1.2,
        user_radius=2.7 * math.sqrt(helpers / 4), density=REFERENCE_DENSITY,
    )


def _count_draws(patch):
    """Make `_draw_chunk` record the trial count of each call; return the record."""
    drawn = []

    def counted(point, seeds, verify, draw=sim_harness._draw_chunk):
        drawn.append(len(seeds))
        return draw(point, seeds, verify)

    patch.setattr(sim_harness, "_draw_chunk", counted)
    return drawn


def test_helper_count_is_capped(tmp_path, capsys):
    # Only bb's Hall table of L * 2^E entries limits the helper count, and
    # the partitioner states that limit: a point describes a network, not a
    # method.  bb is refused after at most one drawn trial.
    message = "21 helpers exceed the limit of 20: the count table holds L * 2^E entries"
    with pytest.MonkeyPatch.context() as patch:
        drawn = _count_draws(patch)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_sweep(_tiny_config(helpers=21))
        ((_, point),) = _tiny_config(helpers=21, values=(1.0,)).points()
        with pytest.raises(ValueError, match=re.escape(message)):
            run_point(point, [1, 2, 3], ("greedy", "bb"))
    assert drawn == [1, 1]
    # A saturated point, every user on every helper, is refused alike,
    # verified or not: the limit comes before the closed form.
    saturated = replace(point, radius=math.inf)
    for verify in (False, True):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_point(saturated, [1, 2, 3], ("bb",), verify=verify)
    results = run_sweep(_tiny_config(helpers=21, methods=("greedy", "fc")))
    assert [r.method for r in results] == ["greedy", "fc"] * 2
    out = tmp_path / "x.csv"
    args = [
        "simulate", "--sweep", "r", "--values", "1.0", "--helpers", "21", "--profiles", "2",
        "--gamma", "0.5", "--user-radius", "1.5", "--density", "1.5", "--trials", "2",
        "--out", str(out),
    ]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert main(args + ["--method", "greedy"]) == 0


def test_large_clusters_run_without_the_hall_table():
    # Full hex rings of 37 and 61 helpers, past the table; greedy never
    # beats the fully connected bound.  Verified greedy places its users by
    # the bitset scan, which needs no helper bitmask, so 64 helpers, past
    # the 63 a bitmask holds, verify as they run unverified.
    for helpers in (37, 61):
        outcome = run_point(_cluster_point(helpers), list(range(6)), ("greedy", "fc"))
        assert outcome.num_users.min() > 0
        assert np.all(outcome.dof["greedy"] <= outcome.dof["fc"])
    for helpers, seeds in ((24, [1, 2]), (64, [1])):
        plain = run_point(_cluster_point(helpers), seeds, ("greedy",))
        assert plain.num_users.min() > 0
        verified = run_point(_cluster_point(helpers), seeds, ("greedy",), verify=True)
        _assert_same_outcome(plain, verified)


def test_hall_table_sizes_chunks_only_with_bb():
    # At 16 helpers and L = 10 a trial's Hall table alone fills a chunk's;
    # without bb only the distances bound the chunk.
    point = _cluster_point(16)
    for methods, calls in ((("greedy", "fc"), [5]), (("greedy", "bb"), [1] * 5)):
        with pytest.MonkeyPatch.context() as patch:
            drawn = _count_draws(patch)
            run_point(point, list(range(5)), methods)
        assert drawn == calls, methods


def test_verified_chunk_memory_is_bounded(monkeypatch):
    # A verified chunk keeps its trials' channel, E entries per user, and
    # its schedules, slot submatrices and inverses, at most E entries per
    # user each, until they are decoded, so the distances that size every
    # chunk bound it too: no C(L - 1, t) symbol width enters.  At a quarter of the link entries the step is 269
    # trials here, verified or not, so twice the trials must not need more
    # memory.
    monkeypatch.setattr(sim_harness, "CHUNK_LINK_ENTRIES", 2**16)
    point = _point(radius=4.2)
    run_point(point, [0], verify=True)  # lazy imports
    peaks = []
    for trials in (269, 538):
        seeds = [derive_trial_seed(2, i) for i in range(trials)]
        with pytest.MonkeyPatch.context() as patch:
            drawn = _count_draws(patch)
            tracemalloc.start()
            try:
                run_point(point, seeds, verify=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert drawn == [269] * (trials // 269)
    assert peaks[1] <= 1.1 * peaks[0], peaks


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
    # numpy's True is no subclass of bool, and a string no number: neither
    # may run as a radius of 1.0 or 1.2, a profile count of 1 or a density of 1
    for value in (np.True_, "1.2"):
        refusal = re.escape(f"must be a real number, got {value!r}")
        with pytest.raises(ValueError, match=f"transmission radius {refusal}"):
            _tiny_config(values=(value, 2.5))
        with pytest.raises(ValueError, match=f"user density {refusal}"):
            _tiny_config(density=value).points()
    for value in (np.True_, "10"):
        with pytest.raises(ValueError, match="profile counts must be integers"):
            _tiny_config(sweep="L", values=(value, 4), profiles=None, radius=1.0)
    for overrides, message in (
        (dict(radius=True), "transmission radius must be a real number"),
        (dict(user_radius=True), "user disk radius must be a real number"),
        (dict(density=True), "user density must be a real number"),
        (dict(radius="1"), "transmission radius must be a real number"),
        (dict(density=None), "user density must be a real number"),
        (dict(profiles=2.5, gamma=0.4), "profile count"),
        (dict(helpers=2.0), "helper count"),
        (dict(radius=math.nan), "transmission radius"),
        (dict(density=math.inf), "user density must be finite"),
        (dict(user_radius=math.inf), "user disk radius must be finite"),
    ):
        with pytest.raises(ValueError, match=message):
            PointConfig(**{**_POINT, **overrides})


def test_config_refuses_a_cache_fraction_that_is_no_real_number():
    # Like every other real field, refused with a ValueError that names it,
    # before a sweep draws a trial.
    for gamma in ("0.1", None, 0.1 + 0j):
        message = re.escape(f"the cache fraction must be a real number, got {gamma!r}")
        with pytest.raises(ValueError, match=message):
            PointConfig(**{**_POINT, "gamma": gamma})
        with pytest.MonkeyPatch.context() as patch:
            drawn = _count_draws(patch)
            with pytest.raises(ValueError, match=message):
                run_sweep(_tiny_config(gamma=gamma))
        assert drawn == []


def test_config_refuses_more_than_2_32_profiles():
    # Above 2^32 numpy draws profiles from 64-bit words, which the chunk
    # draw does not reproduce: refused, naming the count, before any draw.
    PointConfig(**{**_POINT, "profiles": 2**32})
    message = re.escape(f"the profile count must be at most 2^32, got {2**32 + 2}")
    with pytest.raises(ValueError, match=message):
        PointConfig(**{**_POINT, "profiles": 2**32 + 2})
    with pytest.MonkeyPatch.context() as patch:
        drawn = _count_draws(patch)
        with pytest.raises(ValueError, match=message):
            run_sweep(_tiny_config(sweep="L", values=(2, 2**32 + 2), profiles=None, radius=1.0))
    assert drawn == []


def test_config_refuses_a_cache_fraction_that_rounds_to_every_profile(tmp_path, capsys):
    # gamma * L = 9.9999999999 is within 1e-9 of L = 10, so t would be L:
    # no group is sent and every trial's delivery time is 0.  The point is
    # refused, stating gamma * L and L, before any trial is drawn.  A gamma
    # whose gamma * L rounds to 0 still runs, as t = 0.
    message = "gamma * L = 9.9999999999 rounds to L = 10: every profile would cache every subfile"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        PointConfig(**{**_POINT, "profiles": 10, "gamma": 0.99999999999})
    assert PointConfig(**{**_POINT, "profiles": 10, "gamma": 1e-11}).index_size == 0
    args = [
        "simulate", "--sweep", "r", "--values", "1.0", "--helpers", "2",
        "--profiles", "10", "--gamma", "0.99999999999", "--user-radius", "1.5",
        "--density", "1.0", "--trials", "3", "--out", str(tmp_path / "x.csv"),
    ]
    with pytest.MonkeyPatch.context() as patch:
        drawn = _count_draws(patch)
        assert main(args) == 1
    assert drawn == []
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_config_refuses_values_the_csv_writes_alike(tmp_path, capsys):
    # 1.2 and the next float up are two radii, but the CSV writes both as
    # 1.2, so their rows could not be told apart; so are two profile
    # counts past 12 digits.  Values 12 digits tell apart still run.
    message = "sweep values 1.2 and 1.2000000000000002 are both written 1.2 in the CSV"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _tiny_config(values=(1.2, 2.5, 1.2000000000000002))
    with pytest.raises(ValueError, match=r"^sweep values 10000000000000 and 10000000000001 "):
        _tiny_config(sweep="L", values=(10**13, 10**13 + 1), profiles=None, radius=1.0)
    out = tmp_path / "x.csv"
    args = [
        "simulate", "--sweep", "r", "--values", "1.2,1.2000000000000002", "--helpers", "2",
        "--profiles", "2", "--gamma", "0.5", "--user-radius", "1.5", "--density", "1.5",
        "--trials", "2", "--out", str(out),
    ]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    args[4] = "1.2,1.20000000001"
    assert main(args) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1.2", "1.2", "1.20000000001", "1.20000000001"]


def test_config_rejects_repeated_values_and_non_integer_seeds(tmp_path):
    with pytest.raises(ValueError, match="sweep values must not repeat"):
        _tiny_config(values=(1.0, 2.5, 1.0))
    with pytest.raises(ValueError, match="sweep values must not repeat"):
        _tiny_config(sweep="L", values=(2, 2.0), profiles=None, radius=1.0)
    # 1.0 would hash to other trials than 1
    for seed in (1.0, "1", True, None):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            _tiny_config(seed=seed)
    # numpy numbers draw the trials of the equal Python numbers, and write
    # the same bytes: a seed, a trial count, L values and r values
    profiles = {"sweep": "L", "profiles": None, "radius": 1.0}
    cases = [
        ({"seed": np.int64(3)}, {"seed": 3}),
        ({"trials": np.int64(3)}, {"trials": 3}),
        ({**profiles, "values": (np.int64(2), np.int64(4))}, {**profiles, "values": (2, 4)}),
        ({"values": (np.float64(1.2), np.float64(2.5))}, {"values": (1.2, 2.5)}),
        ({"values": (np.float32(1.0), np.float32(2.5))}, {"values": (1.0, 2.5)}),
    ]
    for case, (numpy_numbers, python_numbers) in enumerate(cases):
        for fmt in ("csv", "json"):
            paths = [tmp_path / f"{case}-{name}.{fmt}" for name in ("numpy", "python")]
            for overrides, path in zip((numpy_numbers, python_numbers), paths):
                results = run_sweep(_tiny_config(**overrides))
                emit_results(results, fmt, str(path), fmt == "json")
            assert paths[0].read_bytes() == paths[1].read_bytes()


def test_infinite_radius_links_every_user():
    point = PointConfig(**{**_POINT, "radius": math.inf})
    outcome = run_point(point, [derive_trial_seed(1, index) for index in range(3)], ALL_METHODS)
    assert outcome.num_users.min() > 0
    assert np.array_equal(outcome.counts["bb"], outcome.counts["fc"])


def test_a_radius_whose_square_overflows_links_every_pair(tmp_path, capsys):
    # 1e300 squared overflows float64, where Python's ** raises
    # OverflowError; such a radius links every pair, as inf does, in
    # `connect`, in a sweep's per-trial sum-DoF, and through the CLI.
    layout, users = hex_layout(3), sample_users(1.0, 2.0, np.random.default_rng(3))
    huge, infinite = connect(layout, users, 1e300), connect(layout, users, math.inf)
    assert huge.adjacency.all() and np.array_equal(huge.adjacency, infinite.adjacency)
    seeds = [derive_trial_seed(0, index) for index in range(10)]
    point = PointConfig(
        helpers=3, profiles=4, gamma=0.25, radius=math.inf, user_radius=2.0, density=1.0
    )
    expected = run_point(point, seeds, verify=True).dof
    got = run_point(replace(point, radius=1e300), seeds, verify=True).dof
    assert all(np.array_equal(got[m], expected[m], equal_nan=True) for m in expected)
    rows = []
    for value in ("1e300", "inf"):
        out = tmp_path / f"{value}.csv"
        assert main([
            "simulate", "--sweep", "r", "--values", value, "--helpers", "3", "--profiles", "4",
            "--gamma", "0.25", "--user-radius", "2", "--density", "1", "--trials", "10",
            "--out", str(out),
        ]) == 0
        rows.append([line.split(",")[2:] for line in out.read_text().splitlines()[1:]])
    assert len(rows[0]) == 2 and rows[0] == rows[1]
    assert "wrote 2 result rows" in capsys.readouterr().out


def test_the_largest_user_disk_draws_and_links_without_overflow(tmp_path, capsys):
    # Past MAX_DISK_RADIUS a squared helper-user distance could overflow
    # float64: PointConfig, mean_user_count and sample_users refuse such a
    # disk by name, and the CLI exits 1 with that error, where 1e160 used
    # to end in an OverflowError traceback.  At the largest accepted disk
    # every draw, link and count runs with no overflow warning, which the
    # suite turns into an error.
    largest = MAX_DISK_RADIUS
    past = float(np.nextafter(largest, math.inf))
    named = r"^user disk radius {} is past 3\.27339e\+150 \(2\^500\), beyond which squared "
    for radius in (past, 1e160):
        refusal = named.format(re.escape(str(radius)))
        for refused in (
            lambda: mean_user_count(1.0, radius),
            lambda: sample_users(1.0, radius, np.random.default_rng(0)),
        ):
            with pytest.raises(ValueError, match=refusal):
                refused()
    with pytest.raises(ValueError, match=named.format(re.escape(str(past)))):
        PointConfig(**{**_POINT, "user_radius": past})
    assert main([
        "simulate", "--sweep", "r", "--values", "1.2", "--helpers", "3", "--profiles", "4",
        "--gamma", "0.25", "--user-radius", "1e160", "--density", "1", "--trials", "2",
        "--out", str(tmp_path / "x.csv"),
    ]) == 1
    assert capsys.readouterr().err.startswith("error: user disk radius 1e+160 is past ")
    density = 1e-300  # about 34 users on the largest disk
    layout = hex_layout(4)
    users = sample_users(density, largest, np.random.default_rng(1))
    assert users.shape[0] > 0 and np.abs(users).max() > largest / 4
    seeds = [derive_trial_seed(2, index) for index in range(3)]
    for radius in (1.2, largest, 1e300, math.inf):
        conn = connect(layout, users, radius)
        assert conn.num_users == (0 if radius == 1.2 else users.shape[0])
        point = replace(PointConfig(**_POINT), radius=radius, user_radius=largest, density=density)
        outcome = run_point(point, seeds, verify=True)
        assert (outcome.num_users.max() > 0) == (radius > 1.2)


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


def test_json_output_is_strict_json_without_served_users(tmp_path):
    # At radius 0 no user is served, so the point has no sum-DoF statistics:
    # JSON writes null, where CSV writes nan.
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    results = run_sweep(_tiny_config(values=(0.0, 2.5)))
    emit_results(results, "json", str(tmp_path / "r.json"), per_trial=True)
    rows = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse)
    for row in rows[:2]:
        assert row["mean_sum_dof"] is None and row["std_sum_dof"] is None
        assert row["per_trial_sum_dof"] == [] and row["per_trial_K"] == [0] * 4
    for row, result in zip(rows[2:], results[2:]):
        assert row["mean_sum_dof"] == result.mean_dof > 0
    emit_results(results, "csv", str(tmp_path / "r.csv"))
    assert (tmp_path / "r.csv").read_text().splitlines()[1].split(",")[3:5] == ["nan", "nan"]
    # An infinite radius is not JSON either: it is written as CSV's text.
    results = run_sweep(_tiny_config(values=(0.0, math.inf)))
    emit_results(results, "json", str(tmp_path / "r.json"))
    rows = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse)
    assert [row["sweep_value"] for row in rows] == [0.0, 0.0, "inf", "inf"]
    assert rows[2]["mean_sum_dof"] == results[2].mean_dof > 0
    emit_results(results, "csv", str(tmp_path / "r.csv"))
    assert (tmp_path / "r.csv").read_text().splitlines()[3].split(",")[:2] == ["r", "inf"]


def test_a_point_whose_mean_user_count_underflows_runs_with_no_user():
    # density * pi * radius^2 is 0.0 in float64 here, though both are
    # positive: the point runs like one of a tiny positive mean, every
    # trial with no user and a NaN sum-DoF.
    seeds = [derive_trial_seed(6, index) for index in range(3)]
    for scale in (1e-200, 1e-100):
        point = PointConfig(
            helpers=4, profiles=10, gamma=0.1, radius=1.2, user_radius=scale, density=scale
        )
        assert (point.mean_users == 0.0) == (scale == 1e-200)
        for verify in (False, True):
            outcome = run_point(point, seeds, verify=verify)
            assert outcome.num_users.tolist() == [0, 0, 0]
            assert all(np.isnan(dof).all() for dof in outcome.dof.values())


def test_emit_rejects_empty_results(tmp_path):
    with pytest.raises(ValueError):
        emit_results([], "csv", str(tmp_path / "x.csv"))


def test_emit_rejects_unknown_formats(tmp_path):
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        emit_results(run_sweep(_tiny_config()), "xml", str(tmp_path / "x.xml"))
    assert not (tmp_path / "x.xml").exists()


def test_run_point_needs_a_trial():
    for none in ([], np.array([], dtype=np.uint64)):
        with pytest.raises(ValueError, match="needs at least one trial"):
            run_point(_point(), none)
    # An array of seeds runs the trials of the list of them.
    seeds = [derive_trial_seed(4, index) for index in range(3)]
    for verify in (False, True):
        given = run_point(_point(), np.array(seeds, dtype=np.uint64), verify=verify)
        _assert_same_outcome(given, run_point(_point(), seeds, verify=verify))


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
    # a profile count that is not whole is the config's to refuse
    assert main(args[:4] + ["2.5"] + args[5:]) == 1
    assert "error: profile counts must be integers, got (2.5,)" in capsys.readouterr().err


def test_cli_values_are_numbers_and_whole_profile_counts_are_ints(tmp_path, capsys):
    # 2.0 and 4e0 are the profile counts 2 and 4: the same bytes as "2,4",
    # in the CSV and in the per-trial JSON, whose sweep_value stays 2.
    def simulate(values, fmt, sweep="L"):
        out = tmp_path / f"sweep.{fmt}"
        fixed = ["--radius", "1.0"] if sweep == "L" else ["--profiles", "2"]
        code = main([
            "simulate", "--sweep", sweep, "--values", values, "--helpers", "2", "--gamma", "0.5",
            *fixed, "--user-radius", "1.5", "--density-per-profile", "0.75", "--trials", "4",
            "--format", fmt, *(["--per-trial"] if fmt == "json" else []), "--out", str(out),
        ])
        return code, out.read_bytes() if code == 0 else capsys.readouterr().err

    for fmt in ("csv", "json"):
        assert simulate("2.0, 4e0", fmt) == simulate("2,4", fmt)
    assert b'"sweep_value": 2,' in simulate("2.0,4", "json")[1]
    # a repeat is refused as a repeat, and a token that is no number by name
    assert simulate("2,2.0", "csv") == (1, "error: sweep values must not repeat, got (2, 2)\n")
    assert simulate("2,x", "csv") == (1, "error: --values must be numbers, got 'x'\n")
    assert simulate("1.0, 2.5z", "csv", sweep="r") == (
        1, "error: --values must be numbers, got '2.5z'\n"
    )


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


def test_cli_verifies_a_40_profile_point_as_it_runs_unverified(tmp_path, monkeypatch):
    # At L = 40, t = 4 each user needs C(39, 4) = 82,251 subfiles; the
    # decode checks each slot's identity H Q = I, so a verified trial's
    # work does not grow with them.  Four verified trials of the profile
    # sweep's L = 40 point run through the command line in about a second,
    # and write the unverified run's bytes.
    per_profile = 4 / (1.2**2 * math.pi)  # the profile sweep's density
    args = [
        sys.executable, "-m", "helpercache", "simulate", "--sweep", "L", "--values", "40",
        "--helpers", "4", "--gamma", "0.1", "--radius", "1.2", "--user-radius", "2.7",
        "--density-per-profile", repr(per_profile), "--trials", "4", "--seed", "3",
    ]
    source = str(Path(sim_harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    outputs = []
    for verify in ([], ["--verify-decode"]):
        out = tmp_path / f"sweep{len(verify)}.csv"
        subprocess.run(
            args + verify + ["--out", str(out)],
            env={**os.environ, "PYTHONPATH": path},
            check=True,
            capture_output=True,
            timeout=60,
        )
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]
    # The same trials decode every slot of both methods' schedules.
    calls = {}
    _record_calls(monkeypatch, calls)
    point = _point(radius=1.2, profiles=40, density=per_profile * 40)
    outcome = run_point(point, [derive_trial_seed(3, i) for i in range(4)], verify=True)
    ((channel, pairs, first_rows, _),) = calls["decode_schedules"]
    assert pairs.num_profiles == 40 and len(pairs) >= outcome.num_users.sum() > 1000
    assert decode_schedules(channel, pairs, first_rows).max() <= delivery.DECODE_TOLERANCE


def test_config_refuses_a_mean_user_count_numpy_cannot_draw(tmp_path, capsys):
    # Density 1e30 is finite and positive, but its mean user count is past
    # numpy's Poisson limit: the point is refused by name when it is made,
    # so no sweep reaches numpy's "lam value too large".
    expected = r"^user density 1e\+30 on a disk of radius 2\.7 expects 2\.29022e\+31 users, past "
    with pytest.raises(ValueError, match=expected):
        replace(_point(), density=1e30)
    args = [
        "simulate", "--sweep", "r", "--values", "1.0", "--helpers", "2", "--profiles", "2",
        "--gamma", "0.5", "--user-radius", "1.5", "--density", "1e30", "--trials", "2",
        "--out", str(tmp_path / "x.csv"),
    ]
    assert main(args) == 1
    assert "error: user density 1e+30 on a disk of radius 1.5 expects" in capsys.readouterr().err


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

    # no user: the count line alone, with no blank row after it
    instance.write_text("helpers: 2\n")
    for method in ("bb", "greedy"):
        assert main(["partition", "--instance", str(instance), "--method", method]) == 0
        assert capsys.readouterr().out == "partitions: 0\n"
    # no user and no header: nothing fixes the helper count
    instance.write_text("# empty\n\n")
    assert main(["partition", "--instance", str(instance)]) == 1
    assert capsys.readouterr().err == "error: the instance lists no users and no helpers: header\n"


def _solve_instance(tmp_path, capsys, text):
    """The count and rows that `partition --method bb` prints for an instance text."""
    instance = tmp_path / "instance.txt"
    instance.write_text(text)
    assert main(["partition", "--instance", str(instance), "--method", "bb"]) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    return int(head.removeprefix("partitions: ")), rows


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
