"""Round scheduling, zero-forcing multicast signals, decode checks, and timing.

Each round serves the g-th partition of every profile that still has one.
Within a round, one signal is transmitted per multicast group (a subset of
profiles of size `index_size + 1` with at least one nonempty partition): the
sum of the per-profile precoded blocks, zero-padded onto the helpers the
partition does not use.  A served user cancels the other profiles' blocks
from its cache and is left with exactly its own subfile symbol.  What is
left depends only on the user's own slot: the users of one (round,
profile) slot carry the same index in every group, so a user's residuals
are its row of |(H Q - I) S| on the slot, H the slot users' channel rows,
Q their precoder columns and S their symbols.  Each is at most
|e_u|_1 max |S|, e_u the user's row of H Q - I, so the verifier checks the
slot identity H Q = I itself, with no symbols: every slot of many
schedules in one call, a stacked product per slot size, and a verdict per
served user, |e_u|_1 within `DECODE_TOLERANCE`.

A schedule is one table of served (helper, user) pairs (`ServedPairs`), a
row per pair in transmission order, which the precoders, the decode and the
coverage audit read as it is.  A chunk of verified trials builds its table
directly from its placements, and `build_schedule` builds one schedule's
table from per-profile partitions.  A table holds only its pairs; the rest
follows from them.  Its rows never go back in (schedule, round, profile),
or the table is refused where it is made, so each round holds each of its
profiles in one slot.  On that rule rest the closed forms: a round sends
the groups of its distinct profiles, a schedule's transmission count is
the sweep's formula over its slots per profile, and its coverage audit
passes exactly when no user holds two (round, profile) slots.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .partitioner import PartitionSet

DECODE_TOLERANCE = 1e-9
_EXACT_FLOAT = 2**53  # integers below it convert to float64 exactly


class SingularChannelError(RuntimeError):
    """A matched channel submatrix that LAPACK refuses as exactly singular (probability-zero event)."""


class DecodeFailure(RuntimeError):
    """A served user could not recover its subfile within tolerance."""


@dataclass(frozen=True, eq=False)
class ServedPairs:
    """Every served (helper, user) pair of some schedules, one row each, in transmission order.

    Rows run schedule by schedule, round by round, and within a round slot
    by slot, profiles ascending: a (round, profile) slot is one partition,
    its pairs in partition order, so no round holds a profile twice.
    `user` is the user's index in its own trial, its row of the channel
    past the trial's first row where trials are stacked.  The columns are
    int32 arrays of one length.  A table whose (schedule, round, profile)
    goes back from one row to the next raises ValueError naming the row.
    """

    num_profiles: int
    schedule: np.ndarray
    round: np.ndarray
    profile: np.ndarray
    helper: np.ndarray
    user: np.ndarray
    num_rounds: int = field(init=False)  # the rounds of all the table's schedules
    slot_starts: np.ndarray = field(init=False)  # first row of each slot

    def __post_init__(self) -> None:
        keys = self.schedule, self.round, self.profile
        moved = [column[1:] != column[:-1] for column in keys]
        back = [column[1:] < column[:-1] for column in keys]
        # from one row to the next, the first of the three keys that moves must grow
        fell = np.where(moved[0], back[0], np.where(moved[1], back[1], back[2]))
        if fell.any():
            i = int(np.argmax(fell)) + 1
            before, after = (tuple(column[j].item() for column in keys) for j in (i - 1, i))
            raise ValueError(
                f"row {i} goes back in (schedule, round, profile), from {before} to {after}"
            )
        new_round = moved[0] | moved[1]
        new_slot = np.ones(len(self), dtype=bool)
        new_slot[1:] = new_round | moved[2]
        object.__setattr__(self, "num_rounds", int(new_round.sum()) + (len(self) > 0))
        object.__setattr__(self, "slot_starts", np.flatnonzero(new_slot))

    def __len__(self) -> int:
        return self.user.size


def build_schedule(partition_sets: Mapping[int, PartitionSet], num_profiles: int) -> ServedPairs:
    """The table of one schedule: each profile's g-th partition in round g.

    Rows run round by round, profiles ascending within a round, and each
    partition's pairs in partition order.  Raises ValueError for a profile
    outside 1..L or a partition that serves no user.
    """
    if any(p < 1 or p > num_profiles for p in partition_sets):
        raise ValueError("partition sets keyed by unknown profile")
    ordered = [(p, partition_sets[p].partitions) for p in sorted(partition_sets)]
    total_rounds = max((len(parts) for _, parts in ordered), default=0)
    slots = [
        (g, p, parts[g]) for g in range(total_rounds) for p, parts in ordered if len(parts) > g
    ]
    rounds, profiles, parts = zip(*slots) if slots else ((), (), ())
    sizes = list(map(len, parts))
    if 0 in sizes:
        i = sizes.index(0)
        raise ValueError(f"partition {rounds[i]} of profile {profiles[i]} serves no user")
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(parts)), np.int32, 2 * sum(sizes))
    round_, profile = np.repeat(np.array([rounds, profiles], dtype=np.int32), sizes, axis=1)
    helper, user = pairs.reshape(-1, 2).T
    return ServedPairs(num_profiles, np.zeros_like(user), round_, profile, helper, user)


def count_transmissions(schedule: ServedPairs, index_size: int) -> int:
    """Closed-form count of the multicast groups with a nonempty effective set.

    The sweep's own formula, `transmissions_from_counts`, applied to the
    one-schedule table's slots per profile: its per-profile partition counts.
    """
    slots = np.bincount(schedule.profile[schedule.slot_starts], minlength=schedule.num_profiles + 1)
    return int(transmissions_from_counts(slots[1:], index_size))


def transmissions_from_counts(counts: np.ndarray, index_size: int) -> np.ndarray:
    """Transmissions of every row of a (..., L) array of per-profile partition counts.

    Summing C(L, t + 1) - C(v(g), t + 1) over the rounds g, with v(g) the
    profiles whose count is at most g (idle in round g), is, by the
    hockey-stick identity, sum_j c_(j) C(L - j, t) with c_(1) >= c_(2) >= ...
    the row's counts in descending order: one sort and one product for a
    whole array of trials.  The totals are int64, or exact Python integers
    once a total could reach 2^53.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_profiles = counts.shape[-1]
    weights = [comb(num_profiles - j, index_size) for j in range(1, num_profiles + 1)]
    largest = int(counts.max(initial=0))
    dtype = np.int64 if largest * comb(num_profiles, index_size + 1) < _EXACT_FLOAT else object
    descending = -np.sort(-counts, axis=-1)
    return descending.astype(dtype) @ np.array(weights, dtype=dtype)


def delivery_time(
    transmissions: int | np.ndarray, num_profiles: int, index_size: int
) -> float | np.ndarray:
    """Slots needed: each transmission moves one subfile (a 1/C(L,t) file share) per user.

    Works on one count or on a vector of them, rounding each as Python's
    int / int does.
    """
    if np.any(np.less(transmissions, 0)):
        raise ValueError(f"transmission count must be nonnegative, got {transmissions}")
    per_file = comb(num_profiles, index_size)
    if isinstance(transmissions, np.ndarray) and (
        transmissions.dtype == object
        or per_file >= _EXACT_FLOAT
        or np.any(transmissions >= _EXACT_FLOAT)
    ):
        # float64 division rounds like int / int only for operands below 2^53
        return np.array([count / per_file for count in transmissions.tolist()], dtype=float)
    return transmissions / per_file


def sum_dof(
    num_users: int | np.ndarray, gamma: float, time: float | np.ndarray
) -> float | np.ndarray:
    """Users served per slot at full rate: K (1 - gamma) / T, elementwise on arrays."""
    if np.any(np.less_equal(time, 0)):
        raise ValueError(f"delivery time must be positive to define sum-DoF, got {time}")
    return num_users * (1.0 - gamma) / time


def matched_precoders(
    channel: np.ndarray,
    pairs: ServedPairs,
    first_rows: np.ndarray | None = None,
    labels: Sequence[str] | None = None,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Zero-forcing precoders of every slot of a table, the slots of one size stacked together.

    The slots are grouped by size once, sizes in the order they first
    occur.  For the m slots of size s the result holds their table rows
    (m, s), their matched channel submatrices A (m, s, s), row i its i-th
    user's gains on the slot's helpers, and one `inv` of them, the
    inverses (m, s, s): row j is what the slot's j-th helper sends, and no
    other helper sends the slot anything.  Random continuous gains make
    each A invertible almost surely.  No conditioning is judged here:
    whether a computed inverse serves its slot is the decode's one verdict,
    A A^-1 = I within `DECODE_TOLERANCE`.  Only a submatrix that LAPACK
    refuses as exactly singular has no inverse to send; it raises
    SingularChannelError, naming the first slot of its size that `inv`
    refuses on its own.  A structurally zero matched link raises
    ValueError.  `first_rows` and `labels` are those of `decode_schedules`;
    an error names the slot's users and helpers, and ends with its
    schedule's label when given.
    """
    starts = pairs.slot_starts
    sizes = np.diff(starts, append=len(pairs))
    stacks = []
    _, first_of_size = np.unique(sizes, return_index=True)
    for size in sizes[np.sort(first_of_size)].tolist():
        rows = starts[sizes == size, None] + np.arange(size)
        helpers, users = pairs.helper[rows], pairs.user[rows]
        owners = pairs.schedule[rows[:, 0]]

        def failure(i: int, text: str) -> str:
            """`text` with slot i's users and helpers for {}, ending with its schedule's label."""
            slot_users, slot_helpers = tuple(users[i].tolist()), tuple(helpers[i].tolist())
            label = "" if labels is None else f" ({labels[owners[i]]})"
            return text.format(f"users {slot_users} on helpers {slot_helpers}") + label

        served = users if first_rows is None else users + first_rows[owners, None]
        subs = channel[served[:, :, None], helpers[:, None, :]]
        zero = (np.diagonal(subs, axis1=1, axis2=2) == 0).any(axis=1)
        if zero.any():
            text = "matched helper-user link is structurally zero for {}"
            raise ValueError(failure(int(np.argmax(zero)), text))
        try:
            inverses = np.linalg.inv(subs)
        except np.linalg.LinAlgError as error:
            for i, sub in enumerate(subs):
                try:
                    np.linalg.inv(sub)
                except np.linalg.LinAlgError:
                    text = "channel submatrix for {} is ill-conditioned"
                    raise SingularChannelError(failure(i, text)) from error
            raise
        stacks.append((rows, subs, inverses))
    return stacks


def decode_schedules(
    channel: np.ndarray,
    pairs: ServedPairs,
    first_rows: np.ndarray | None = None,
    labels: Sequence[str] | None = None,
) -> np.ndarray:
    """Check every slot's identity H Q = I over a table's schedules; return each row's error.

    Schedule s of the table serves the users of one trial: user u's gains
    are row `first_rows[s] + u` of `channel`, or row u without
    `first_rows`.  The table's precoders come first, from one
    `matched_precoders` call, so an exactly singular or structurally zero
    slot fails before any product is formed; that call also groups the
    slots by size, once for both.  A table holds each profile of a round in
    one slot (`ServedPairs`), so each round sends the
    C(L, t + 1) - C(L - a, t + 1) groups of its a active profiles by
    construction.

    In the signal of group G, profile p's users carry the symbol of index G
    minus p, precoded by their columns of the round's Q.  User u hears
    h_u x_G and cancels the terms of the other profiles' users, whose
    symbols it caches.  What is left is the sum over the users i of u's own
    slot, which all carry the index G minus p: so u's residuals are row u
    of |(H Q - I) S| on its slot, H the slot users' channel rows, Q their
    precoder columns and S their symbols.  Each residual is at most
    |e_u|_1 max |S|, e_u that row of H Q - I, so for symbols of modulus at
    most 1 the row's 1-norm bounds every residual, and no symbol need be
    drawn.  Q is zero off the slot's helpers, so H Q is the whole of
    A A^-1, A the slot's matched submatrix: the m slots of one size make
    one stacked (m, s, s) product of what `matched_precoders` gives for
    them, each slot at its own shape, so the errors do not depend on which
    schedules share the call.

    This is the one criterion of a decodable slot: every served user's
    |e_u|_1 within `DECODE_TOLERANCE`, however ill-conditioned its slot.
    A slot whose computed inverse meets H Q = I passes, and one whose
    rounding leaves a row beyond the tolerance fails, with no condition
    number consulted.

    Returns the (rows,) errors |e_u|_1, row i for the table's i-th served
    pair.  Raises DecodeFailure for the first row in transmission order
    whose error is not within `DECODE_TOLERANCE`, naming its user, round,
    profile and error; every error, the precoders' too, ends with
    `(labels[s])` when given.
    """
    stacks = matched_precoders(channel, pairs, first_rows, labels)
    errors = np.empty(len(pairs))
    for at, subs, inverses in stacks:
        identity = subs @ inverses
        diagonal = np.arange(identity.shape[-1])
        identity[:, diagonal, diagonal] -= 1.0
        errors[at] = np.abs(identity).sum(axis=2)
    failed = ~(errors <= DECODE_TOLERANCE)
    if failed.any():
        i = int(np.argmax(failed))
        label = "" if labels is None else f" ({labels[pairs.schedule[i]]})"
        raise DecodeFailure(
            f"user {pairs.user[i]} failed to decode in round {pairs.round[i]}, "
            f"profile {pairs.profile[i]}: worst error {errors[i]:.3e}{label}"
        )
    return errors


def verify_schedule(
    channel: np.ndarray,
    schedule: ServedPairs,
    demands: Mapping[int, int],
    symbols: np.ndarray,
    index_size: int,
) -> float:
    """Check every slot identity of a one-schedule table; return the worst error |e_u|_1.

    One `decode_schedules` call, user u on row u of `channel`.  The worst
    error bounds every residual of a decode of symbols of modulus at most
    1, so the verdict needs no symbols: `symbols`, like `demands`, is
    unused, and the verdict does not depend on `index_size`.
    """
    return float(decode_schedules(channel, schedule).max(initial=0.0))


def audit_pairs(
    pairs: ServedPairs, num_users: np.ndarray | None = None
) -> dict[int, list[str]]:
    """What each schedule of a table gets wrong, by schedule; one without problems is left out.

    A user served in two or more slots is named with its (round, profile)
    slots in transmission order, users ascending.  Given `num_users`, the
    user count K of each schedule, the audit also names the users of
    0..K-1 that a schedule does not serve, the users it serves from outside
    them, and every helper it matches to two users of one slot.  A user is
    counted at its schedule's first key plus its own index, so the work is
    O(rows + sum K), not schedules times users.
    """
    schedule, user = pairs.schedule, pairs.user
    if num_users is None:
        sizes = np.zeros(schedule.max(initial=-1) + 1, dtype=np.int64)
        np.maximum.at(sizes, schedule, user + 1)
    else:
        sizes = np.asarray(num_users, dtype=np.int64)
    firsts = np.concatenate(([0], np.cumsum(sizes)))
    inside = (user >= 0) & (user < sizes[schedule])
    everyone_inside = inside.all()
    key = firsts[schedule] + user
    served = np.bincount(key if everyone_inside else key[inside], minlength=firsts[-1])
    problems: dict[int, list[str]] = defaultdict(list)
    if served.max(initial=0) > 1:
        twice = np.flatnonzero(inside)
        twice = twice[served[key[twice]] > 1]
        twice = twice[np.argsort(key[twice], kind="stable")]  # by schedule and user, then row
        held: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        columns = (schedule, user, pairs.round, pairs.profile)
        for s, u, g, p in zip(*(column[twice].tolist() for column in columns)):
            held[s, u].append((g, p))
        for (s, u), slots in held.items():
            problems[s].append(
                f"user {u}: served in {len(slots)} slots (round, profile): "
                + ", ".join(map(str, slots))
            )
    if num_users is None:
        return problems
    if served.min(initial=1) == 0:
        missing = np.flatnonzero(served == 0)
        owners = np.searchsorted(firsts, missing, side="right") - 1
        for s in np.unique(owners).tolist():
            unserved = (missing[owners == s] - firsts[s]).tolist()
            problems[s].append(f"users {unserved} are not served")
    if not everyone_inside:
        for s in np.unique(schedule[~inside]).tolist():
            strangers = np.unique(user[~inside & (schedule == s)]).tolist()
            problems[s].append(f"users {strangers} are not in the trial")
    starts = pairs.slot_starts
    slot = np.repeat(np.arange(starts.size), np.diff(starts, append=len(pairs)))
    slot_helper = slot * (pairs.helper.max(initial=0) + 1) + pairs.helper
    _, rows, repeats = np.unique(slot_helper, return_index=True, return_counts=True)
    for r, count in zip(rows[repeats > 1].tolist(), repeats[repeats > 1].tolist()):
        problems[int(schedule[r])].append(
            f"helper {pairs.helper[r]}: matched to {count} users of slot (round, profile) "
            f"({pairs.round[r]}, {pairs.profile[r]})"
        )
    return problems


def coverage_check(schedule: ServedPairs, index_size: int) -> list[str]:
    """Audit that every scheduled user receives each needed index exactly once.

    A user holding one (round, profile) slot receives every group of that
    round containing its profile p, since such a group always has an active
    member, and S -> S minus p maps those groups one to one onto the size-t
    subsets of the other profiles: each needed index once, nothing else.  So
    the audit passes exactly when no user holds two slots; otherwise it names
    every such user with its slots (`audit_pairs`).  `index_size` does not
    change the verdict.
    """
    return audit_pairs(schedule).get(0, [])
