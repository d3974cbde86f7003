"""Shared-cache placement: cache configuration, profile assignment and subfile symbols.

Every library file is split into one subfile per size-`index_size` subset of
the profile labels 1..L; a user with profile `p` caches exactly the subfiles
whose index contains `p`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

_SQRT2 = sqrt(2.0)


class ConfigError(ValueError):
    """Cache configuration the delivery scheme cannot serve."""


@dataclass(frozen=True)
class CacheConfig:
    """Placement parameters: profile count L and cached fraction gamma."""

    num_profiles: int
    gamma: float

    @property
    def index_size(self) -> int:
        """Profiles tagging each subfile: gamma * L, which must be an integer."""
        exact = self.gamma * self.num_profiles
        rounded = round(exact)
        if abs(exact - rounded) > 1e-9:
            raise ConfigError(
                f"gamma * L = {exact!r} is not an integer; memory sharing between "
                "the neighbouring integer points would be required, which is unsupported"
            )
        return int(rounded)


def ensure_valid(config: CacheConfig) -> None:
    """Raise ConfigError naming every violated placement condition."""
    if config.num_profiles < 1:
        raise ConfigError(f"profile count must be at least 1, got {config.num_profiles}")
    problems: list[str] = []
    if not 0 < config.gamma < 1:
        problems.append(f"cache fraction must lie in (0, 1), got {config.gamma}")
    try:
        if config.index_size == config.num_profiles:
            problems.append(
                f"gamma * L = {config.gamma * config.num_profiles!r} rounds to "
                f"L = {config.num_profiles}: every profile would cache every subfile"
            )
    except ConfigError as exc:
        problems.append(str(exc))
    if problems:
        raise ConfigError("; ".join(problems))


@dataclass(frozen=True)
class ProfileAssignment:
    """User-to-profile map; profiles are labeled 1..L."""

    profile_of: np.ndarray  # (K,), values in 1..L
    num_profiles: int

    @property
    def num_users(self) -> int:
        return self.profile_of.shape[0]


def assign_profiles(num_users: int, num_profiles: int, rng: np.random.Generator) -> ProfileAssignment:
    """Assign each user an independent uniform profile from 1..num_profiles.

    The sweep draws the same profiles from the same generators, a chunk of
    trials at a time, in one pass over their raw words (`sim_harness`); a
    trial with a rejected half is drawn again here.
    """
    if num_users < 0:
        raise ValueError(f"user count must be nonnegative, got {num_users}")
    if num_profiles < 1:
        raise ValueError(f"profile count must be at least 1, got {num_profiles}")
    draws = rng.integers(1, num_profiles + 1, size=num_users)
    return ProfileAssignment(profile_of=draws, num_profiles=num_profiles)


def draw_subfile_symbols(
    assignment: ProfileAssignment,
    demands: dict[int, int],
    index_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One unit-variance complex symbol per (user, needed index): a (K, C(L - 1, t)) array.

    Row k holds the subfiles of user k's requested file that its profile
    does not cache, the size-t subsets of the other profiles in
    lexicographic order.  Each subfile is modeled as a single scalar
    symbol; a row stands for one file only if no two users request the
    same file, so `demands` must be distinct.  The symbols are drawn user
    by user, one (re, im) pair per needed index, each part divided by
    sqrt(2) on its own, as complex(re, im) / sqrt(2) does.  The sweep draws
    none: its decode check needs no symbols (`delivery.decode_schedules`).
    """
    num_users = assignment.num_users
    if len({demands[user] for user in range(num_users)}) < num_users:
        raise ValueError("demands must map the users to distinct files")
    needed = comb(assignment.num_profiles - 1, index_size)
    parts = rng.standard_normal((num_users * needed, 2)) / _SQRT2
    return parts.view(complex).reshape(num_users, needed)
