"""Shared-cache placement: profile assignment and subfile index bookkeeping.

Every library file is split into one subfile per size-`index_size` subset of
the profile labels 1..L; a user with profile `p` caches exactly the subfiles
whose index contains `p`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import sqrt

import numpy as np

SubfileIndex = tuple[int, ...]

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
        config.index_size
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

    def counts(self) -> np.ndarray:
        """Per-profile user counts, index 0 holding profile 1."""
        return np.bincount(self.profile_of, minlength=self.num_profiles + 1)[1:]


def assign_profiles(num_users: int, num_profiles: int, rng: np.random.Generator) -> ProfileAssignment:
    """Assign each user an independent uniform profile from 1..num_profiles."""
    if num_users < 0:
        raise ValueError(f"user count must be nonnegative, got {num_users}")
    if num_profiles < 1:
        raise ValueError(f"profile count must be at least 1, got {num_profiles}")
    draws = rng.integers(1, num_profiles + 1, size=num_users)
    return ProfileAssignment(profile_of=draws, num_profiles=num_profiles)


def subfile_indices(num_profiles: int, index_size: int) -> list[SubfileIndex]:
    """All size-`index_size` subsets of 1..L, lexicographically ordered."""
    if not 0 <= index_size <= num_profiles:
        raise ValueError(f"index size must lie in 0..{num_profiles}, got {index_size}")
    return list(combinations(range(1, num_profiles + 1), index_size))


def cached_by(profile: int, index: SubfileIndex) -> bool:
    """A profile caches exactly the subfiles whose index contains it."""
    return profile in index


def needed_subfiles(profile: int, num_profiles: int, index_size: int) -> list[SubfileIndex]:
    """Subfile indices a user of `profile` does not cache and must receive."""
    others = [p for p in range(1, num_profiles + 1) if p != profile]
    return list(combinations(others, index_size))


def draw_subfile_symbols(
    assignment: ProfileAssignment,
    demands: dict[int, int],
    index_size: int,
    rng: np.random.Generator,
) -> dict[tuple[int, SubfileIndex], complex]:
    """One unit-variance complex symbol per (requested file, needed index) pair.

    Each subfile is modeled as a single scalar symbol: decodability in the
    noiseless high-power regime is a per-symbol linear-algebra property, so
    one symbol per subfile is enough to exercise it.
    """
    needed = {
        profile: needed_subfiles(profile, assignment.num_profiles, index_size)
        for profile in range(1, assignment.num_profiles + 1)
    }
    keys = [
        (demands[user], index)
        for user, profile in enumerate(assignment.profile_of.tolist())
        for index in needed[profile]
    ]
    # one (re, im) pair per key, in key order: the stream of a per-pair loop;
    # each part is divided by sqrt(2) on its own, as complex(re, im) / sqrt(2) does
    parts = rng.standard_normal((len(keys), 2)) / _SQRT2
    return dict(zip(keys, parts.view(complex).ravel().tolist()))
