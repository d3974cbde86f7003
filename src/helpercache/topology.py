"""Geometric network model: helper grid, Poisson user field, radius-limited links."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# One counterclockwise walk around a hexagonal ring, in axial coordinates.
_RING_STEPS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


@dataclass(frozen=True)
class HelperLayout:
    """Helper positions at the centers of edge-sharing, unit-circumradius hexagons."""

    positions: np.ndarray  # (E, 2)

    @property
    def count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class UserField:
    """Users dropped by a homogeneous Poisson process on a disk around the origin."""

    positions: np.ndarray  # (raw_count, 2)
    disk_radius: float
    density: float

    @property
    def raw_count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class Connectivity:
    """Helper-to-user adjacency under the distance-threshold rule.

    Users with no helper in range can never be served, so they are dropped:
    `adjacency` has one column per kept user and `reachable_users` maps the
    columns back to indices of the originating user field.
    """

    adjacency: np.ndarray  # (E, K) bool
    radius: float
    reachable_users: np.ndarray  # (K,) indices into the originating UserField

    @property
    def num_helpers(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_users(self) -> int:
        return self.adjacency.shape[1]


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex channel gains with zeros exactly on the out-of-range links."""

    coefficients: np.ndarray  # (K, E) complex


@lru_cache(maxsize=32)
def hex_layout(count: int) -> HelperLayout:
    """Return `count` hexagon centers in spiral order, centroid moved to the origin.

    Centers lie on the triangular lattice with spacing sqrt(3), so adjacent
    hexagons of circumradius 1 share an edge.  The spiral picks the most
    compact cluster first (origin, then ring by ring) and is deterministic
    in `count`, so each count is built once and its positions are read-only.
    """
    if count < 1:
        raise ValueError(f"helper count must be at least 1, got {count}")
    cells = [(0, 0)]
    ring = 1
    while len(cells) < count:
        q, r = -ring, ring
        for dq, dr in _RING_STEPS:
            for _ in range(ring):
                cells.append((q, r))
                q, r = q + dq, r + dr
        ring += 1
    cells = cells[:count]
    pts = np.array([(SQRT3 * (q + r / 2.0), 1.5 * r) for q, r in cells], dtype=float)
    positions = pts - pts.mean(axis=0)
    positions.flags.writeable = False
    return HelperLayout(positions=positions)


def sample_users(density: float, disk_radius: float, rng: np.random.Generator) -> UserField:
    """Sample a Poisson(density * disk area) user count, positions uniform on the disk."""
    if density <= 0:
        raise ValueError(f"user density must be positive, got {density}")
    if disk_radius <= 0:
        raise ValueError(f"user disk radius must be positive, got {disk_radius}")
    count = int(rng.poisson(density * math.pi * disk_radius**2))
    radii = disk_radius * np.sqrt(rng.uniform(size=count))  # area-uniform
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    positions = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    return UserField(positions=positions, disk_radius=disk_radius, density=density)


def connect(layout: HelperLayout, users: UserField, radius: float) -> Connectivity:
    """Link every helper-user pair within `radius`; prune users nobody reaches."""
    if radius < 0:
        raise ValueError(f"transmission radius must be nonnegative, got {radius}")
    # Squared helper-user distances, (E, N), from the two coordinate gaps.
    dx = layout.positions[:, 0:1] - users.positions[:, 0]
    dy = layout.positions[:, 1:2] - users.positions[:, 1]
    within = dx * dx + dy * dy <= radius**2
    kept = np.flatnonzero(within.any(axis=0))
    return Connectivity(adjacency=within[:, kept], radius=radius, reachable_users=kept)


def draw_channels(conn: Connectivity, rng: np.random.Generator) -> ChannelMatrix:
    """Draw unit-variance circularly symmetric complex gains on the in-range links.

    Only the zero pattern matters for the degrees-of-freedom metric; a
    continuous law keeps every matched submatrix invertible almost surely.
    """
    support = conn.adjacency.T
    gains = (rng.standard_normal(support.shape) + 1j * rng.standard_normal(support.shape)) / SQRT2
    return ChannelMatrix(coefficients=np.where(support, gains, 0))

