"""Geometric network model: helper grid, Poisson user field, radius-limited links."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# The largest Poisson mean numpy draws from: INT64_MAX - 10 sqrt(INT64_MAX).
MAX_MEAN_USERS = float(2**63 - 1) - 10.0 * math.sqrt(2**63 - 1)

# The largest user disk radius R.  A helper-user gap is at most R plus the
# farthest helper's distance from the origin, so every squared distance and
# the disk's area, about 2^1000 at most, stay far below float64's 2^1024.
MAX_DISK_RADIUS = 2.0**500

# `disk_links` screens a chunk's links in float32 when the disk radius plus
# the farthest helper's distance, the scale s, lies in this range, the
# transmission radius is at most 2 s and every uniform is in [0, 1].  An
# entry whose screened squared distance lies within SCREEN_MARGIN * s^2 of
# r^2 is decided again exactly.  In the range s^2, r^2 and the margin are
# normal float32 numbers far from overflow, so every error of the screen
# scales with s^2.
SCREEN_SCALES = (2.0**-40, 2.0**40)
SCREEN_MARGIN = 2.0**-12

# One counterclockwise walk around a hexagonal ring, in axial coordinates.
_RING_STEPS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


@dataclass(frozen=True)
class Connectivity:
    """Helper-to-user adjacency under the distance-threshold rule.

    Users with no helper in range can never be served, so they are dropped:
    `adjacency` has one column per kept user and `reachable_users` maps the
    columns back to rows of the sampled user positions.
    """

    adjacency: np.ndarray  # (E, K) bool
    reachable_users: np.ndarray  # (K,) rows of the (N, 2) user positions

    @property
    def num_helpers(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_users(self) -> int:
        return self.adjacency.shape[1]


@lru_cache(maxsize=32)
def hex_layout(count: int) -> np.ndarray:
    """(count, 2) helper positions: hexagon centers in spiral order, centroid at the origin.

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
    return positions


def disk_uniforms(mean_users: float, rng: np.random.Generator) -> np.ndarray:
    """(2, N) uniforms for a Poisson(mean_users) user count: radial row, then angular row.

    `sample_users` and the sweep's batched draw both take their users from
    here, so every trial consumes its generator in the same order.
    """
    return rng.random((2, rng.poisson(mean_users)))


def disk_positions(uniforms: np.ndarray, disk_radius: float) -> np.ndarray:
    """(N, 2) positions on the disk from `disk_uniforms`: area-uniform radius, uniform angle."""
    radii = disk_radius * np.sqrt(uniforms[0])
    angles = 2.0 * math.pi * uniforms[1]
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))


def mean_user_count(density: float, disk_radius: float) -> float:
    """Expected users on the disk, density * pi * disk_radius^2.

    Raises ValueError for a disk radius past `MAX_DISK_RADIUS`, naming it,
    and, naming both inputs, for a mean above `MAX_MEAN_USERS`, which
    numpy's Poisson draw would refuse.  A mean too large for float64 is
    infinite, and refused as such.
    """
    if abs(disk_radius) > MAX_DISK_RADIUS:
        raise ValueError(
            f"user disk radius {disk_radius} is past {MAX_DISK_RADIUS:.6g} (2^500), "
            f"beyond which squared helper-user distances could overflow float64"
        )
    # as Python floats, so that a product past float64 is inf with no numpy warning
    mean = float(density) * math.pi * float(disk_radius**2)
    if not mean <= MAX_MEAN_USERS:
        raise ValueError(
            f"user density {density} on a disk of radius {disk_radius} expects {mean:.6g} "
            f"users, past {MAX_MEAN_USERS:.6g}, the largest mean numpy's Poisson draw takes"
        )
    return mean


def sample_users(density: float, disk_radius: float, rng: np.random.Generator) -> np.ndarray:
    """(N, 2) user positions: a Poisson(density * disk area) count, uniform on the disk."""
    if not 0 < density < math.inf:
        raise ValueError(f"user density must be finite and positive, got {density}")
    if not 0 < disk_radius < math.inf:
        raise ValueError(f"user disk radius must be finite and positive, got {disk_radius}")
    return disk_positions(disk_uniforms(mean_user_count(density, disk_radius), rng), disk_radius)


def connect(layout: np.ndarray, users: np.ndarray, radius: float) -> Connectivity:
    """Link every helper-user pair within `radius`; prune users nobody reaches.

    `layout` holds the (E, 2) helper positions and `users` the (N, 2) user
    positions.
    """
    if not radius >= 0:
        raise ValueError(f"transmission radius must be nonnegative, got {radius}")
    return _pruned(_within(layout, users, radius))


def disk_links(
    uniforms: np.ndarray, disk_radius: float, layout: np.ndarray, radius: float
) -> Connectivity:
    """`connect(layout, disk_positions(uniforms, disk_radius), radius)`, bit for bit, cheaper.

    A float32 screen decides every helper-user pair whose squared distance
    is clearly on one side of r^2, and each user with a pair that is not
    is recomputed by the rule `connect` applies (a floating-point filter
    with an exact fallback; Shewchuk, "Adaptive Precision Floating-Point
    Arithmetic and Fast Robust Geometric Predicates", 1997).  With u = 2^-24 and the
    scale s = |disk_radius| + max |helper|, which bounds every user-helper
    gap, each coordinate gap errs by at most s (t + 25 u) when float32
    `cos` and `sin` err by t, so the squared distance errs by at most
    2 sqrt(2) s^2 (t + 25 u) + 2 u s^2: about 75 u s^2 at t = 1.5 ulp, and
    800 u s^2 at t = 2^-16, the most `tests/test_topology.py` allows.  The
    bounds r^2 -/+ margin round to float32 by at most 4 u s^2.  A pair is
    close within SCREEN_MARGIN s^2 = 4096 u s^2 of r^2, more than the sum.
    Outside the screen's range (SCREEN_SCALES, r at most 2 s, uniforms in
    [0, 1]) the whole call is `connect`'s, which also refuses a negative
    or NaN radius.
    """
    scale = abs(disk_radius) + float(np.hypot(layout[:, 0], layout[:, 1]).max(initial=0.0))
    low, high = SCREEN_SCALES
    uniforms32 = uniforms.astype(np.float32)
    if not (
        low <= scale <= high
        and 0 <= radius <= 2 * scale
        and uniforms32.size > 0
        and uniforms32.min() >= 0
        and uniforms32.max() <= 1
    ):
        return connect(layout, disk_positions(uniforms, disk_radius), radius)
    radii = np.sqrt(uniforms32[0])
    radii *= np.float32(disk_radius)
    angles = uniforms32[1] * np.float32(2.0 * math.pi)
    x = np.cos(angles)
    x *= radii
    y = np.sin(angles, out=angles)
    y *= radii
    dist2 = _squared_distances(layout.astype(np.float32), x, y)
    margin = SCREEN_MARGIN * scale**2
    within = dist2 < np.float32(radius**2 - margin)
    close = np.flatnonzero((within != (dist2 <= np.float32(radius**2 + margin))).any(axis=0))
    if close.size:
        within[:, close] = _within(layout, disk_positions(uniforms[:, close], disk_radius), radius)
    return _pruned(within)


def _within(layout: np.ndarray, users: np.ndarray, radius: float) -> np.ndarray:
    """(E, N) mask of the helper-user pairs within `radius`: the exact link rule.

    A radius whose square overflows float64 links every pair, as an
    infinite one does: every squared distance on a disk of radius at most
    `MAX_DISK_RADIUS` is finite.
    """
    try:
        bound = radius**2
    except OverflowError:
        bound = math.inf
    return _squared_distances(layout, users[:, 0], users[:, 1]) <= bound


def _squared_distances(layout: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(E, N) squared helper-user distances from the two coordinate gaps.

    Computed in place, so only two (E, N) float arrays are held, in the
    dtype of the inputs.
    """
    dx = layout[:, 0:1] - x
    dy = layout[:, 1:2] - y
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _pruned(within: np.ndarray) -> Connectivity:
    """The links of an (E, N) within-range mask, users nobody reaches dropped."""
    kept = np.flatnonzero(within.any(axis=0))
    # `take` keeps the adjacency row-major (`within[:, kept]` would not), so
    # reductions over the helper axis run along whole rows.
    return Connectivity(adjacency=np.take(within, kept, axis=1), reachable_users=kept)


def channel_normals(num_users: int, num_helpers: int, rng: np.random.Generator) -> np.ndarray:
    """The (2, K, E) standard normals a channel consumes: real parts, then imaginary parts."""
    return rng.standard_normal((2, num_users, num_helpers))


def channel_gains(adjacency: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """(K, E) complex gains of an (E, K) adjacency from its (2, K, E) `channel_normals`.

    Each in-range link gets a unit-variance circularly symmetric gain; the
    out-of-range links are exactly zero.  Only the zero pattern matters for
    the degrees-of-freedom metric; a continuous law keeps every matched
    submatrix invertible almost surely.  The law is elementwise, so the
    sweep applies it once to a chunk's stacked normals.
    """
    real, imag = normals
    return np.where(adjacency.T, (real + 1j * imag) / SQRT2, 0)


def draw_channels(conn: Connectivity, rng: np.random.Generator) -> np.ndarray:
    """(K, E) complex gains of one network: `channel_gains` of normals drawn from `rng`."""
    return channel_gains(conn.adjacency, channel_normals(conn.num_users, conn.num_helpers, rng))
