import math
import re

import numpy as np
import pytest

from helpercache.topology import (
    MAX_MEAN_USERS,
    Connectivity,
    connect,
    draw_channels,
    hex_layout,
    sample_users,
)


def test_single_helper_at_origin():
    layout = hex_layout(1)
    assert layout.shape == (1, 2)
    np.testing.assert_allclose(layout, [[0.0, 0.0]], atol=1e-15)


def test_two_helpers_are_edge_adjacent():
    layout = hex_layout(2)
    gap = np.linalg.norm(layout[0] - layout[1])
    assert gap == pytest.approx(math.sqrt(3), abs=1e-12)


def test_four_helper_cluster_geometry():
    pts = hex_layout(4)
    dists = [np.linalg.norm(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4)]
    assert min(dists) == pytest.approx(math.sqrt(3), abs=1e-12)
    np.testing.assert_allclose(pts.mean(axis=0), [0.0, 0.0], atol=1e-12)


def test_layout_requires_positive_count():
    with pytest.raises(ValueError):
        hex_layout(0)


def test_layout_deterministic():
    np.testing.assert_array_equal(hex_layout(9), hex_layout(9))


def test_layout_is_built_once_and_read_only():
    first, again = hex_layout(7), hex_layout(7)
    assert again is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    np.testing.assert_array_equal(first, hex_layout.__wrapped__(7))


def test_lattice_spacing_holds_for_larger_clusters():
    pts = hex_layout(19)
    dists = [
        np.linalg.norm(pts[i] - pts[j]) for i in range(19) for j in range(i + 1, 19)
    ]
    assert min(dists) == pytest.approx(math.sqrt(3), abs=1e-12)


def test_users_stay_on_disk():
    rng = np.random.default_rng(1)
    users = sample_users(density=3.0, disk_radius=2.7, rng=rng)
    assert users.shape[0] > 0
    assert np.all(np.linalg.norm(users, axis=1) <= 2.7 + 1e-12)


def test_user_count_matches_poisson_mean():
    # 12 * (2.7 / 1.2)^2 expected users per draw
    density = 12 / (1.2**2 * math.pi)
    mean = density * math.pi * 2.7**2
    assert mean == pytest.approx(60.75)
    rng = np.random.default_rng(2)
    draws = 10_000
    counts = [sample_users(density, 2.7, rng).shape[0] for _ in range(draws)]
    stderr = math.sqrt(mean / draws)
    assert abs(np.mean(counts) - mean) < 3 * stderr


def test_sample_users_parameter_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_users(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_users(1.0, 0.0, rng)


@pytest.mark.parametrize(
    "density, disk_radius, message",
    [
        (math.nan, 1.0, "user density must be finite and positive, got nan"),
        (math.inf, 1.0, "user density must be finite and positive, got inf"),
        (1.0, math.nan, "user disk radius must be finite and positive, got nan"),
        (1.0, math.inf, "user disk radius must be finite and positive, got inf"),
    ],
)
def test_sample_users_refuses_what_numpy_would(density, disk_radius, message):
    # Each would reach numpy's Poisson draw as a NaN or infinite mean, which
    # numpy refuses in its own words; the library names the bad input, and
    # draws nothing.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_users(density, disk_radius, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "density, disk_radius, shown",
    [(1e30, 1.0, "1e+30"), (1.0, 1e10, "1.0"), (1e308, 1e10, "1e+308")],
)
def test_sample_users_refuses_a_mean_past_numpys_poisson_limit(density, disk_radius, shown):
    # A finite mean user count above numpy's Poisson limit, or one that
    # overflows to inf, is refused by name before any draw; numpy would
    # say only "lam value too large".
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    named = re.escape(f"user density {shown} on a disk of radius {disk_radius} expects ")
    with pytest.raises(ValueError, match=rf"^{named}\S+ users, past 9\.22337e\+18, "):
        sample_users(density, disk_radius, rng)
    assert rng.bit_generator.state == state


def test_max_mean_users_is_numpys_poisson_limit():
    rng = np.random.default_rng(0)
    assert rng.poisson(MAX_MEAN_USERS) >= 0
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(MAX_MEAN_USERS, math.inf))


def test_sampling_reproducible_from_seed():
    a = sample_users(2.0, 1.5, np.random.default_rng(7))
    b = sample_users(2.0, 1.5, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_zero_radius_prunes_everyone():
    layout = hex_layout(4)
    users = sample_users(2.0, 2.7, np.random.default_rng(3))
    conn = connect(layout, users, 0.0)
    assert conn.num_users == 0
    assert conn.adjacency.shape == (4, 0)


def test_connect_rejects_negative_radius():
    with pytest.raises(ValueError, match="transmission radius must be nonnegative, got -0.5"):
        connect(hex_layout(4), np.zeros((1, 2)), -0.5)


def test_connect_rejects_a_nan_radius():
    # No distance is within a NaN radius, so it would prune every user
    # without a word.
    with pytest.raises(ValueError, match="^transmission radius must be nonnegative, got nan$"):
        connect(hex_layout(4), np.zeros((1, 2)), math.nan)


def test_user_at_helper_position_is_linked():
    layout = hex_layout(2)
    users = sample_users(1.0, 1.0, np.random.default_rng(4))
    positions = np.vstack([users, layout[1]])
    conn = connect(layout, positions, 0.5)
    col = np.flatnonzero(conn.reachable_users == len(positions) - 1)
    assert col.size == 1
    assert conn.adjacency[1, col[0]]


def test_links_follow_the_squared_distance_rule():
    # Reference: squared distances summed over the coordinate axis.  Users
    # placed one radius from a helper sit where rounding decides the link,
    # and both forms must decide it alike.
    rng = np.random.default_rng(12)
    for helpers in (1, 4, 7, 19):
        layout = hex_layout(helpers)
        for radius in (0.5, 1.0, math.sqrt(3.0), 2.2):
            users = sample_users(2.0, 3.0, rng)
            on_circle = layout[0] + radius * np.array([[1.0, 0.0], [0.0, -1.0]])
            positions = np.vstack([users, on_circle])
            delta = layout[:, None, :] - positions[None, :, :]
            within = (delta**2).sum(axis=2) <= radius**2
            conn = connect(layout, positions, radius)
            assert np.array_equal(conn.reachable_users, np.flatnonzero(within.any(axis=0)))
            assert np.array_equal(conn.adjacency, within[:, conn.reachable_users])
            assert conn.adjacency.flags.c_contiguous  # row-major, as the counts read it


def test_large_radius_gives_full_connectivity():
    layout = hex_layout(4)
    users = sample_users(2.0, 2.7, np.random.default_rng(5))
    reach = 2.7 + max(np.linalg.norm(p) for p in layout)
    conn = connect(layout, users, reach)
    assert conn.num_users == users.shape[0]
    assert conn.adjacency.all()


def test_connectivity_monotone_in_radius():
    layout = hex_layout(4)
    users = sample_users(3.0, 2.7, np.random.default_rng(6))
    masks = []
    for radius in (1.0, 1.5):
        conn = connect(layout, users, radius)
        full = np.zeros((4, users.shape[0]), dtype=bool)
        full[:, conn.reachable_users] = conn.adjacency
        masks.append(full)
    assert not np.any(masks[0] & ~masks[1])


def test_every_kept_user_has_a_helper():
    layout = hex_layout(4)
    users = sample_users(2.653, 2.7, np.random.default_rng(8))
    conn = connect(layout, users, 1.2)
    assert conn.adjacency.any(axis=0).all()


def _example_pattern_connectivity() -> Connectivity:
    # candidate sets {e1}, {e1,e2}, {e1,e2,e3}, {e2,e4} for four users
    adjacency = np.array(
        [
            [True, True, True, False],
            [False, True, True, True],
            [False, False, True, False],
            [False, False, False, True],
        ]
    )
    return Connectivity(adjacency=adjacency, reachable_users=np.arange(4))


def test_channel_zeros_match_structural_pattern():
    conn = _example_pattern_connectivity()
    channel = draw_channels(conn, np.random.default_rng(9))
    assert channel.shape == (4, 4)
    np.testing.assert_array_equal(channel != 0, conn.adjacency.T)


def test_channel_all_zero_without_links():
    conn = Connectivity(adjacency=np.zeros((3, 0), dtype=bool), reachable_users=np.arange(0))
    channel = draw_channels(conn, np.random.default_rng(10))
    assert channel.shape == (0, 3)


def test_channels_reproducible_from_seed():
    conn = _example_pattern_connectivity()
    a = draw_channels(conn, np.random.default_rng(11))
    b = draw_channels(conn, np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)


def test_channel_gains_have_unit_variance():
    adjacency = np.ones((2, 4000), dtype=bool)
    conn = Connectivity(adjacency=adjacency, reachable_users=np.arange(4000))
    coeff = draw_channels(conn, np.random.default_rng(12))
    assert np.mean(np.abs(coeff) ** 2) == pytest.approx(1.0, abs=0.05)
    assert abs(coeff.mean()) < 0.05
