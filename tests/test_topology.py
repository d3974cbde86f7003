import math

import numpy as np
import pytest

from helpercache.topology import (
    Connectivity,
    UserField,
    connect,
    draw_channels,
    hex_layout,
    sample_users,
)


def test_single_helper_at_origin():
    layout = hex_layout(1)
    assert layout.count == 1
    np.testing.assert_allclose(layout.positions, [[0.0, 0.0]], atol=1e-15)


def test_two_helpers_are_edge_adjacent():
    layout = hex_layout(2)
    gap = np.linalg.norm(layout.positions[0] - layout.positions[1])
    assert gap == pytest.approx(math.sqrt(3), abs=1e-12)


def test_four_helper_cluster_geometry():
    pts = hex_layout(4).positions
    dists = [np.linalg.norm(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4)]
    assert min(dists) == pytest.approx(math.sqrt(3), abs=1e-12)
    np.testing.assert_allclose(pts.mean(axis=0), [0.0, 0.0], atol=1e-12)


def test_layout_requires_positive_count():
    with pytest.raises(ValueError):
        hex_layout(0)


def test_layout_deterministic():
    np.testing.assert_array_equal(hex_layout(9).positions, hex_layout(9).positions)


def test_layout_is_built_once_and_read_only():
    first, again = hex_layout(7), hex_layout(7)
    assert again.positions is first.positions
    assert not first.positions.flags.writeable
    with pytest.raises(ValueError):
        first.positions[0, 0] = 1.0
    np.testing.assert_array_equal(first.positions, hex_layout.__wrapped__(7).positions)


def test_lattice_spacing_holds_for_larger_clusters():
    pts = hex_layout(19).positions
    dists = [
        np.linalg.norm(pts[i] - pts[j]) for i in range(19) for j in range(i + 1, 19)
    ]
    assert min(dists) == pytest.approx(math.sqrt(3), abs=1e-12)


def test_users_stay_on_disk():
    rng = np.random.default_rng(1)
    users = sample_users(density=3.0, disk_radius=2.7, rng=rng)
    assert users.raw_count > 0
    assert np.all(np.linalg.norm(users.positions, axis=1) <= 2.7 + 1e-12)


def test_user_count_matches_poisson_mean():
    # 12 * (2.7 / 1.2)^2 expected users per draw
    density = 12 / (1.2**2 * math.pi)
    mean = density * math.pi * 2.7**2
    assert mean == pytest.approx(60.75)
    rng = np.random.default_rng(2)
    draws = 10_000
    counts = [sample_users(density, 2.7, rng).raw_count for _ in range(draws)]
    stderr = math.sqrt(mean / draws)
    assert abs(np.mean(counts) - mean) < 3 * stderr


def test_sample_users_parameter_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_users(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_users(1.0, 0.0, rng)


def test_sampling_reproducible_from_seed():
    a = sample_users(2.0, 1.5, np.random.default_rng(7))
    b = sample_users(2.0, 1.5, np.random.default_rng(7))
    np.testing.assert_array_equal(a.positions, b.positions)


def test_zero_radius_prunes_everyone():
    layout = hex_layout(4)
    users = sample_users(2.0, 2.7, np.random.default_rng(3))
    conn = connect(layout, users, 0.0)
    assert conn.num_users == 0
    assert conn.adjacency.shape == (4, 0)


def test_user_at_helper_position_is_linked():
    layout = hex_layout(2)
    users = sample_users(1.0, 1.0, np.random.default_rng(4))
    positions = np.vstack([users.positions, layout.positions[1]])
    field = UserField(positions=positions, disk_radius=users.disk_radius, density=users.density)
    conn = connect(layout, field, 0.5)
    col = np.flatnonzero(conn.reachable_users == len(positions) - 1)
    assert col.size == 1
    assert conn.adjacency[1, col[0]]


def test_large_radius_gives_full_connectivity():
    layout = hex_layout(4)
    users = sample_users(2.0, 2.7, np.random.default_rng(5))
    reach = 2.7 + max(np.linalg.norm(p) for p in layout.positions)
    conn = connect(layout, users, reach)
    assert conn.num_users == users.raw_count
    assert conn.adjacency.all()


def test_connectivity_monotone_in_radius():
    layout = hex_layout(4)
    users = sample_users(3.0, 2.7, np.random.default_rng(6))
    masks = []
    for radius in (1.0, 1.5):
        conn = connect(layout, users, radius)
        full = np.zeros((4, users.raw_count), dtype=bool)
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
    return Connectivity(adjacency=adjacency, radius=1.0, reachable_users=np.arange(4))


def test_channel_zeros_match_structural_pattern():
    conn = _example_pattern_connectivity()
    channel = draw_channels(conn, np.random.default_rng(9))
    assert channel.coefficients.shape == (4, 4)
    np.testing.assert_array_equal(channel.coefficients != 0, conn.adjacency.T)


def test_channel_all_zero_without_links():
    conn = Connectivity(
        adjacency=np.zeros((3, 0), dtype=bool), radius=0.0, reachable_users=np.arange(0)
    )
    channel = draw_channels(conn, np.random.default_rng(10))
    assert channel.coefficients.shape == (0, 3)


def test_channels_reproducible_from_seed():
    conn = _example_pattern_connectivity()
    a = draw_channels(conn, np.random.default_rng(11)).coefficients
    b = draw_channels(conn, np.random.default_rng(11)).coefficients
    np.testing.assert_array_equal(a, b)


def test_channel_gains_have_unit_variance():
    adjacency = np.ones((2, 4000), dtype=bool)
    conn = Connectivity(adjacency=adjacency, radius=9.0, reachable_users=np.arange(4000))
    coeff = draw_channels(conn, np.random.default_rng(12)).coefficients
    assert np.mean(np.abs(coeff) ** 2) == pytest.approx(1.0, abs=0.05)
    assert abs(coeff.mean()) < 0.05
