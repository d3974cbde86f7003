import math
import re

import numpy as np
import pytest

from helpercache.topology import (
    MAX_MEAN_USERS,
    SCREEN_MARGIN,
    Connectivity,
    connect,
    disk_links,
    disk_positions,
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


def _assert_links_of_positions(uniforms, disk_radius, layout, radius):
    # `disk_links` must give exactly the links of the float64 positions.
    screened = disk_links(uniforms, disk_radius, layout, radius)
    exact = connect(layout, disk_positions(uniforms, disk_radius), radius)
    assert np.array_equal(screened.reachable_users, exact.reachable_users)
    assert screened.reachable_users.dtype == exact.reachable_users.dtype
    assert np.array_equal(screened.adjacency, exact.adjacency)
    assert screened.adjacency.flags.c_contiguous
    return screened


@pytest.mark.parametrize("helpers", [1, 4, 7, 19, 61])
@pytest.mark.parametrize("radius", [0.0, 1e-30, 1.2, 4.2, math.inf])
def test_disk_links_are_the_links_of_the_positions(helpers, radius):
    rng = np.random.default_rng(helpers)
    layout = hex_layout(helpers)
    for disk_radius in (2.7, 6.0):
        for count in (0, 1, 50, 4000):
            _assert_links_of_positions(rng.random((2, count)), disk_radius, layout, radius)


@pytest.mark.parametrize("exponent", range(-20, 21, 5))
@pytest.mark.parametrize("helpers", [1, 4])
def test_disk_links_hold_for_any_user_radius(exponent, helpers):
    # From users packed at the origin to a disk far past the helpers: the
    # scale leaves the screen's range at both ends for one helper, and
    # only at the far end for four.
    disk_radius = 10.0**exponent
    rng = np.random.default_rng(exponent + 100)
    layout = hex_layout(helpers)
    uniforms = rng.random((2, 2000))
    for radius in (0.0, 0.3 * disk_radius, disk_radius, 1.2, 3.0):
        _assert_links_of_positions(uniforms, disk_radius, layout, radius)


def _uniforms_on_circles(layout, disk_radius, radius, count):
    """Disk uniforms of users on each helper's radius-`radius` circle, inside the disk,
    each with its neighbours one ulp away in either uniform."""
    angles = np.linspace(0.0, 2 * math.pi, count, endpoint=False)
    circle = radius * np.stack((np.cos(angles), np.sin(angles)), axis=1)
    points = (layout[:, None, :] + circle).reshape(-1, 2)
    rho = np.hypot(points[:, 0], points[:, 1])
    points, rho = points[rho < 0.999 * disk_radius], rho[rho < 0.999 * disk_radius]
    theta = np.arctan2(points[:, 1], points[:, 0]) % (2 * math.pi)
    base = np.stack(((rho / disk_radius) ** 2, theta / (2 * math.pi)))
    nudged = [base]
    for row in (0, 1):
        for toward in (0.0, 1.0):
            moved = base.copy()
            moved[row] = np.nextafter(moved[row], toward)
            nudged.append(moved)
    return np.concatenate(nudged, axis=1)


@pytest.mark.parametrize("helpers", [1, 4, 7, 19])
@pytest.mark.parametrize("radius", [0.5, 1.2, 2.2, 4.2])
def test_disk_links_decide_users_on_the_boundary_exactly(helpers, radius):
    # Users built one radius from a helper, through the inverse of the
    # disk map, sit where float32 cannot tell in from out: each is
    # recomputed exactly, and must match the float64 links one by one.
    layout = hex_layout(helpers)
    disk_radius = max(2.7, radius + 1.0)  # some of every circle inside the disk
    uniforms = _uniforms_on_circles(layout, disk_radius, radius, 720)
    assert uniforms.shape[1] > 0
    assert 0 <= uniforms.min() and uniforms.max() < 1
    positions = disk_positions(uniforms, disk_radius)
    dist2 = ((layout[:, None, :] - positions[None]) ** 2).sum(axis=2)
    assert (np.abs(dist2 - radius**2) < 1e-12).any(axis=0).all()
    background = np.random.default_rng(helpers).random((2, 500))
    _assert_links_of_positions(np.hstack((background, uniforms)), disk_radius, layout, radius)


@pytest.mark.parametrize("exponent", [-40, -22, -20, -10, 0, 10, 20, 40])
def test_disk_links_decide_boundary_users_at_any_scale(exponent):
    # One helper at the origin, so the whole geometry scales.  Past the
    # screen's range float32 squares underflow into subnormals (1e-22) or
    # overflow (1e40), and only `connect` can decide these users.
    scale = 10.0**exponent
    layout = hex_layout(1)
    uniforms = _uniforms_on_circles(layout, 2.7 * scale, 1.2 * scale, 720)
    _assert_links_of_positions(uniforms, 2.7 * scale, layout, 1.2 * scale)


def test_disk_links_hold_for_uniforms_off_the_unit_square():
    # Boundary users whose angular uniforms are shifted by 2^20 whole
    # turns keep their float64 positions, up to rounding, but float32
    # rounds their angles to eighths of a turn; a NaN uniform puts a user
    # nowhere.  Each makes the whole call `connect`'s.
    layout = hex_layout(4)
    uniforms = _uniforms_on_circles(layout, 2.7, 1.2, 720)
    uniforms[1] += 2.0**20
    _assert_links_of_positions(uniforms, 2.7, layout, 1.2)
    uniforms = np.hstack((_uniforms_on_circles(layout, 2.7, 1.2, 720), [[math.nan], [0.5]]))
    assert _assert_links_of_positions(uniforms, 2.7, layout, 1.2).num_users > 0


@pytest.mark.parametrize("radius", [-0.5, math.nan])
def test_disk_links_refuse_what_connect_refuses(radius):
    uniforms = np.random.default_rng(0).random((2, 10))
    with pytest.raises(ValueError, match=f"^transmission radius must be nonnegative, got {radius}$"):
        disk_links(uniforms, 2.7, hex_layout(4), radius)


def test_float32_trig_is_inside_the_screens_error_budget():
    # The `disk_links` screen leaves SCREEN_MARGIN = 2^-12 of the squared
    # scale for its errors; float32 `cos` and `sin` erring by 2^-16 would
    # take about a fifth of it.  A platform whose float32 libm is worse
    # fails here rather than flipping links.
    assert SCREEN_MARGIN == 2.0**-12
    angles = np.linspace(0.0, np.float32(2 * math.pi), 2**20 + 1, dtype=np.float32)
    exact = angles.astype(np.float64)
    for function in (np.cos, np.sin):
        assert function(angles).dtype == np.float32
        assert np.abs(function(angles) - function(exact)).max() <= 2.0**-16


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
