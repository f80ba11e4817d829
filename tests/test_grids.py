"""Grid invariants, and value checks that equal-size grids never share a
result, with property tests over every grid constructor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from areafun.bodies import ball, ellipsoid
from areafun.errors import DomainError
from areafun.functionals import functional_difference
from areafun.sphere import (
    NODE_BLOCK,
    _composite_gauss_axis,
    cap_grid,
    constant,
    latitude_grid,
    make_grid,
    node_blocks,
    panel_grid,
    sphere_area,
    tangent_frame,
)

PROPERTY = settings(max_examples=25, deadline=None)


def spheroid_area(a, c):
    """Surface area of the oblate spheroid with semi-axes a, a, c < a."""
    e = math.sqrt(1.0 - (c / a) ** 2)
    return 2.0 * math.pi * a * a * (1.0 + (1.0 - e * e) / e * math.atanh(e))


def cap_area(n, theta):
    """Area of the geodesic cap of radius theta on S^{n-1}, n = 3 or 4."""
    if n == 3:
        return 2.0 * math.pi * (1.0 - math.cos(theta))
    return sphere_area(3) * (theta / 2.0 - math.sin(2.0 * theta) / 4.0)


def unit(rng_seed, n):
    x = np.random.default_rng(rng_seed).normal(size=n)
    return x / np.linalg.norm(x)


def body_for(n):
    return ellipsoid([1.0, 0.8, 0.6, 0.9][:n])


def assert_no_shared_entries(g1, g2):
    """Bodies evaluated on g1 and then on g2 give on g2 what fresh bodies do,
    on the grid and on its coarse grid: a value check that would catch any
    result kept across grids of one size."""
    assert len(g1) == len(g2)
    f = constant(g1.n, 1.0)
    K, B = body_for(g1.n), ball(g1.n)
    functional_difference(f, K, B, 1, g1)
    got = functional_difference(f, K, B, 1, g2)
    want = functional_difference(f, body_for(g2.n), ball(g2.n), 1, g2)
    assert got == want


# -- strategies: one per constructor, at most 2,000 nodes -----------------------

sphere_grids = st.one_of(
    st.builds(lambda m: make_grid(2, m), st.integers(3, 2000)),
    st.builds(lambda m: make_grid(3, m), st.integers(3, 2000)),
    st.builds(lambda m, s: make_grid(4, m, seed=s), st.integers(3, 2000), st.integers(0, 99)),
    st.builds(
        latitude_grid, st.integers(2, 40), st.integers(2, 40)
    ).filter(lambda g: len(g) > 4),
)


@st.composite
def caps(draw):
    n = draw(st.sampled_from([3, 4]))
    theta = draw(st.floats(0.1, math.pi))
    radial = draw(st.integers(12, 40))
    transverse = draw(st.integers(3, 2000 // radial))
    g = cap_grid(unit(draw(st.integers(0, 99)), n), theta, radial, transverse)
    return g, cap_area(n, theta)


@st.composite
def panel_args(draw):
    n = draw(st.sampled_from([3, 4]))
    u0 = unit(draw(st.integers(0, 99)), n)
    counts = [draw(st.integers(1, 3)) for _ in range(n - 1)]
    order = draw(st.integers(2, 6 if n == 3 else 4))
    return u0, counts, order


def panel(u0, counts, order, half=0.3):
    breaks = [np.linspace(-half, half, c + 1) for c in counts]
    return panel_grid(u0, tangent_frame(u0), breaks, order)


class TestGridProperties:
    @PROPERTY
    @given(sphere_grids)
    def test_weights_sum_to_sphere_area(self, g):
        assert np.sum(g.weights) == pytest.approx(sphere_area(g.n), rel=1e-12)
        np.testing.assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)

    @PROPERTY
    @given(caps())
    def test_cap_weights_sum_to_cap_area(self, cap):
        g, area = cap
        assert np.sum(g.weights) == pytest.approx(area, rel=1e-12)

    @PROPERTY
    @given(
        st.one_of(sphere_grids, caps().map(lambda c: c[0]), panel_args().map(lambda a: panel(*a)))
    )
    def test_coarse_is_smaller_and_same_kind(self, g):
        cg = g.coarse()
        assert len(cg) < len(g)
        assert cg.kind == g.kind and cg.n == g.n
        assert g.coarse() is cg

    @PROPERTY
    @given(st.integers(2, 40), st.integers(2, 40))
    def test_transposed_latitude_grids_share_nothing(self, nz, naz):
        if nz != naz:
            assert_no_shared_entries(latitude_grid(nz, naz), latitude_grid(naz, nz))

    @PROPERTY
    @given(st.integers(16, 2000), st.integers(0, 99), st.integers(0, 99))
    def test_mc_grids_of_one_size_share_nothing(self, m, s1, s2):
        if s1 != s2:
            assert_no_shared_entries(make_grid(4, m, seed=s1), make_grid(4, m, seed=s2))

    @PROPERTY
    @given(st.integers(0, 99), st.integers(0, 99), st.integers(12, 40))
    def test_caps_of_one_size_share_nothing(self, s1, s2, radial):
        if s1 != s2:
            g1 = cap_grid(unit(s1, 3), 1.0, radial, 32)
            g2 = cap_grid(unit(s2, 3), 1.0, radial, 32)
            assert_no_shared_entries(g1, g2)

    @PROPERTY
    @given(panel_args(), st.floats(0.05, 0.5), st.floats(0.05, 0.5))
    def test_panels_of_one_size_share_nothing(self, args, half1, half2):
        if half1 != half2:
            assert_no_shared_entries(panel(*args, half=half1), panel(*args, half=half2))


def _panel_reference(u0, E, breaks, order):
    """Nodes and weights of panel_grid as built whole, from meshgrids."""
    axes = [_composite_gauss_axis(np.unique(br), order) for br in breaks]
    d = len(axes)
    X = np.stack(np.meshgrid(*[a[0] for a in axes], indexing="ij"), axis=-1).reshape(-1, d)
    W = np.stack(np.meshgrid(*[a[1] for a in axes], indexing="ij"), axis=-1).reshape(-1, d)
    h = np.sqrt(1.0 - np.einsum("ma,ma->m", X, X))
    return X @ E.T + h[:, None] * u0[None, :], np.prod(W, axis=1) / h


def _cap_reference(u0, theta_max, radial, transverse):
    """Nodes and weights of cap_grid as built whole, by broadcasting."""
    n = len(u0)
    x, wx = np.polynomial.legendre.leggauss(radial)
    theta = 0.5 * theta_max * (x + 1.0)
    w_theta = 0.5 * theta_max * wx * np.sin(theta) ** (n - 2)
    tg = make_grid(n - 1, transverse)
    omega = tg.nodes @ tangent_frame(u0).T
    nodes = (
        np.cos(theta)[:, None, None] * u0[None, None, :]
        + np.sin(theta)[:, None, None] * omega[None, :, :]
    ).reshape(-1, n)
    return nodes, (w_theta[:, None] * tg.weights[None, :]).reshape(-1)


def _bit_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBlockNodes:
    """Product grids build each node block on request, bit for bit the
    nodes and weights of the whole-grid construction."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_panel_blocks_match_the_whole_grid(self, n):
        u0 = np.eye(n)[-1]
        E = tangent_frame(u0)
        rng = np.random.default_rng(n)
        breaks = [np.sort(rng.uniform(-0.3, 0.3, size=21 if n == 3 else 6)) for _ in range(n - 1)]
        for order in (6, 5):
            g = panel_grid(u0, E, breaks, order)
            nodes, weights = _panel_reference(u0, E, breaks, order)
            self._check(g, nodes, weights)

    @pytest.mark.parametrize("n", [3, 4])
    def test_cap_blocks_match_the_whole_grid(self, n):
        u0 = np.ones(n) / math.sqrt(n)
        radial, transverse = (160, 256) if n == 3 else (80, 640)
        g = cap_grid(u0, 0.7, radial, transverse)
        self._check(g, *_cap_reference(u0, 0.7, radial, transverse))
        self._check(g.coarse(), *_cap_reference(u0, 0.7, radial // 2, transverse // 2))

    @staticmethod
    def _check(g, nodes, weights):
        assert len(g) == len(g.nodes) == len(nodes) > NODE_BLOCK
        assert _bit_equal(g.weights, weights)
        for b in node_blocks(len(g)):
            assert _bit_equal(g.nodes[b], nodes[b])
        assert _bit_equal(np.asarray(g.nodes), nodes)
        for k in (0, NODE_BLOCK + 3, -1):
            assert _bit_equal(g.nodes[k], nodes[k])
        np.testing.assert_array_equal(g.nodes[5:40:7], nodes[5:40:7])
        np.testing.assert_array_equal(g.nodes[:, 0], nodes[:, 0])


class TestDegenerateCoarse:
    def test_rules_that_cannot_shrink_raise(self):
        u0 = np.array([0.0, 0.0, 1.0])
        for g in (
            make_grid(3, 2),
            latitude_grid(2, 2),
            cap_grid(u0, 0.5, 2, 2),
            panel_grid(u0, tangent_frame(u0), [np.linspace(-0.2, 0.2, 5)] * 2, order=1),
        ):
            with pytest.raises(DomainError, match="no smaller half-resolution rule"):
                g.coarse()


class TestIdentityCaches:
    def test_equal_size_latitude_grids_do_not_collide(self):
        # both grids and both of their coarse grids have 800 nodes; the
        # second must give its own value, not the first grid's (a ball of
        # radius 1/2 has area pi)
        want = spheroid_area(1.0, 0.5) - math.pi
        one = constant(3, 1.0)
        K, B = ellipsoid([1.0, 1.0, 0.5]), ball(3, 0.5)
        for nz, naz in [(40, 20), (20, 40)]:
            g = latitude_grid(nz, naz)
            val, est = functional_difference(one, K, B, 2, g)
            fresh_val, fresh_est = functional_difference(
                one, ellipsoid([1.0, 1.0, 0.5]), ball(3, 0.5), 2, g
            )
            assert val == pytest.approx(want, rel=1e-6)
            assert (val, est) == (fresh_val, fresh_est)
