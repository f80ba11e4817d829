"""Support bodies: construction, certification, exact Hessian-form realization."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from areafun import sphere
from areafun.bodies import (
    MARGIN,
    ball,
    certified_minimum,
    certified_strength,
    certify_c2plus,
    combine,
    ellipsoid,
    perturb,
    realize_q,
)
from areafun.errors import ConstructionError, DomainError
from areafun.functionals import _sweep
from areafun.sphere import make_grid, q_matrix

RNG = np.random.default_rng(99)


def rand_unit(n, rng=RNG):
    x = rng.normal(size=n)
    return x / np.linalg.norm(x)


@pytest.fixture(scope="module")
def grid3():
    return make_grid(3, 2048)


class TestConstruction:
    def test_ball_support(self):
        B = ball(3, 2.0)
        U = np.stack([rand_unit(3) for _ in range(5)])
        np.testing.assert_allclose(B.support(U), 2.0)

    def test_ellipsoid_support_closed_form(self):
        E = ellipsoid([1.0, 2.0, 3.0])
        u = rand_unit(3)
        want = math.sqrt(u[0] ** 2 + 4 * u[1] ** 2 + 9 * u[2] ** 2)
        assert E.support(u) == pytest.approx(want, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_ellipsoid_rejects_axes_with_infinite_squares(self):
        for bad in ([1e200, 1.0, 1.0], [1.0, math.inf, 1.0], [1.0, math.nan, 1.0]):
            with pytest.raises(DomainError):
                ellipsoid(bad)

    def test_minkowski_sum_supports_add(self):
        K = ellipsoid([1.0, 2.0, 1.5])
        L = ball(3, 0.5)
        M = combine([1.0, 1.0], [K, L])
        u = rand_unit(3)
        assert M.support(u) == pytest.approx(K.support(u) + L.support(u), rel=1e-12)

    def test_combine_rejects_negative(self):
        with pytest.raises(DomainError):
            combine([1.0, -0.2], [ball(3), ball(3)])

    def test_translate_keeps_curvature(self, grid3):
        K = ellipsoid([1.0, 2.0, 1.5]).translate([0.3, -0.1, 0.5])
        np.testing.assert_allclose(
            K.q_stack(grid3), ellipsoid([1.0, 2.0, 1.5]).q_stack(grid3), atol=1e-9
        )

    def test_scale_scales_eigs(self, grid3):
        K = ellipsoid([1.0, 2.0, 1.5])
        np.testing.assert_allclose(
            combine([3.0], [K]).q_eigs(grid3), 3.0 * K.q_eigs(grid3), atol=1e-9
        )


class TestCertification:
    def test_ball_certifies(self, grid3):
        cert = certify_c2plus(ball(3, 1.0), grid3)
        assert cert.ok
        assert cert.min_eig == pytest.approx(1.0, abs=1e-9)

    def test_ellipsoid_min_radius(self, grid3):
        # prolate ellipsoid (a,a,c), c > a: the minimum curvature radius over
        # the sphere is a^2/c, attained at the poles
        a, c = 1.0, 3.0
        E = ellipsoid([a, a, c])
        cert = certify_c2plus(E, grid3)
        assert cert.ok
        assert cert.min_eig == pytest.approx(a * a / c, rel=5e-3)

    def test_nonconvex_fails(self, grid3):
        # 1 + 0.8(x1^2 - x2^2) has Hessian-form eigenvalue 1 - 1.6 < 0 near e3
        f = sphere.polynomial(
            3, {(0, 0, 0): 1.0, (2, 0, 0): 0.8, (0, 2, 0): -0.8}, label="bad"
        )
        from areafun.bodies import SupportBody

        K = SupportBody(f)
        cert = certify_c2plus(K, grid3)
        assert not cert.ok
        assert cert.min_eig < -0.5

    def test_eigenvalues_are_those_of_the_stack(self):
        g = make_grid(3, 256)
        K = ellipsoid([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(K.q_eigs(g), np.linalg.eigvalsh(K.q_stack(g)))


def lapack_minimum(Qh, Qp, margin):
    """The route certified_minimum screens, at every node of a block: Cholesky,
    inv and eigvalsh, all -inf when the factorisation fails."""
    try:
        L = np.linalg.cholesky(Qh - margin * np.eye(Qh.shape[-1]))
    except np.linalg.LinAlgError:
        return np.full(len(Qh), -math.inf)
    L_inv = np.linalg.inv(L)
    return np.linalg.eigvalsh(L_inv @ Qp @ L_inv.transpose(0, 2, 1))[:, 0]


BLOCK = 64  # the node block of the screened walks below


def pencil_stack(seed, N, gap, end, fail, m=3 * BLOCK + 17):
    """m pairs (Qh, Qp) whose pencils C = L^-1 Qp L^-T, L L^T = Qh - MARGIN I,
    have their two least (end "low") or two largest ("high") eigenvalues gap
    apart relative, least eigenvalues from equal to 1e-8 apart, and the node
    3 copied into the second and third blocks; with fail, one Qh of the
    second block sits at the margin."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 2.0, size=(m, N))
    lam[:, 0] = -1.0 - rng.choice([0.0, 1e-16, 2e-16, 1e-14, 1e-12, 1e-8, 0.5], size=m)
    lam[3, 0] = -1.0 - 2e-16
    lam = np.sort(lam, axis=1)
    if N > 1:
        k = 0 if end == "low" else N - 2
        lam[:, k + 1] = lam[:, k] + gap * np.abs(lam[:, k])
    lam *= 10.0 ** rng.uniform(-3.0, 3.0)
    h = np.sort(rng.uniform(0.01, 3.0, size=(m, N)), axis=1)
    h[: m // 2, 0] = rng.uniform(1e-4, 1e-2, size=m // 2)  # thin bodies, larger kappa(L)
    V, W = (np.linalg.qr(rng.normal(size=(m, N, N)))[0] for _ in range(2))
    Qh = (W * (h + MARGIN)[:, None, :]) @ W.transpose(0, 2, 1)
    Qh = 0.5 * (Qh + Qh.transpose(0, 2, 1))
    L = np.linalg.cholesky(Qh - MARGIN * np.eye(N))
    Qp = L @ (V * lam[:, None, :]) @ V.transpose(0, 2, 1) @ L.transpose(0, 2, 1)
    Qp = 0.5 * (Qp + Qp.transpose(0, 2, 1))
    for j in (BLOCK + 5, 2 * BLOCK + 9):
        Qh[j], Qp[j] = Qh[3], Qp[3]
    if fail:
        Qh[BLOCK + 7] = MARGIN * np.eye(N)
    return Qh, Qp


class TestCertifiedMinimum:
    """The screened least row against the LAPACK route at every node."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from((1, 2, 3)),
        st.sampled_from((0.0, 1e-14, 1e-12, 1e-8)),
        st.sampled_from(("low", "high")),
        st.booleans(),
    )
    def test_least_row_is_the_lapack_route(self, seed, N, gap, end, fail):
        # bit for bit at every node it keeps, above the block's least at every
        # node it drops, and the walk's least and first node are the route's
        Qh, Qp = pencil_stack(seed, N, gap, end, fail)
        grid = make_grid(3, len(Qh))  # only its length is read
        with mock.patch.object(sphere, "NODE_BLOCK", BLOCK):
            blocks = list(sphere.node_blocks(len(Qh)))
            _, (least,), (where,) = grid.walk_blocks(
                lambda b: certified_minimum(Qh[b], Qp[b], MARGIN)[None], 0, least=1
            )
        dropped = 0
        for b in blocks:
            got, want = certified_minimum(Qh[b], Qp[b], MARGIN), lapack_minimum(Qh[b], Qp[b], MARGIN)
            kept = got != math.inf
            assert got[kept].tobytes() == want[kept].tobytes()
            assert np.all(want[~kept] > np.min(want))
            dropped += int(np.sum(~kept))
        assert fail or dropped > 0
        full = np.concatenate([lapack_minimum(Qh[b], Qp[b], MARGIN) for b in blocks])
        assert (float(least).hex(), int(where)) == (float(np.min(full)).hex(), int(np.argmin(full)))

    def test_plain_route_beyond_the_screen(self):
        # N = 4, and a block whose screen is not finite, keep every node
        rng = np.random.default_rng(5)
        A, B = rng.normal(size=(2, 100, 4, 4))
        cases = [(A @ A.transpose(0, 2, 1) + np.eye(4), B + B.transpose(0, 2, 1))]
        Qh, Qp = pencil_stack(5, 2, 0.0, "low", False)
        Qp[11, 0, 0] = np.nan
        cases.append((Qh, Qp))
        for Qh, Qp in cases:
            with np.errstate(invalid="ignore"):
                got, want = certified_minimum(Qh, Qp, MARGIN), lapack_minimum(Qh, Qp, MARGIN)
            assert got.tobytes() == want.tobytes()

    def test_node_beyond_the_screens_range_is_kept(self):
        # an entry above 2^200 leaves the bound's range: tau = inf keeps the node
        Qh, Qp = pencil_stack(5, 3, 0.0, "low", False)
        Qp[11] *= 1e300 / np.abs(Qp[11]).max()
        with np.errstate(over="ignore"):
            got, want = certified_minimum(Qh, Qp, MARGIN), lapack_minimum(Qh, Qp, MARGIN)
        kept = got != math.inf
        assert kept[11] and got[kept].tobytes() == want[kept].tobytes()
        assert np.all(want[~kept] > np.min(want))


class TestRealizeQ:
    def test_exact_at_point(self):
        rng = np.random.default_rng(4)
        for n in (3, 4):
            u = rand_unit(n, rng)
            W = rng.normal(size=(n - 1, n - 1))
            A = W @ W.T + 0.3 * np.eye(n - 1)
            K = realize_q(A, u)
            np.testing.assert_allclose(q_matrix(K.h, u), A, atol=1e-8)
            assert K.support(u) == pytest.approx(1.0, abs=1e-12)

    def test_at_pole(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        K = realize_q(A, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(q_matrix(K.h, np.array([0.0, 0.0, 1.0])), A, atol=1e-10)

    def test_globally_convex(self, grid3):
        A = np.array([[3.0, 1.0], [1.0, 0.7]])
        K = realize_q(A, rand_unit(3))
        assert certify_c2plus(K, grid3, margin=1e-8).ok

    def test_rejects_indefinite(self):
        with pytest.raises(ConstructionError):
            realize_q(np.diag([1.0, -0.1]), np.array([0.0, 0.0, 1.0]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            realize_q(np.eye(3), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            realize_q(np.eye(2), np.array([0.0, 0.0, 2.0]))


def largest_certified_strength(body, phi, grid, margin=1e-6):
    """certified_strength from the margin row of a node sweep with no summed
    row, as the counterexample search certifies (weight and order unread)."""
    sweep = _sweep(sphere.constant(body.n, 1.0), body, phi, 1, grid, (), margin=margin)
    return certified_strength(sweep[1])


class TestPerturbationFamily:
    """Closed-form certified strength of the family s -> h + s*phi."""

    def test_ball_linear_bound(self, grid3):
        # perturbing the unit ball: Q(h + s phi) = I + s Q(phi); the exact
        # frontier is (1 - margin)/max_spectral(Q_phi) in each direction
        phi = sphere.polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): -1.0}, label="saddle")
        margin = 1e-6
        eigs = np.linalg.eigvalsh(sphere.q_batch(phi, grid3.nodes, grid3.frames()))
        # level(s) = 1 + s * min_node_eig for s > 0, 1 - |s| * max_node_eig for s < 0
        m_neg = -float(np.min(eigs))
        m_pos = float(np.max(eigs))
        minus_phi = sphere.combination([-1.0], [phi])
        s_plus = largest_certified_strength(ball(3), phi, grid3, margin=margin)
        s_minus = largest_certified_strength(ball(3), minus_phi, grid3, margin=margin)
        assert s_plus == pytest.approx((1.0 - margin) / m_neg, rel=1e-12)
        assert s_minus == pytest.approx((1.0 - margin) / m_pos, rel=1e-12)

    def test_support_direction_is_unbounded(self, grid3):
        # adding a multiple of another support function never destroys convexity
        one = sphere.constant(3, 1.0)
        assert largest_certified_strength(ball(3), one, grid3) == math.inf
        minus_one = sphere.constant(3, -1.0)
        assert 0.9 < largest_certified_strength(ball(3), minus_one, grid3) < 1.0

    def test_family_members_certify(self, grid3):
        phi = sphere.polynomial(3, {(2, 0, 0): 1.0, (0, 0, 2): -0.5}, label="p")
        s_max = largest_certified_strength(ball(3), phi, grid3)
        assert certify_c2plus(perturb(ball(3), phi, 0.999 * s_max), grid3).ok
        assert not certify_c2plus(perturb(ball(3), phi, 1.01 * s_max), grid3).ok

    def test_rejects_nonconvex_base(self, grid3):
        from areafun.bodies import SupportBody

        bad = SupportBody(
            sphere.polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 2.0, (0, 2, 0): -2.0})
        )
        assert largest_certified_strength(bad, sphere.constant(3, 1.0), grid3) == 0.0
