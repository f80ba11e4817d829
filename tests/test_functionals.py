"""Functional evaluation: closed forms, mixed-form bridges, variation oracles."""

import math

import numpy as np
import pytest

from areafun import functionals, sphere
from areafun.bodies import ball, ellipsoid, combine, perturb
from areafun.errors import DomainError, EvaluationError
from areafun.identities import ibp_symmetry_residual
from areafun.functionals import (
    _sweep,
    concavity_criterion,
    convention_factor,
    power_concavity,
    first_variation,
    functional_difference,
    functional_segment,
    functional_value,
    mixed_area_integral,
    mixed_volume_smooth,
    second_variation,
    volume,
)
from areafun.sphere import QuadratureGrid, cap_grid, make_grid, node_blocks
from areafun.symfun import elem_sym_batch


@pytest.fixture(scope="module")
def grid3():
    return make_grid(3, 8192)


@pytest.fixture(scope="module")
def grid4():
    return make_grid(4, 60_000, seed=2)


ONE3 = sphere.constant(3, 1.0)


class TestClosedForms:
    def test_ball_density(self, grid3):
        # ball radius r: density_i = elem_sym(r*I, i) = binom(2,i) r^i
        for r in (1.0, 1.7):
            B = ball(3, r)
            for i in (1, 2):
                np.testing.assert_allclose(
                    elem_sym_batch(B.q_stack(grid3), i), math.comb(2, i) * r**i, atol=1e-10
                )

    def test_ball_functional(self, grid3):
        B = ball(3, 2.0)
        for i in (1, 2):
            val, est = functional_value(ONE3, B, i, grid3)
            want = 4 * math.pi * math.comb(2, i) * 2.0**i
            assert abs(val - want) < 5 * est + 1e-9 * (1 + abs(want))
            assert val == pytest.approx(want, rel=1e-10)  # exact symmetry

    def test_ellipsoid_top_density_is_surface_element(self, grid3):
        # det Q integrates to the surface area; for the unit ball: 4 pi;
        # for ellipsoid(1,1,2) use the prolate closed form
        a, c = 1.0, 2.0
        E = ellipsoid([a, a, c])
        val, est = functional_value(ONE3, E, 2, grid3)
        e = math.sqrt(1 - a * a / (c * c))
        want = 2 * math.pi * a * a * (1 + (c / (a * e)) * math.asin(e))
        assert abs(val - want) < 5 * est + 1e-9
        assert val == pytest.approx(want, rel=1e-4)

    def test_mean_width_type_integral(self, grid3):
        # i = 1 density of ellipsoid integrates h-independently of orientation:
        # compare two rotated copies
        E1 = ellipsoid([1.0, 2.0, 3.0])
        th = 0.7
        R = np.array(
            [
                [math.cos(th), -math.sin(th), 0.0],
                [math.sin(th), math.cos(th), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        from areafun.bodies import SupportBody

        E2 = SupportBody(sphere.compose_orthogonal(E1.h, R))
        v1, e1 = functional_value(ONE3, E1, 1, grid3)
        v2, e2 = functional_value(ONE3, E2, 1, grid3)
        assert v1 == pytest.approx(v2, rel=1e-6)

    def test_weighted_by_linear_vanishes_by_symmetry(self, grid3):
        # odd weight against the even density of a symmetric body
        f = sphere.linear(3, [1.0, 0.0, 0.0])
        val, est = functional_value(f, ellipsoid([1.0, 2.0, 3.0]), 2, grid3)
        assert abs(val) < 5 * est + 1e-8

    def test_dimension_four(self, grid4):
        B = ball(4, 1.5)
        f = sphere.constant(4, 1.0)
        for i in (1, 2, 3):
            val, est = functional_value(f, B, i, grid4)
            want = sphere.sphere_area(4) * math.comb(3, i) * 1.5**i
            assert val == pytest.approx(want, rel=1e-10)

    def test_convention_factor(self):
        assert convention_factor(3, 1) == 2
        assert convention_factor(3, 2) == 1
        assert convention_factor(4, 2) == 3
        with pytest.raises(DomainError):
            convention_factor(3, 3)


class TestMixedForms:
    def test_bridge_to_plain_functional(self, grid3):
        # i copies of K, rest unit balls: binom * D = elem-sym density
        K = ellipsoid([1.0, 1.5, 2.0])
        B = ball(3)
        f = sphere.polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.5})
        for i in (1, 2):
            vm, _ = mixed_area_integral(f, [K] * i + [B] * (2 - i), grid3)
            vf, _ = functional_value(f, K, i, grid3)
            assert math.comb(2, i) * vm == pytest.approx(vf, rel=1e-10)

    def test_mixed_integral_symmetric(self, grid3):
        K = ellipsoid([1.0, 1.5, 2.0])
        L = ellipsoid([2.0, 1.0, 1.0])
        v1, _ = mixed_area_integral(ONE3, [K, L], grid3)
        v2, _ = mixed_area_integral(ONE3, [L, K], grid3)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_ball_volume(self, grid3):
        v, e = volume(ball(3, 1.0), grid3)
        assert v == pytest.approx(4 * math.pi / 3, rel=1e-10)

    def test_ellipsoid_volume(self, grid3):
        v, e = volume(ellipsoid([1.0, 1.5, 0.8]), grid3)
        want = 4 * math.pi / 3 * 1.0 * 1.5 * 0.8
        assert abs(v - want) < 5 * e + 1e-9
        assert v == pytest.approx(want, rel=1e-5)

    def test_mixed_volume_slot_symmetry(self, grid3):
        # symmetry in the first slot against the others is a genuine theorem
        # for the smooth representation — verify numerically
        K = ellipsoid([1.0, 1.5, 2.0])
        L = ball(3, 0.7)
        M = ellipsoid([0.9, 0.9, 1.4])
        v1, e1 = mixed_volume_smooth([K, L, M], grid3)
        v2, e2 = mixed_volume_smooth([L, M, K], grid3)
        v3, e3 = mixed_volume_smooth([M, K, L], grid3)
        assert v1 == pytest.approx(v2, rel=1e-5)
        assert v1 == pytest.approx(v3, rel=1e-5)

    def test_steiner_coefficients(self, grid3):
        # vol(K + tB) = sum_k binom(n,k) t^k V(K[n-k], B[k]); check at t=1, 2
        K = ellipsoid([1.0, 1.2, 0.9])
        B = ball(3)
        vK, _ = volume(K, grid3)
        v1, _ = mixed_volume_smooth([K, K, B], grid3)
        v2, _ = mixed_volume_smooth([K, B, B], grid3)
        vB = 4 * math.pi / 3
        for t in (1.0, 2.0):
            Kt = combine([1.0, t], [K, B])
            vt, et = volume(Kt, grid3)
            want = vK + 3 * t * v1 + 3 * t * t * v2 + t**3 * vB
            assert vt == pytest.approx(want, rel=1e-6)

    def test_wrong_body_count(self, grid3):
        with pytest.raises(DomainError):
            mixed_area_integral(ONE3, [ball(3)], grid3)
        with pytest.raises(DomainError):
            mixed_volume_smooth([ball(3), ball(3)], grid3)


class TestSegment:
    def test_endpoints_match_direct(self, grid3):
        K = ellipsoid([1.0, 1.5, 2.0])
        L = ball(3, 0.8)
        f = sphere.polynomial(3, {(0, 0, 0): 1.0, (0, 0, 2): 0.3})
        vals, ests = functional_segment(f, K, L, 2, [0.0, 0.37, 1.0], grid3)
        v0, _ = functional_value(f, K, 2, grid3)
        v1, _ = functional_value(f, L, 2, grid3)
        assert vals[0] == pytest.approx(v0, rel=1e-12)
        assert vals[2] == pytest.approx(v1, rel=1e-12)
        vm, _ = functional_value(f, combine([0.63, 0.37], [K, L]), 2, grid3)
        assert vals[1] == pytest.approx(vm, rel=1e-10)

    def test_top_order_polynomial_in_t(self, grid3):
        # det of an affine matrix path is a degree-(n-1) polynomial in t,
        # so 3 values determine the segment; check a fourth point
        K = ellipsoid([1.0, 1.5, 2.0])
        L = ball(3, 0.8)
        ts = np.array([0.0, 0.5, 1.0, 0.25])
        vals, _ = functional_segment(ONE3, K, L, 2, ts, grid3)
        # quadratic through first three points, evaluated at 0.25
        c = np.polyfit(ts[:3], vals[:3], 2)
        assert np.polyval(c, 0.25) == pytest.approx(vals[3], rel=1e-9)

    @pytest.mark.parametrize("n, i", [(3, 1), (3, 2), (4, 2), (4, 3)])
    def test_pencil_matches_blended_stacks(self, n, i):
        # one integral of the blended endpoint stacks per t, as the segment
        # was computed before it moved onto the pencil coefficients
        grid = make_grid(n, 4096, seed=5)
        rng = np.random.default_rng(30 + n + i)
        K, L = ellipsoid(rng.uniform(0.6, 1.6, size=n)), ellipsoid(rng.uniform(0.6, 1.6, size=n))
        x1_sq = (2,) + (0,) * (n - 1)
        f = sphere.polynomial(n, {(0,) * n: 1.0, x1_sq: 0.4})
        ts = np.linspace(0.0, 1.0, 11)
        vals, ests = functional_segment(f, K, L, i, ts, grid)
        for t, v, e in zip(ts, vals, ests):
            def integral(g, t=t):
                Q = (1.0 - t) * K.q_stack(g) + t * L.q_stack(g)
                return g.weighted_sum(f.value(g.nodes) * elem_sym_batch(Q, i))

            want, want_est = grid.paired(integral)
            assert abs(v - want) <= 1e-13 * abs(want), (t, v, want)
            assert e == pytest.approx(want_est, rel=1e-4, abs=1e-12 * abs(want))

    def test_walks_each_level_once(self, grid3, monkeypatch):
        walks = count_walks(monkeypatch)
        K, L = ellipsoid([1.0, 1.5, 2.0]), ball(3, 0.8)
        functional_segment(ONE3, K, L, 2, np.linspace(0.0, 1.0, 21), grid3)
        assert walks == [len(grid3), len(grid3.coarse())]


def count_walks(monkeypatch):
    """The node counts of the grids that QuadratureGrid.walk_blocks walks, in
    call order, from here on."""
    walks = []
    walk = QuadratureGrid.walk_blocks

    def counting(self, per_block, rows, least=False):
        walks.append(len(self))
        return walk(self, per_block, rows, least)

    monkeypatch.setattr(QuadratureGrid, "walk_blocks", counting)
    return walks


class TestDifference:
    def test_equals_subtraction_on_shared_grid(self, grid3):
        K = ellipsoid([1.0, 1.5, 2.0])
        L = ball(3, 0.9)
        f = sphere.polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.4})
        diff, _ = functional_difference(f, K, L, 2, grid3)
        vk, _ = functional_value(f, K, 2, grid3)
        vl, _ = functional_value(f, L, 2, grid3)
        assert diff == pytest.approx(vk - vl, abs=1e-10 * (1 + abs(vk)))

    def test_estimate_scales_with_gap_on_mc(self):
        # two nearby bodies on a Monte Carlo grid: the difference estimate
        # must be far below the individual-value estimates
        grid = sphere.make_grid(4, 20000, seed=3)
        K = ellipsoid([1.0, 1.1, 0.9, 1.0])
        L = combine([1.0, 1.0], [K, ball(4, 0.01)])
        f = sphere.polynomial(4, {(0, 0, 0, 0): 1.0, (0, 2, 0, 0): 0.3})
        diff, est_diff = functional_difference(f, K, L, 2, grid)
        _, est_k = functional_value(f, K, 2, grid)
        assert diff < 0  # adding a ball strictly raises every density value
        assert est_diff < 0.1 * est_k + 1e-4


def fd_derivatives(f, body, phi, i, grid, h=1e-4):
    """Centred FD oracle for the first and second s-derivatives of F."""
    vals = {}
    for s in (-h, 0.0, h):
        vals[s], _ = functional_value(f, perturb(body, phi, s), i, grid)
    d1 = (vals[h] - vals[-h]) / (2 * h)
    d2 = (vals[h] - 2 * vals[0.0] + vals[-h]) / (h * h)
    return d1, d2


class TestVariations:
    def test_first_variation_matches_fd(self, grid3):
        K = ellipsoid([1.0, 1.3, 0.9])
        f = sphere.polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.4})
        phi = sphere.polynomial(3, {(0, 0, 2): 1.0, (1, 1, 0): -0.5})
        for i in (1, 2):
            want = fd_derivatives(f, K, phi, i, grid3)[0]
            got, est = first_variation(f, K, phi, i, grid3)
            assert got == pytest.approx(want, rel=1e-6)

    def test_first_variation_forms_agree(self, grid3):
        K = ellipsoid([1.0, 1.3, 0.9])
        f = sphere.polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.4})
        phi = sphere.bump(3, np.array([0.0, 0.0, 1.0]), 2.0)
        for i in (1, 2):
            v1, e1 = first_variation(f, K, phi, i, grid3, form="direct")
            v2, e2 = first_variation(f, K, phi, i, grid3, form="adjoint")
            assert v1 == pytest.approx(v2, rel=1e-4, abs=1e-6)

    def test_second_variation_matches_fd(self, grid3):
        K = ellipsoid([1.0, 1.3, 0.9])
        f = sphere.polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.4})
        phi = sphere.polynomial(3, {(0, 0, 2): 1.0, (1, 1, 0): -0.5})
        for i in (1, 2):
            _, want = fd_derivatives(f, K, phi, i, grid3)
            got, est = second_variation(f, K, phi, i, grid3)
            # abs floor: FD second differences carry ~|F| eps / h^2 of noise
            assert got == pytest.approx(want, rel=1e-5, abs=2e-6)

    def test_second_variation_order_one_vanishes(self, grid3):
        # order-1 density is linear in the support function
        K = ellipsoid([1.0, 1.3, 0.9])
        f = sphere.polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.4})
        phi = sphere.polynomial(3, {(0, 0, 2): 1.0})
        got, est = second_variation(f, K, phi, 1, grid3)
        assert abs(got) < 1e-12

    def test_second_variation_three_forms_agree(self, grid3):
        K = ellipsoid([1.0, 1.2, 1.1])
        f = sphere.polynomial(3, {(0, 0, 0): 2.0, (2, 0, 0): 0.3, (0, 1, 1): 0.2})
        phi = sphere.bump(3, np.array([0.0, 1.0, 0.0]), 3.0)
        vq, _ = second_variation(f, K, phi, 2, grid3, form="quadratic")
        va, _ = second_variation(f, K, phi, 2, grid3, form="adjoint")
        vg, _ = second_variation(f, K, phi, 2, grid3, form="gradient")
        assert vq == pytest.approx(va, rel=2e-4, abs=1e-6)
        assert vq == pytest.approx(vg, rel=2e-4, abs=1e-6)

    def test_unknown_form_rejected(self, grid3):
        with pytest.raises(DomainError):
            first_variation(ONE3, ball(3), ONE3, 1, grid3, form="sideways")
        with pytest.raises(DomainError):
            second_variation(ONE3, ball(3), ONE3, 1, grid3, form="sideways")

    @pytest.mark.parametrize(
        "kind, form, slot",
        [
            ("first", "direct", "phi"),
            ("first", "adjoint", "weight"),
            ("second", "quadratic", "phi"),
            ("second", "adjoint", "weight"),
            ("second", "adjoint", "phi"),
            ("second", "gradient", "weight"),
        ],
    )
    def test_nonfinite_form_names_global_node(self, kind, form, slot):
        grid = make_grid(3, sphere.NODE_BLOCK + 100)
        bad = sphere.NODE_BLOCK + 37  # in the second block

        def jet(Y, order):
            H = np.zeros((len(Y), 3, 3))
            H[np.abs(Y - grid.nodes[bad]).max(axis=1) < 1e-12, 0, 1] = np.nan
            return (np.ones(len(Y)), np.zeros_like(Y), H)[: order + 1]

        fs = {"weight": ONE3, "phi": sphere.constant(3, 0.5)}
        fs[slot] = sphere.SphericalFunction(3, jet, "nan-late")
        variation = {"first": first_variation, "second": second_variation}[kind]
        with pytest.raises(EvaluationError, match=f"nan-late at node {bad}: "):
            variation(fs["weight"], ball(3), fs["phi"], 2, grid, form=form)


class TestPencil:
    """The counterexample search's integrals: F(K + s phi) - F(K) read from
    the pencil coefficients of one cap sweep."""

    @pytest.mark.parametrize("n, i", [(3, 2), (4, 2), (4, 3)])
    def test_matches_first_variation_and_difference(self, n, i):
        rng = np.random.default_rng(90 + 10 * n + i)
        u0 = rng.normal(size=n)
        u0 /= np.linalg.norm(u0)
        cap = cap_grid(u0, 0.9, 48, 64 if n == 3 else 160)
        K = ellipsoid(rng.uniform(0.7, 1.5, size=n))
        x1_sq, x1_x2 = (2,) + (0,) * (n - 1), (1, 1) + (0,) * (n - 2)
        f = sphere.polynomial(n, {(0,) * n: 1.0, x1_sq: 0.4, x1_x2: -0.3})
        phi = sphere.bump(n, u0, 10.0)
        def pencil(g):
            return _sweep(f, K, phi, i, g, ("pencil",))[0]

        for g in (cap, cap.coarse()):
            I = pencil(g)
            assert I.shape == (i,)
            assert I[0] == first_variation(f, K, phi, i, g, form="direct")[0]
        fine = pencil(cap)
        for s in (1e-3, 0.02, 0.1):
            drop, _ = functional_difference(f, K, perturb(K, phi, s), i, cap)
            got = fine @ s ** np.arange(1, i + 1)
            assert abs(got + drop) <= 1e-10 * abs(drop), (s, got, drop)


class TestConcavityCriterion:
    def test_ball_dilation_is_exactly_tight(self, grid3):
        # K_s = (1+s) B: F = binom(2,i) (1+s)^i area, so F^{1/i} is linear in s
        # and the criterion is exactly zero
        B = ball(3)
        phi = sphere.constant(3, 1.0)
        for i in (1, 2):
            rep = concavity_criterion(ONE3, B, phi, i, grid3)
            assert abs(rep.value) <= rep.tolerance
            assert rep.consistent_with_concavity

    def test_ball_to_ellipsoid_consistent(self, grid3):
        # constant weight = genuine quermassintegral: power concavity holds
        B = ball(3)
        E = ellipsoid([1.0, 1.4, 0.8])
        phi = sphere.combination([1.0, -1.0], [E.h, B.h])
        for i in (1, 2):
            rep = concavity_criterion(ONE3, B, phi, i, grid3)
            assert rep.consistent_with_concavity
            # and strictly negative here (not just within tolerance)
            if i == 2:
                assert rep.value < 0

    def test_report_fields(self, grid3):
        rep = concavity_criterion(ONE3, ball(3), sphere.constant(3, 1.0), 2, grid3)
        assert rep.order == 2
        F, _ = functional_value(ONE3, ball(3), 2, grid3)
        assert rep.functional == pytest.approx(F)
        assert rep.value == pytest.approx(
            rep.functional * rep.second - 0.5 * rep.first**2, rel=1e-12
        )

    @pytest.mark.parametrize("form", ["quadratic", "adjoint", "gradient"])
    def test_rows_equal_the_single_row_calls(self, grid3, form):
        # the three rows share one sweep per grid, yet each is bit-equal to
        # its own call
        K = ellipsoid([1.0, 1.3, 0.9])
        f = sphere.polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.4})
        phi = sphere.polynomial(3, {(0, 0, 2): 1.0, (1, 1, 0): -0.5})
        rep = concavity_criterion(f, K, phi, 2, grid3, form=form)
        F, eF = functional_value(f, K, 2, grid3)
        dF, edF = first_variation(f, K, phi, 2, grid3)
        d2F, ed2F = second_variation(f, K, phi, 2, grid3, form=form)
        assert (rep.functional, rep.first, rep.second) == (F, dF, d2F)
        value, tol = power_concavity(2, F, eF, dF, edF, d2F, ed2F)
        assert (rep.value, rep.tolerance) == (value, tol)

    def test_walks_each_level_once(self, grid3, monkeypatch):
        walks = count_walks(monkeypatch)
        concavity_criterion(ONE3, ball(3), sphere.constant(3, 1.0), 2, grid3)
        assert walks == [len(grid3), len(grid3.coarse())]


class TestSweep:
    """The one node sweep behind every one-body integral."""

    def test_forms_the_cofactor_once_per_block(self, monkeypatch):
        # the direct and adjoint first variations of the exchange check
        # contract one cofactor(Q_K, i) per node block
        grid = make_grid(3, sphere.NODE_BLOCK + 100)
        f = sphere.polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.4})
        phi = sphere.polynomial(3, {(0, 0, 2): 1.0})
        calls = []
        cofactor = functionals.cofactor_batch
        monkeypatch.setattr(
            functionals, "cofactor_batch", lambda Q, i: calls.append(len(Q)) or cofactor(Q, i)
        )
        ibp_symmetry_residual(f, phi, ellipsoid([1.0, 1.3, 0.9]), 2, grid)
        levels = [grid, grid.coarse(), grid.coarse().coarse()]
        assert calls == [b.stop - b.start for g in levels for b in node_blocks(len(g))]

    @pytest.mark.parametrize("kind, n", [("panel", 3), ("panel", 4), ("cap", 3), ("cap", 4)])
    def test_streamed_sums_match_the_full_rows(self, monkeypatch, kind, n):
        # each row, summed block by block as the sweep streams it, equals to
        # the bit weighted_sum of that row built in full, and the least
        # certified minimum is the least of the full trailing row
        u0 = np.eye(n)[-1]
        if kind == "panel":
            br = np.linspace(-0.3, 0.3, 21 if n == 3 else 5)
            grid = sphere.panel_grid(u0, sphere.tangent_frame(u0), [br] * (n - 1))
        else:
            grid = cap_grid(u0, 0.7, 40 if n == 3 else 20, 256 if n == 3 else 640)
        f = sphere.polynomial(n, {(0,) * n: 1.0, (2,) + (0,) * (n - 1): 0.4})
        K = ellipsoid(np.linspace(0.8, 1.4, n))
        blocks, walk = [], QuadratureGrid.walk_blocks

        def keeping(self, per_block, rows, least=False):
            return walk(self, lambda b: blocks.append(np.array(per_block(b))) or blocks[-1], rows, least)

        monkeypatch.setattr(QuadratureGrid, "walk_blocks", keeping)
        rows = tuple(functionals._INTEGRANDS)
        sums, worst = functionals._sweep(f, K, sphere.bump(n, u0, 10.0), 2, grid, rows, margin=1e-6)
        full = np.hstack(blocks)
        assert len(blocks) > 1 and full.shape == (len(rows) + 1 + 1, len(grid))
        assert sums.tobytes() == grid.weighted_sum(full[:-1]).tobytes()
        assert worst == np.min(full[-1])

    def test_nonfinite_value_names_global_node(self):
        grid = make_grid(3, sphere.NODE_BLOCK + 100)
        bad = sphere.NODE_BLOCK + 37  # in the second block
        vals = np.ones(len(grid))
        vals[bad] = np.nan
        for total in (
            lambda: grid.weighted_sum(vals),
            lambda: grid.walk_blocks(lambda b: vals[None, b], 1),
        ):
            with pytest.raises(EvaluationError, match=f"not finite at node {bad}: "):
                total()

    def test_gradient_alone_asks_phi_for_order_one(self, grid3):
        # on its own the gradient form never asks phi for its Hessian
        orders = []
        phi = sphere.polynomial(3, {(0, 0, 2): 1.0, (1, 1, 0): -0.5})
        spy = sphere.SphericalFunction(
            3, lambda Y, order: orders.append(order) or phi._jet(Y, order)
        )
        f = sphere.polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.4})
        K = ellipsoid([1.0, 1.3, 0.9])
        got = second_variation(f, K, spy, 2, grid3, form="gradient")
        assert max(orders) == 1
        assert got == second_variation(f, K, phi, 2, grid3, form="gradient")
