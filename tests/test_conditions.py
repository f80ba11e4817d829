"""Eigenvalue-sum condition: verdicts, equivalent forms, implication structure."""

import itertools
import math

import numpy as np
import pytest

from areafun import sphere
from areafun.bodies import ellipsoid
from areafun.conditions import (
    EigenSumScan,
    _diagonal_form_values,
    check_mi,
    check_pointwise_ii25,
    downward_closed,
    eigen_sum,
    i_convexity_check,
    lemma_equiv_bruteforce,
    mi_monotone_in_i,
    min_subset_sum,
)
from areafun.errors import DomainError
from areafun.sphere import make_grid
from areafun.symfun import deleted_elem_sym

RNG = np.random.default_rng(311)


@pytest.fixture(scope="module")
def grid3():
    return make_grid(3, 2048)


def saddle(c):
    """f = 1 + c (x1^2 - x2^2) on S^2.

    Worst point is +-e1 where the Hessian form is diag(1-3c, 1-c): the
    order-2 condition (min eigenvalue) breaks at c = 1/3 with margin 1-3c,
    while the trace 2 - 4c stays positive until c = 1/2.  The window
    c in (1/3, 1/2) separates the two orders decisively.
    """
    return sphere.polynomial(
        3, {(0, 0, 0): 1.0, (2, 0, 0): c, (0, 2, 0): -c}, label=f"saddle({c:g})"
    )


class TestCheckMi:
    def test_constant_satisfied_all_orders(self, grid3):
        f = sphere.constant(3, 1.0)
        for i in (1, 2):
            rep = check_mi(f, i, grid3)
            assert rep.verdict == "satisfied"
            assert rep.worst_value == pytest.approx(2.0 if i == 1 else 1.0, abs=1e-9)

    def test_support_function_satisfied(self, grid3):
        rep = check_mi(ellipsoid([1.0, 2.0, 0.7]).h, 2, grid3)
        assert rep.verdict == "satisfied"

    def test_saddle_threshold(self, grid3):
        rep_ok = check_mi(saddle(0.3), 2, grid3)
        assert rep_ok.verdict == "satisfied"
        assert rep_ok.worst_value == pytest.approx(1.0 - 0.9, abs=1e-4)
        rep_bad = check_mi(saddle(0.45), 2, grid3)
        assert rep_bad.verdict == "violated"
        assert rep_bad.worst_value == pytest.approx(1.0 - 1.35, abs=1e-4)
        # trace 2 - 4c stays positive below c = 1/2: order 1 survives
        rep1 = check_mi(saddle(0.45), 1, grid3)
        assert rep1.verdict == "satisfied"
        assert rep1.worst_value == pytest.approx(2.0 - 1.8, abs=1e-4)

    def test_refinement_sharpens(self, grid3):
        # the exact minimum 1 - 3c sits at +-e1; refinement should land on it
        # even from a nearby worst grid node
        rep = check_mi(saddle(0.45), 2, grid3, refine=True)
        assert rep.worst_value <= -0.35 + 1e-6
        raw = check_mi(saddle(0.45), 2, grid3, refine=False)
        assert rep.worst_value <= raw.worst_value + 1e-12

    def test_linear_part_invariance(self, grid3):
        f = saddle(0.3)
        g = sphere.combination([1.0, 1.0], [f, sphere.linear(3, [0.2, -0.4, 0.1])])
        r1 = check_mi(f, 2, grid3)
        r2 = check_mi(g, 2, grid3)
        assert r1.worst_value == pytest.approx(r2.worst_value, abs=1e-8)

    def test_rotation_invariance(self, grid3):
        f = saddle(0.7)
        th = 0.9
        R = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, math.cos(th), -math.sin(th)],
                [0.0, math.sin(th), math.cos(th)],
            ]
        )
        r1 = check_mi(f, 2, grid3)
        r2 = check_mi(sphere.compose_orthogonal(f, R), 2, grid3)
        assert r1.worst_value == pytest.approx(r2.worst_value, abs=1e-8)

    def test_verdict_tolerance_invariant(self, grid3):
        rep = check_mi(saddle(0.8), 2, grid3)
        assert (rep.verdict == "violated") == (rep.worst_value < -rep.tolerance)

    def test_json_roundtrip(self, grid3):
        import json

        rep = check_mi(saddle(0.2), 2, grid3)
        d = json.loads(rep.to_json())
        assert d["verdict"] == rep.verdict
        assert d["order"] == 2

    def test_fd_function_uses_looser_tol(self, grid3):
        f = sphere.from_callable(3, lambda U: 1.0 + 0.0 * U[:, 0])
        rep = check_mi(f, 2, grid3, refine=False)
        assert rep.tolerance == pytest.approx(1e-4)
        assert rep.verdict == "satisfied"

    def test_bad_order(self, grid3):
        with pytest.raises(DomainError):
            check_mi(sphere.constant(3, 1.0), 3, grid3)


class TestMonotoneInOrder:
    def test_constant_all_satisfied(self, grid3):
        reps = mi_monotone_in_i(sphere.constant(3, 1.0), grid3)
        assert [r.verdict for r in reps] == ["satisfied", "satisfied"]
        assert downward_closed(reps)

    def test_threshold_function(self, grid3):
        # violates order 2, satisfies order 1 — the canonical threshold shape
        reps = mi_monotone_in_i(saddle(0.45), grid3)
        assert reps[0].verdict == "satisfied"
        assert reps[1].verdict == "violated"
        assert downward_closed(reps)

    def test_downward_closure_over_random_polys(self, grid3):
        # in R^3 closure is automatic pointwise; exercise the verdict chain
        rng = np.random.default_rng(5)
        for _ in range(10):
            terms = {}
            for e in itertools.product(range(3), repeat=3):
                if sum(e) <= 2 and rng.random() < 0.6:
                    terms[e] = rng.normal() * 0.4
            terms[(0, 0, 0)] = terms.get((0, 0, 0), 0.0) + 1.0
            f = sphere.polynomial(3, terms)
            assert downward_closed(mi_monotone_in_i(f, grid3, refine=False))

    def test_downward_closure_n4(self):
        grid4 = make_grid(4, 4096, seed=1)
        f = sphere.polynomial(
            4, {(0, 0, 0, 0): 1.0, (2, 0, 0, 0): 0.9, (0, 2, 0, 0): -0.9}
        )
        reps = mi_monotone_in_i(f, grid4, refine=False)
        assert len(reps) == 3
        assert downward_closed(reps)

    def test_detects_broken_chain(self, grid3):
        reps = mi_monotone_in_i(saddle(0.45), grid3)
        assert [r.verdict for r in reps] == ["satisfied", "violated"]
        flipped = list(reversed(reps))
        for k, r in enumerate(flipped):
            r.order = k + 1
        assert not downward_closed(flipped)


class TestEigenSumScan:
    def test_scan_matches_pointwise(self, grid3):
        f = saddle(0.5)
        scan = EigenSumScan(f, grid3)
        for i in (1, 2):
            s = scan.sums(i)
            for k in (0, 100, 777):
                assert s[k] == pytest.approx(eigen_sum(f, grid3.nodes[k], i), abs=1e-10)

    def test_shared_scan_consistent(self, grid3):
        f = saddle(0.5)
        scan = EigenSumScan(f, grid3)
        r1 = check_mi(f, 2, grid3, scan=scan, refine=False)
        r2 = check_mi(f, 2, grid3, refine=False)
        assert r1.worst_value == pytest.approx(r2.worst_value, abs=0.0)


class TestLemmaBruteforce:
    def test_all_ones(self):
        assert lemma_equiv_bruteforce(np.ones(4), 2) == (True, True)

    def test_documented_negative_case(self):
        # mu = (-1, 0.4, 0.4), order 2: minimal pair sum -0.6 < 0
        lhs, rhs = lemma_equiv_bruteforce(np.array([-1.0, 0.4, 0.4]), 2)
        assert (lhs, rhs) == (False, False)

    def test_boundary_orders(self):
        mu = np.array([0.5, -0.2, 0.1])
        # order 1: single subset = full sum = 0.4 >= 0
        assert lemma_equiv_bruteforce(mu, 1) == (True, True)
        # order N: singleton subsets — min entry negative
        assert lemma_equiv_bruteforce(mu, 3) == (False, False)

    def test_agreement_on_random_inputs(self):
        rng = np.random.default_rng(17)
        agree = 0
        trials = 500
        for _ in range(trials):
            N = int(rng.integers(2, 7))
            i = int(rng.integers(1, N + 1))
            mu = rng.normal(size=N)
            lhs, rhs = lemma_equiv_bruteforce(mu, i, trials=200, seed=int(rng.integers(1 << 30)))
            agree += lhs == rhs
        assert agree == trials

    def test_diagonal_form_matches_row_loop(self):
        rng = np.random.default_rng(5)
        for N in range(1, 7):
            mu = rng.normal(size=N)
            lams = rng.uniform(0.0, 2.0, size=(50, N))
            for i in range(1, N + 1):
                want = [mu @ deleted_elem_sym(lam, i - 1) for lam in lams]
                np.testing.assert_allclose(
                    _diagonal_form_values(mu, i, lams), want, rtol=1e-13, atol=1e-13
                )

    def test_size_limit(self):
        with pytest.raises(DomainError):
            lemma_equiv_bruteforce(np.ones(9), 2)

    def test_min_subset_sum(self):
        assert min_subset_sum([3.0, -1.0, 0.5], 2) == pytest.approx(-0.5)


class TestPointwise:
    def test_psd_point_satisfied(self, grid3):
        f = sphere.constant(3, 1.0)
        rep = check_pointwise_ii25(f, np.array([0.0, 0.0, 1.0]), 2, trials=50)
        assert rep.ok and rep.agree

    def test_violating_point_with_witness(self):
        # eigenvalues (1+2c, 1-2c) at the pole with c = 0.8: order-2 subset
        # sum is the min eigenvalue -0.6 < 0
        f = saddle(0.8)
        rep = check_pointwise_ii25(f, np.array([0.0, 0.0, 1.0]), 2, trials=50)
        assert rep.verdict == "violated"
        assert rep.subset_verdict == "violated"
        assert rep.agree
        assert rep.witness is not None
        # the witness really does produce a negative trace form
        from areafun.symfun import trace_pair
        from areafun.sphere import q_matrix

        Q = q_matrix(f, np.array([0.0, 0.0, 1.0]))
        assert trace_pair(rep.witness, Q, 2) < 0

    def test_agreement_over_random_functions(self, grid3):
        rng = np.random.default_rng(23)
        us = rng.normal(size=(20, 3))
        us /= np.linalg.norm(us, axis=1)[:, None]
        hits = 0
        for k in range(20):
            c = rng.uniform(-1.2, 1.2)
            f = saddle(c)
            rep = check_pointwise_ii25(f, us[k], 2, trials=100, seed=k)
            hits += rep.agree
        assert hits == 20

    def test_dimension_four_agreement(self):
        rng = np.random.default_rng(31)
        f = sphere.polynomial(
            4, {(0, 0, 0, 0): 1.0, (2, 0, 0, 0): 0.9, (0, 0, 2, 0): -0.9}
        )
        for k in range(10):
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            for i in (1, 2, 3):
                rep = check_pointwise_ii25(f, u, i, trials=100, seed=k)
                assert rep.agree


class TestIConvexity:
    def test_support_function_convex(self, grid3):
        rep = i_convexity_check(ellipsoid([1.0, 1.5, 0.8]).h, 2, grid3)
        assert rep.verdict == "satisfied"
        assert len(rep.margins) == 2

    def test_implication_to_eigensum(self, grid3):
        # order-i convexity implies the order-i condition on every sample
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(30):
            c = rng.uniform(-1.0, 1.0)
            f = saddle(c)
            scan = EigenSumScan(f, grid3)
            for i in (1, 2):
                conv = i_convexity_check(f, i, grid3, scan=scan)
                if conv.verdict == "satisfied":
                    mi = check_mi(f, i, grid3, scan=scan, refine=False)
                    assert mi.ok
                    checked += 1
        assert checked > 0

    def test_one_way_only(self, grid3):
        # the saddle at c = 0.45 keeps the trace positive everywhere (order-1
        # condition holds) but its spectrum at e1, diag(1-3c, 1-c), has a
        # negative product: order-2 convexity fails
        f = saddle(0.45)
        scan = EigenSumScan(f, grid3)
        mi = check_mi(f, 1, grid3, scan=scan, refine=False)
        conv = i_convexity_check(f, 1, grid3, scan=scan)
        # order-1 convexity IS the order-1 condition (both are the trace)
        assert mi.ok == conv.ok
        # but at order 2 convexity fails while the order-1 condition holds
        conv2 = i_convexity_check(f, 2, grid3, scan=scan)
        assert mi.ok and not conv2.ok
        # at e1 the product is (1-3c)(1-c) = -0.1925; the global min of e_2
        # is slightly lower, at a point between e1 and the pole
        assert -0.25 < conv2.worst_value <= (1 - 1.35) * (1 - 0.45) + 1e-3
