"""Eigenvalue-sum condition: verdicts, the refinement, the diagonal reduction."""

import math
import tracemalloc

import numpy as np
import pytest

from areafun import sphere
from areafun.bodies import certify_c2plus, ellipsoid
from areafun.conditions import (
    EigenSumScan,
    _diagonal_form_values,
    _nelder_mead,
    check_mi,
    eigen_sum,
    lemma_equiv_bruteforce,
)
from areafun.errors import DomainError
from areafun.experiments import corpus
from areafun.sphere import make_grid, sphere_area, tangent_frame
from areafun.symfun import deleted_elem_sym


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

    def test_bad_order(self, grid3):
        with pytest.raises(DomainError):
            check_mi(sphere.constant(3, 1.0), 3, grid3)


class TestEigenSumScan:
    def test_scan_matches_pointwise(self):
        # the oracle is the whole-stack route: every node's forms solved at
        # once and cumulated; the scan's least and node equal its min and
        # argmin node bit for bit, for every order, over several node blocks
        m = 2 * sphere.NODE_BLOCK + 100
        weights = [saddle(0.5), sphere.polynomial(4, {(0, 0, 0, 0): 1.0, (2, 0, 0, 0): 0.6,
                                                      (0, 0, 1, 1): -0.5})]
        for f in weights:
            grid = make_grid(f.n, m)
            scan = EigenSumScan(f, grid)
            sums = np.cumsum(np.linalg.eigvalsh(sphere.q_batch(f, grid.nodes)), axis=1)
            for i in range(1, f.n):
                s = sums[:, f.n - i - 1]
                k = int(np.argmin(s))
                value, node = scan.worst(i)
                assert value == s[k] and np.array_equal(node, grid.nodes[k]), (f.n, i)
                for k in (0, 100, 777):
                    assert s[k] == pytest.approx(eigen_sum(f, grid.nodes[k], i), abs=1e-10)

    def test_shared_scan_consistent(self, grid3):
        f = saddle(0.5)
        scan = EigenSumScan(f, grid3)
        r1 = check_mi(f, 2, grid3, scan=scan, refine=False)
        r2 = check_mi(f, 2, grid3, refine=False)
        assert r1.worst_value == pytest.approx(r2.worst_value, abs=0.0)

    def test_scan_of_another_weight_or_grid_rejected(self, grid3):
        # saddle(0.48) violates the order-2 condition; the constant's scan
        # would report it satisfied
        f = saddle(0.48)
        for scan in (EigenSumScan(sphere.constant(3, 1.0), grid3),
                     EigenSumScan(f, make_grid(3, len(grid3)))):
            with pytest.raises(DomainError, match="another weight or grid"):
                check_mi(f, 2, grid3, scan=scan, refine=False)
        assert check_mi(f, 2, grid3, refine=False).verdict == "violated"

    @pytest.mark.parametrize("call", ["check_mi", "certify_c2plus"])
    def test_memory_follows_the_node_block(self, call):
        # on an n=4 grid of 2^19 nodes, built before tracing, one whole-grid
        # stack of forms alone would take 38 MB
        grid = make_grid(4, 1 << 19)
        tracemalloc.start()
        try:
            if call == "check_mi":
                f = sphere.polynomial(4, {(0, 0, 0, 0): 1.0, (2, 0, 0, 0): 0.6})
                check_mi(f, 2, grid)
            else:
                certify_c2plus(ellipsoid([1.0, 1.2, 0.8, 1.1]), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, peak


@pytest.fixture(scope="module")
def scipy_minimize():
    return pytest.importorskip("scipy.optimize").minimize


def _logged(fun):
    """fun together with the list of points it is called at."""
    calls = []

    def wrapped(x):
        calls.append(np.array(x, copy=True))
        return fun(x)

    return wrapped, calls


def _saddle_objective():
    """eigen_sum of corpus saddle3-0.42 at order 2 on the chart of
    _refine_worst around its worst node, with check_mi's spacing."""
    f = next(e.f for e in corpus() if e.label == "saddle3-0.42")
    grid = make_grid(3, 2048)
    _, u0 = EigenSumScan(f, grid).worst(2)
    E = tangent_frame(u0)

    def objective(x):
        v = u0 + E @ x
        return eigen_sum(f, v / np.linalg.norm(v), 2)

    h = math.sqrt(sphere_area(3) / len(grid))
    return objective, np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])


SIMPLEX2 = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
NELDER_MEAD_CASES = {
    # reflection, expansion and both contractions; stops at maxiter
    "quadratic": (lambda x: (x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.2) ** 2, SIMPLEX2),
    "rosenbrock": (
        lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2,
        np.array([[-1.2, 1.0], [-1.1, 1.0], [-1.2, 1.1]]),
    ),
    "anisotropic-3d": (
        lambda x: float(np.sum((x - [0.1, 0.2, 0.3]) ** 2 * [1.0, 10.0, 100.0])),
        np.vstack([np.zeros(3), 0.05 * np.eye(3)]),
    ),
    # a failed outside contraction, then shrink
    "ripple": (
        lambda x: x[0] ** 2 + x[1] ** 2 + 0.3 * math.cos(40 * x[0]) * math.cos(40 * x[1]),
        SIMPLEX2 + 0.1,
    ),
    # equal values: failed inside contractions and shrinks until xatol is met
    "constant": (lambda x: 1.0, SIMPLEX2),
    "plateaus": (lambda x: math.floor(10.0 * (x[0] ** 2 + x[1] ** 2)), SIMPLEX2 + 0.2),
    # one variable, converges well before maxiter
    "line": (lambda x: (x[0] - 1.0) ** 2, np.array([[0.0], [0.5]])),
}


class TestNelderMead:
    """_nelder_mead against scipy's Nelder-Mead at check_mi's options: the
    same points are evaluated in the same order and the result is bit-identical."""

    OPTIONS = {"maxiter": 50, "xatol": 1e-9, "fatol": 1e-12}

    def _compare(self, minimize, fun, simplex):
        ours, our_calls = _logged(fun)
        x, fx = _nelder_mead(ours, simplex, **self.OPTIONS)
        theirs, their_calls = _logged(fun)
        res = minimize(
            theirs,
            np.zeros(simplex.shape[1]),
            method="Nelder-Mead",
            options={"initial_simplex": simplex, **self.OPTIONS},
        )
        assert len(our_calls) == len(their_calls) == res.nfev
        for a, b in zip(our_calls, their_calls):
            assert np.array_equal(a, b)
        assert np.array_equal(x, res.x)
        assert fx == res.fun
        return res

    @pytest.mark.parametrize("name", sorted(NELDER_MEAD_CASES))
    def test_matches_scipy(self, scipy_minimize, name):
        fun, simplex = NELDER_MEAD_CASES[name]
        self._compare(scipy_minimize, fun, simplex)

    def test_matches_scipy_on_corpus_saddle(self, scipy_minimize):
        objective, simplex = _saddle_objective()
        res = self._compare(scipy_minimize, objective, simplex)
        assert res.fun < objective(np.zeros(2))

    def test_stops_at_maxiter_or_tolerance(self, scipy_minimize):
        ran_out = self._compare(scipy_minimize, *NELDER_MEAD_CASES["rosenbrock"])
        assert ran_out.nit == self.OPTIONS["maxiter"]
        converged = self._compare(scipy_minimize, *NELDER_MEAD_CASES["line"])
        assert converged.nit < self.OPTIONS["maxiter"]
        assert converged.x[0] == pytest.approx(1.0, abs=1e-8)


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
