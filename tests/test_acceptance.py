"""Acceptance suite: eleven end-to-end checks, one test (and one printed
pass/fail line) per criterion.

Populations, tolerances, and runtime budgets are pinned here; the unit-test
modules cover the same machinery at finer grain.  Run with ``pytest -v`` for
the per-criterion pass/fail lines; add ``-s`` to see the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from areafun.bodies import ball, ellipsoid, realize_q
from areafun.conditions import check_mi, lemma_equiv_bruteforce
from areafun.experiments import (
    bm_segment_test,
    bm_violation_hunt,
    linearity_probe,
    nested_pairs,
    theorem_roundtrip,
)
from areafun.functionals import concavity_criterion
from areafun.identities import ibp_symmetry_residual
from areafun.mollify import mollify, mollify_preserves_monotone, sup_distance
from areafun.reduction import (
    cylinder_lemma_residual,
    dimension_reduction_limit,
    flattened_ellipse,
    segment_factor_identity,
)
from areafun.sphere import constant, polynomial, q_matrix
from areafun.symfun import (
    cofactor,
    contract2,
    elem_sym,
    elem_sym_kronecker,
    trace_pair,
)


def _line(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rand_sym(rng, N, scale=1.0):
    A = rng.normal(size=(N, N)) * scale
    return 0.5 * (A + A.T)


def _random_poly(n, rng, degree=3, scale=0.3):
    terms = {}
    for e in np.ndindex(*([degree + 1] * n)):
        if 0 < sum(e) <= degree and rng.random() < 0.4:
            terms[tuple(int(x) for x in e)] = float(rng.normal() * scale)
    terms[(0,) * n] = 1.0
    return polynomial(n, terms)


def test_criterion_01_symmetric_function_oracles():
    """Spectral evaluator vs index-expansion oracle; derivative tensors vs
    finite differences; first- and second-order homogeneity relations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    # two independent evaluations of the same elementary symmetric function
    worst_rel = 0.0
    for _ in range(1000):
        N = int(rng.integers(2, 7))
        A = _rand_sym(rng, N)
        i = int(rng.integers(1, N + 1))
        a = elem_sym(A, i)
        b = elem_sym_kronecker(A, i)
        scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(A)))) ** i)
        worst_rel = max(worst_rel, abs(a - b) / scale)
    assert worst_rel <= 1e-10

    # first and second derivative formulas vs central differences
    worst_fd = 0.0
    for _ in range(25):
        N = int(rng.integers(2, 6))
        A = _rand_sym(rng, N)
        i = int(rng.integers(1, N + 1))
        C = cofactor(A, i)
        h = 1e-6
        for j in range(N):
            for k in range(N):
                E = np.zeros((N, N))
                E[j, k] = h
                Es = 0.5 * (E + E.T)
                fd = (elem_sym(A + Es, i) - elem_sym(A - Es, i)) / (2 * h)
                worst_fd = max(worst_fd, abs(C[j, k] - fd))
        W = _rand_sym(rng, N)
        h = 1e-4
        fd2 = (elem_sym(A + h * W, i) - 2 * elem_sym(A, i) + elem_sym(A - h * W, i)) / (h * h)
        second = float(np.sum(contract2(A, i, W) * W))
        worst_fd = max(worst_fd, abs(second - fd2))
    assert worst_fd <= 1e-6

    # homogeneity: degree i for the function, degree i-1 for its gradient
    worst_euler = 0.0
    for _ in range(200):
        N = int(rng.integers(2, 7))
        A = _rand_sym(rng, N)
        i = int(rng.integers(1, N + 1))
        scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(A)))) ** i)
        worst_euler = max(
            worst_euler, abs(trace_pair(A, A, i) - i * elem_sym(A, i)) / scale
        )
        worst_euler = max(
            worst_euler,
            float(np.max(np.abs(contract2(A, i, A) - (i - 1) * cofactor(A, i)))) / scale,
        )
    assert worst_euler <= 1e-8

    dt = time.perf_counter() - t0
    _line(
        1,
        dt < 10.0,
        f"oracle rel {worst_rel:.1e} <= 1e-10, fd {worst_fd:.1e} <= 1e-6, "
        f"euler {worst_euler:.1e} <= 1e-8 in {dt:.1f}s (budget 10s)",
    )


def test_criterion_02_curvature_form_realization():
    """A body whose curvature form at a prescribed direction equals a
    prescribed positive matrix, to near machine accuracy."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 4):
        rng = np.random.default_rng(200 + n)
        for _ in range(100):
            N = n - 1
            G = rng.normal(size=(N, N))
            A = G @ G.T + 0.3 * np.eye(N)
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            body = realize_q(A, u)
            worst = max(worst, float(np.max(np.abs(q_matrix(body.h, u) - A))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 10.0
    _line(2, ok, f"max |Q - A| = {worst:.2e} <= 1e-8 over 200 draws in {dt:.1f}s (budget 10s)")


def test_criterion_03_diagonal_subset_equivalence():
    """Brute-force diagonal trace form vs smallest-subset-sum verdict."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    agree = 0
    cases = 500
    for k in range(cases):
        N = int(rng.integers(2, 7))
        mu = rng.uniform(-1.0, 2.0, size=N)
        i = int(rng.integers(1, N + 1))
        lhs, rhs = lemma_equiv_bruteforce(mu, i, trials=25, seed=k)
        agree += lhs == rhs
    dt = time.perf_counter() - t0
    ok = agree == cases and dt < 5.0
    _line(3, ok, f"{agree}/{cases} verdicts agree in {dt:.1f}s (budget 5s)")


def test_criterion_04_exchange_symmetry(grids):
    """Weight/perturbation exchange under the cofactor contraction: residual
    within 5x the combined quadrature estimate, 50 random draws per dimension."""
    t0 = time.perf_counter()
    passed = total = 0
    worst_ratio = 0.0
    for n in (3, 4):
        rng = np.random.default_rng(400 + n)
        for _ in range(50):
            f = _random_poly(n, rng)
            phi = _random_poly(n, rng)
            K = ellipsoid(rng.uniform(0.7, 1.6, size=n))
            i = int(rng.integers(1, n))
            rep = ibp_symmetry_residual(f, phi, K, i, grids[n])
            total += 1
            passed += rep.within(factor=5.0)
            worst_ratio = max(worst_ratio, rep.residual / max(rep.combined_estimate, 1e-300))
    dt = time.perf_counter() - t0
    ok = passed == total and dt < 300.0
    _line(4, ok, f"{passed}/{total} residuals within 5x estimate "
                 f"(worst ratio {worst_ratio:.2f}) in {dt:.0f}s (budget 300s)")


def test_criterion_05_condition_monotonicity_roundtrip(entries, grids):
    """Pointwise verdict vs empirical behavior over the full corpus: no
    marginal verdicts, no monotonicity violations where the condition holds,
    and a constructed nested pair with a decisive drop wherever it fails."""
    t0 = time.perf_counter()
    rows, summary = theorem_roundtrip(entries, grids, pairs_per_dim=8, seed=2024)
    violated_rows = [r for r in rows if r["verdict"] == "violated"]
    decisive = all(r.get("counterexample") for r in violated_rows)
    dt = time.perf_counter() - t0
    ok = (
        summary["marginal"] == 0
        and summary["empirical_violations"] == 0
        and summary["counterexamples_failed"] == 0
        and summary["counterexamples_found"] == len(violated_rows)
        and decisive
        and dt < 900.0
    )
    _line(5, ok, f"{summary['checked']} checks: {summary['satisfied']} satisfied / "
                 f"{summary['violated']} violated, 0 marginal, 0 empirical violations, "
                 f"{summary['counterexamples_found']}/{len(violated_rows)} counterexamples "
                 f"in {dt:.0f}s (budget 900s)")


def test_criterion_06_first_order_linearity(entries, grids, by_label):
    """The order-1 functional is affine along Minkowski segments: deviation
    from the affine interpolant within 5x quadrature tolerance, 20 segments."""
    t0 = time.perf_counter()
    f3 = [by_label[l].f for l in ("const-1", "poly2-0", "poly2-1", "bump-dip", "support-ell-1")]
    f4 = [by_label[l].f for l in ("poly2-4d-0", "poly2-4d-1", "const4-1", "bump4")]
    consistent = total = 0
    for n, count, fs in ((3, 12, f3), (4, 8, f4)):
        pairs = nested_pairs(n, count, seed=60 + n)
        for k, (K, L) in enumerate(pairs):
            _, good = linearity_probe(fs[k % len(fs)], K, L, grids[n], t_count=9, tol_factor=5.0)
            consistent += good
            total += 1
    dt = time.perf_counter() - t0
    _line(6, consistent == total == 20,
          f"{consistent}/{total} segments affine within 5x tolerance in {dt:.0f}s")


def test_criterion_07_power_concavity_support_weights(grids):
    """Support-function weights: sampled power concavity along 20 segments
    plus the second-order criterion on 20 perturbation probes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    seg_ok = seg_tot = 0
    for n, num in ((3, 10), (4, 10)):
        pairs = nested_pairs(n, num, seed=70 + n)
        for k, (K, L) in enumerate(pairs):
            M = ellipsoid(rng.uniform(0.6, 1.8, size=n))
            i = 2 if n == 3 else (2 + k % 2)
            probe = bm_segment_test(M.h, i, K, L, grids[n], t_count=9, tol_factor=5.0)
            seg_ok += probe.consistent_with_concavity
            seg_tot += 1
    crit_ok = crit_tot = 0
    for n, num in ((3, 10), (4, 10)):
        bodies = [K for K, _ in nested_pairs(n, num, seed=75 + n)]
        for k, K in enumerate(bodies):
            M = ellipsoid(rng.uniform(0.6, 1.8, size=n))
            terms = {}
            for _ in range(4):
                e = tuple(int(x) for x in rng.integers(0, 3, size=n))
                if sum(e) <= 2:
                    terms[e] = float(rng.normal() * 0.3)
            if not terms:
                terms = {(0,) * n: 0.3}
            phi = polynomial(n, terms)
            i = 2 if n == 3 else (2 + k % 2)
            rep = concavity_criterion(M.h, K, phi, i, grids[n])
            crit_ok += rep.value <= rep.tolerance
            crit_tot += 1
    dt = time.perf_counter() - t0
    ok = seg_ok == seg_tot == 20 and crit_ok == crit_tot == 20
    _line(7, ok, f"{seg_ok}/{seg_tot} segments concave-consistent, "
                 f"{crit_ok}/{crit_tot} second-order probes <= tolerance in {dt:.0f}s")


def test_criterion_08_concavity_violation_hunt(grids, by_label):
    """For five corpus weights that fail the pointwise condition at order
    i >= 2, the perturbation sweep finds a confidently positive second-order
    criterion AND the violation is confirmed by a non-concave sampled segment;
    at least 4 of 5 must confirm, misses reported with diagnostics."""
    t0 = time.perf_counter()
    cases = [
        ("saddle3-0.42", 2),
        ("saddle3-0.45", 2),
        ("saddle3-0.48", 2),
        ("saddle4-0.55", 3),
        ("saddle4-0.58", 2),
    ]
    confirmed = 0
    details = []
    for label, i in cases:
        entry = by_label[label]
        rep = bm_violation_hunt(entry.f, i, grids[entry.n])
        confirmed += rep.confirmed
        details.append(f"{label}/i={i}: "
                       + (f"gap {rep.segment_gap:.1e}" if rep.confirmed
                          else f"MISS {rep.diagnostics}"))
    dt = time.perf_counter() - t0
    ok = confirmed >= 4 and dt < 1800.0
    _line(8, ok, f"{confirmed}/5 confirmed ({'; '.join(details)}) in {dt:.0f}s (budget 1800s)")


def test_criterion_09_mollification(grids, by_label):
    """Rotation-average smoothing: sup distance strictly decreasing in the
    kernel scale for ten designated corpus weights, and the pointwise
    condition survives smoothing wherever the raw weight satisfies it."""
    t0 = time.perf_counter()
    labels = [
        "affine-z", "support-ell-1", "support-rand-1", "poly2-0", "poly2-1",
        "poly3-0", "poly3-1", "bump-pole", "bump-dip", "saddle3-0.42",
    ]
    strict = 0
    preserved = checked = 0
    for label in labels:
        e = by_label[label]
        grid = grids[e.n]
        dists = [sup_distance(e.f, mollify(e.f, k), grid) for k in (4, 8, 16)]
        strict += dists[0] > dists[1] > dists[2]
        for i in range(1, e.n):
            if check_mi(e.f, i, grid).ok:
                for k in (4, 8, 16):
                    rep = mollify_preserves_monotone(e.f, i, k, grid)
                    checked += 1
                    preserved += rep.ok
    dt = time.perf_counter() - t0
    ok = strict == len(labels) and preserved == checked and checked > 0
    _line(9, ok, f"{strict}/{len(labels)} strictly decreasing, "
                 f"{preserved}/{checked} smoothed checks preserved in {dt:.0f}s")


@pytest.fixture(scope="module")
def reduction_setup():
    from areafun.reduction import circle_grid, reduction_grid

    return {
        "grid": reduction_grid(),
        "circle": circle_grid(),
        "disc": flattened_ellipse(1.0, 1.0, 0.01),
        "one": constant(3, 1.0),
    }


def test_criterion_10_cylinder_split(reduction_setup):
    """Thickness-extrapolated cylinder splitting within 2% of the circle-side
    value for the disc probes, including the closed form pi*R + 2*pi, and the
    segment-trading identity within 2%."""
    t0 = time.perf_counter()
    s = reduction_setup
    worst = 0.0
    closed_ok = True
    for R in (1.0, 2.0):
        rep = cylinder_lemma_residual(s["one"], s["disc"], R, grid=s["grid"], circle=s["circle"])
        worst = max(worst, rep.relative_residual)
        closed_ok = closed_ok and abs(rep.rhs - (math.pi * R + 2 * math.pi)) <= 1e-9 * rep.rhs
    seg_worst = 0.0
    for L in (ball(3), flattened_ellipse(1.0, 1.0, 0.05).body3d):
        rep = segment_factor_identity(s["disc"], L, grid=s["grid"], circle=s["circle"])
        seg_worst = max(seg_worst, rep.relative_residual)
    dt = time.perf_counter() - t0
    ok = worst <= 0.02 and seg_worst <= 0.02 and closed_ok and dt < 600.0
    _line(10, ok, f"split residual {worst:.3%} <= 2%, closed form exact, "
                  f"segment identity {seg_worst:.3%} <= 2% in {dt:.0f}s (budget 600s)")


def test_criterion_11_scaled_limit(reduction_setup):
    """Scaled cylinder functionals against half the circle functional.

    The polar point masses contribute an R-independent 2*pi, i.e. 2*pi/R
    after scaling - at R=32 that alone is 6.25% of the limit pi, so the raw
    scaled value cannot meet 2% at R=32; the raw sequence instead shows the
    claimed O(1/R) approach (error ratios tracking the R ratios), and the
    comparison after removing the independently computed polar mass - the
    part of the split the limit statement is about - lands within 2%.
    """
    t0 = time.perf_counter()
    s = reduction_setup
    rep = dimension_reduction_limit(
        s["one"], s["disc"], R_list=(2.0, 8.0, 32.0), grid=s["grid"], circle=s["circle"]
    )
    decaying = all(a > b for a, b in zip(rep.raw_errors, rep.raw_errors[1:]))
    rate = all(3.2 <= r <= 5.0 for r in rep.decay_ratios)  # R quadruples per step
    corrected = rep.corrected_errors[-1]
    raw_over = rep.raw_errors[-1] > 0.02  # the structural floor, documented above
    dt = time.perf_counter() - t0
    ok = decaying and rate and corrected <= 0.02 and raw_over
    _line(11, ok, f"corrected error at R=32: {corrected:.3%} <= 2%, raw errors "
                  f"{[f'{e:.2%}' for e in rep.raw_errors]} decay at 1/R "
                  f"(ratios {[f'{r:.2f}' for r in rep.decay_ratios]}) in {dt:.0f}s")
