import math
import tracemalloc

import numpy as np
import pytest
from conftest import fd_gradient_of_extension, fd_hessian_of_extension

from areafun.conditions import check_mi
from areafun.errors import DomainError
from areafun.experiments import (
    plateau_cutoff,
    product_profile,
    ramp_cutoff,
    scaled_profile,
    separable_function,
    smooth_step,
    smoothed_abs,
    triangle_wave,
)
from areafun.mollify import (
    MollifierKernel,
    _skew_expm,
    RotationAverage,
    mollify,
    mollify_preserves_monotone,
    psi_profile,
    sup_distance,
)
from areafun.sphere import (
    bump,
    combination,
    compose_orthogonal,
    make_grid,
    polynomial,
    q_batch,
    quadratic_support,
    tangent_frame,
)


def rotation_xy(theta, n=3):
    R = np.eye(n)
    R[0, 0] = R[1, 1] = np.cos(theta)
    R[0, 1] = -np.sin(theta)
    R[1, 0] = np.sin(theta)
    return R


def saddle(c, n=3):
    terms = {(0,) * n: 1.0}
    e1 = [0] * n
    e1[0] = 2
    terms[tuple(e1)] = c
    e2 = [0] * n
    e2[1] = 2
    terms[tuple(e2)] = -c
    return polynomial(n, terms, label=f"saddle({c})")


def full_kernel(n, k, samples, seed):
    """The kernel build with every accepted rotation kept, zero weights
    included, as a reference: (rotations, weights)."""
    rng = np.random.default_rng(seed)
    d = n * (n - 1) // 2
    X = np.zeros((samples, n, n))
    for s in range(samples):
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        X[s][np.triu_indices(n, 1)] = v * (1.1 / k * rng.uniform() ** (1.0 / d) / math.sqrt(2.0))
    X -= X.transpose(0, 2, 1)
    rho = _skew_expm(X)
    dists = np.linalg.norm(rho - np.eye(n), axis=(1, 2))
    inside = k * k * dists * dists < 1.0
    w = psi_profile((dists[inside] * k) ** 2)
    return rho[inside], w / float(np.sum(w))


class TestKernel:
    def test_profile_support(self):
        assert psi_profile(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]
        vals = psi_profile(np.array([0.0, 0.5, 0.99]))
        assert np.all(vals > 0)
        assert vals[0] == pytest.approx(np.exp(-1.0))

    def test_weights_normalised_nonnegative(self):
        ker = MollifierKernel.build(3, 8, samples=150, seed=1)
        assert np.all(ker.weights >= 0)
        assert abs(ker.weights.sum() - 1.0) < 1e-10

    def test_rotations_inside_support(self):
        ker = MollifierKernel.build(3, 4, samples=120, seed=2)
        dists = np.linalg.norm(ker.rotations - np.eye(3), axis=(1, 2))
        assert np.all(4.0 * dists < 1.0)
        # genuinely orthogonal
        prods = np.einsum("mij,mkj->mik", ker.rotations, ker.rotations)
        assert np.max(np.abs(prods - np.eye(3))) < 1e-12

    def test_fixed_sample_set_per_seed(self):
        a = MollifierKernel.build(3, 8, samples=130, seed=7)
        b = MollifierKernel.build(3, 8, samples=130, seed=7)
        assert np.array_equal(a.rotations, b.rotations)
        assert np.array_equal(a.weights, b.weights)
        c = MollifierKernel.build(3, 8, samples=130, seed=8)
        assert not np.array_equal(a.rotations, c.rotations)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_skew_expm_matches_scipy(self, n):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(n)
        A = rng.normal(size=(200, n, n))
        X = A - A.transpose(0, 2, 1)
        # radii up to the largest proposal radius 1.1/k, at k = 1
        X *= (1.1 * rng.uniform(size=200) / np.linalg.norm(X, axis=(1, 2)))[:, None, None]
        X[0] *= 1.1 / np.linalg.norm(X[0])
        R = _skew_expm(X)
        assert np.max(np.abs(R - expm(X))) <= 1e-15
        gram = R.transpose(0, 2, 1) @ R - np.eye(n)
        assert np.max(np.linalg.norm(gram, axis=(1, 2))) <= 1e-15
        assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("n, k, seed", [(3, 4, 0), (4, 8, 1)])
    def test_zero_weights_are_dropped(self, n, k, seed):
        # these samples accept a rotation so close to the support's edge that
        # its weight exp(1/(t - 1)) underflows to 0
        rotations, weights = full_kernel(n, k, 150, seed)
        assert np.count_nonzero(weights == 0.0) >= 1
        ker = MollifierKernel.build(n, k, samples=150, seed=seed)
        assert np.all(ker.weights > 0.0)
        assert np.array_equal(ker.weights, weights[weights > 0.0])
        assert np.array_equal(ker.rotations, rotations[weights > 0.0])
        U = unit_points(n, 300)
        for f in weights_for(n):
            want = sum(w * f.value(U @ R.T) for w, R in zip(weights, rotations))
            got = mollify(f, k, kernel=ker).value(U)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), f.label

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            MollifierKernel.build(3, 8, samples=99)

    def test_bad_scale(self):
        with pytest.raises(DomainError):
            MollifierKernel.build(3, 0, samples=120)

    def test_acceptance_guard(self):
        from areafun.errors import KernelError

        # ~25% of proposals land outside the support, so a demand for near-
        # total acceptance must trip the starvation guard
        with pytest.raises(KernelError):
            MollifierKernel.build(3, 8, samples=400, seed=0, min_acceptance=0.999)


class TestMollify:
    def test_constant_fixed_point(self):
        f = polynomial(3, {(0, 0, 0): 2.5})
        fk = mollify(f, 8, samples=120, seed=0)
        grid = make_grid(3, 500)
        assert np.max(np.abs(fk.value(grid.nodes) - 2.5)) < 1e-12

    def test_linearity_exact(self):
        ker = MollifierKernel.build(3, 8, samples=120, seed=0)
        f = polynomial(3, {(2, 0, 0): 1.0, (0, 0, 0): 1.0})
        g = bump(3, np.array([0.0, 0.0, 1.0]), 3.0)
        h = combination([0.7, -0.4], [f, g])
        grid = make_grid(3, 400)
        lhs = mollify(h, 8, kernel=ker).value(grid.nodes)
        rhs = 0.7 * mollify(f, 8, kernel=ker).value(grid.nodes) - 0.4 * mollify(
            g, 8, kernel=ker
        ).value(grid.nodes)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_equivariance_exact_under_rebased_kernel(self):
        ker = MollifierKernel.build(3, 8, samples=120, seed=4)
        R0 = rotation_xy(1.1)
        f = polynomial(3, {(2, 1, 0): 0.5, (0, 0, 1): 1.0, (0, 0, 0): 2.0})
        # the kernel conjugated by R0 keeps its weights: the distance to the
        # identity is conjugation-invariant
        conj = MollifierKernel(3, 8, R0.T @ ker.rotations @ R0, ker.weights, ker.seed)
        lhs = mollify(compose_orthogonal(f, R0), 8, kernel=conj)
        rhs = compose_orthogonal(mollify(f, 8, kernel=ker), R0)
        grid = make_grid(3, 600)
        assert np.max(np.abs(lhs.value(grid.nodes) - rhs.value(grid.nodes))) < 1e-12

    def test_equivariance_statistical_without_rebase(self):
        R0 = rotation_xy(0.9)
        f = polynomial(3, {(2, 0, 0): 1.0, (0, 0, 0): 1.0})
        lhs = mollify(compose_orthogonal(f, R0), 8, samples=200, seed=5)
        rhs = compose_orthogonal(mollify(f, 8, samples=200, seed=5), R0)
        grid = make_grid(3, 600)
        # independent kernels only agree at the mollification scale O(1/k)
        assert np.max(np.abs(lhs.value(grid.nodes) - rhs.value(grid.nodes))) < 0.3

    def test_sup_convergence_in_k(self):
        grid = make_grid(3, 1500)
        for f in [
            polynomial(3, {(2, 0, 0): 1.0, (0, 1, 0): 0.5, (0, 0, 0): 1.0}),
            bump(3, np.array([0.0, 0.0, 1.0]), 4.0),
        ]:
            errs = [sup_distance(mollify(f, k, samples=200, seed=0), f, grid) for k in (4, 8, 16)]
            assert errs[0] > errs[1] > errs[2]

    def test_derivatives_pass_through_sum(self):
        ker = MollifierKernel.build(3, 6, samples=110, seed=6)
        f = polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): -1.0, (0, 0, 0): 1.0})
        fk = mollify(f, 6, kernel=ker)
        u = np.array([1.0, 0.0, 0.0])
        # rotation average of rotated Hessian forms, assembled independently
        manual = np.zeros((3, 3))
        for w, rho in zip(ker.weights, ker.rotations):
            g = compose_orthogonal(f, rho)
            manual += w * g.extension_hessian(u[None, :])[0]
        assert np.max(np.abs(fk.extension_hessian(u[None, :])[0] - manual)) < 1e-12

    def test_dimension_mismatch(self):
        ker = MollifierKernel.build(4, 8, samples=120, seed=0)
        f = polynomial(3, {(0, 0, 0): 1.0})
        with pytest.raises(DomainError):
            mollify(f, 8, kernel=ker)


def weights_for(n):
    rng = np.random.default_rng(n)
    B = rng.normal(size=(n, n))
    u0 = np.zeros(n)
    u0[-1] = 1.0
    terms = {(0,) * n: 1.0}
    for _ in range(6):
        terms[tuple(int(e) for e in rng.integers(0, 4, size=n))] = rng.normal()
    return [
        polynomial(n, terms, label="poly"),
        bump(n, u0, 3.0),
        quadratic_support(B @ B.T + np.eye(n)),
    ]


def unit_points(n, m, seed=0):
    U = np.random.default_rng(seed).normal(size=(m, n))
    return U / np.linalg.norm(U, axis=1)[:, None]


class TestRotationAverage:
    """The vectorised average against the explicit sum_k w_k f(R_k u)."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_reference_loop(self, n):
        ker = MollifierKernel.build(n, 6, samples=150, seed=n)
        # more nodes than one block holds, so block edges are crossed
        U = unit_points(n, 400)
        for f in weights_for(n):
            fk = mollify(f, 6, kernel=ker)
            assert isinstance(fk, RotationAverage) and fk.kernel is ker
            jets = [(w, R, f._jet(U @ R.T, 2)) for w, R in zip(ker.weights, ker.rotations)]
            val = sum(w * v for w, _, (v, _, _) in jets)
            grad = sum(w * g @ R for w, R, (_, g, _) in jets)
            hess = sum(w * R.T @ H @ R for w, R, (_, _, H) in jets)
            _, fk_grad, fk_hess = fk._jet(U, 2)
            q = sum(
                w * q_batch(compose_orthogonal(f, R), U)
                for w, R in zip(ker.weights, ker.rotations)
            )
            for got, want in [
                (fk.value(U), val),
                (fk_grad, grad),
                (fk_hess, hess),
                (q_batch(fk, U), q),
            ]:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), f.label

    def test_q_batch_memory_bounded_by_block(self):
        # the rotated points are evaluated in blocks, so the peak does not
        # grow with nodes x rotations (8,192 x ~150 here)
        grid = make_grid(3, 8192)
        fk = mollify(saddle(0.42), 8, samples=200, seed=0)
        q_batch(fk, grid.nodes[:64], grid.frames()[:64])  # warm
        tracemalloc.start()
        try:
            q_batch(fk, grid.nodes, grid.frames())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestPreservation:
    def test_satisfied_stays_satisfied(self):
        grid = make_grid(3, 2000)
        rep = mollify_preserves_monotone(saddle(0.3), 2, 8, grid, samples=150, seed=0)
        assert rep.verdict == "satisfied"

    def test_violated_stays_violated(self):
        grid = make_grid(3, 2000)
        rep = mollify_preserves_monotone(saddle(0.45), 2, 8, grid, samples=150, seed=0)
        assert rep.verdict == "violated"
        assert rep.worst_value < -0.3

    def test_margin_moves_little(self):
        grid = make_grid(3, 2000)
        f = saddle(0.3)
        base = check_mi(f, 2, grid)
        molly = mollify_preserves_monotone(f, 2, 16, grid, samples=200, seed=0)
        assert abs(molly.worst_value - base.worst_value) < 0.02


class FDCheck:
    @staticmethod
    def fd1(p, t, h=1e-6):
        return (p(t + h)[0] - p(t - h)[0]) / (2 * h)

    @staticmethod
    def fd2(p, t, h=1e-4):
        return (p(t + h)[0] - 2 * p(t)[0] + p(t - h)[0]) / h**2


def closure_profiles(eta, eps, rho):
    """The value/d1/d2 closure triples the profile jets replaced, written out
    as a reference: name -> (fn, d1, d2), with the oscillation's profiles."""

    def cap(k, t):
        out = np.abs(t) >= eta
        if k == 0:
            quartic = 3.0 * eta / 8.0 + 3.0 * t * t / (4.0 * eta) - t**4 / (8.0 * eta**3)
            return np.where(out, np.abs(t), quartic)
        if k == 1:
            return np.where(out, np.sign(t), 1.5 * t / eta - 0.5 * t**3 / eta**3)
        return np.where(out, 0.0, 1.5 / eta - 1.5 * t * t / eta**3)

    def step(k, s):
        inside, sc = (s > 0.0) & (s < 1.0), np.clip(s, 0.0, 1.0)
        if k == 0:
            return sc**3 * (6.0 * sc * sc - 15.0 * sc + 10.0)
        if k == 1:
            return np.where(inside, 30.0 * sc * sc * (sc - 1.0) ** 2, 0.0)
        return np.where(inside, 60.0 * sc * (2.0 * sc - 1.0) * (sc - 1.0), 0.0)

    def tri(k, t):
        x = (t + 1.0) % 2.0 - 1.0
        a = np.abs(x)
        far = (1.0 - cap(0, 1.0 - a), np.sign(x) * cap(1, 1.0 - a), -cap(2, 1.0 - a))[k]
        dist = np.where(a <= 0.5, cap(k, x), far)
        return 1.0 - dist if k == 0 else -dist

    w = 0.4 * rho
    cut = [
        lambda t: step(0, (rho - np.abs(t)) / w),
        lambda t: step(1, (rho - np.abs(t)) / w) * (-np.sign(t) / w),
        lambda t: step(2, (rho - np.abs(t)) / w) / (w * w),
    ]
    scaled = [lambda t, k=k: (eps / eps**k) * tri(k, t / eps) for k in range(3)]
    centered = [lambda t: scaled[0](t) - 0.5 * eps, scaled[1], scaled[2]]
    wave = [
        lambda t: centered[0](t) * cut[0](t),
        lambda t: centered[1](t) * cut[0](t) + centered[0](t) * cut[1](t),
        lambda t: centered[2](t) * cut[0](t) + 2.0 * centered[1](t) * cut[1](t)
        + centered[0](t) * cut[2](t),
    ]
    return {
        "smoothed_abs": [lambda t, k=k: cap(k, t) for k in range(3)],
        "smooth_step": [lambda t, k=k: step(k, t) for k in range(3)],
        "ramp_cutoff": [
            lambda t: step(0, (t - 0.3) / 0.2),
            lambda t: step(1, (t - 0.3) / 0.2) / 0.2,
            lambda t: step(2, (t - 0.3) / 0.2) / (0.2 * 0.2),
        ],
        "triangle_wave": [lambda t, k=k: tri(k, t) for k in range(3)],
        "plateau_cutoff": cut,
        "scaled_profile": scaled,
        "product_profile": wave,
    }


class TestProfiles:
    def test_jets_match_closure_formulas(self):
        # at the cap edges, at kinks +- eta and a hair either side of both, for
        # the smoothing the hunt uses: the jets do the closures' arithmetic, so
        # they agree bit for bit
        eta, eps, rho = 0.25, 0.08, 0.25
        ks = np.arange(-3.0, 4.0)
        near = np.concatenate([ks, ks - eta, ks + eta, ks - 0.5, ks + 0.5])
        t = np.concatenate([near, near * (1 + 1e-9), near * (1 - 1e-9), [0.3, 0.5, 0.6 * rho, rho]])
        t = np.concatenate([t, -t])
        scaled = scaled_profile(triangle_wave(eta), eps, eps)

        def centered(t, order=0):
            d = scaled(t, order)
            return (d[0] - 0.5 * eps,) + d[1:]

        jets = {
            "smoothed_abs": (smoothed_abs(eta), t * eta),
            "smooth_step": (smooth_step(), t / 3.0 + 0.5),
            "ramp_cutoff": (ramp_cutoff(0.3, 0.5), 0.1 * t + 0.4),
            "triangle_wave": (triangle_wave(eta), t),
            "plateau_cutoff": (plateau_cutoff(0.6 * rho, rho), 0.25 * rho * t),
            "scaled_profile": (scaled, eps * t),
            "product_profile": (product_profile(centered, plateau_cutoff(0.6 * rho, rho)), eps * t),
        }
        for name, reference in closure_profiles(eta, eps, rho).items():
            jet, x = jets[name]
            for order in range(3):
                got = jet(x, order)
                assert len(got) == order + 1
                for k in range(order + 1):
                    want = reference[k](x)
                    np.testing.assert_array_equal(got[k], want, err_msg=name)

    def test_smoothed_abs_glue(self):
        eta = 0.3
        p = smoothed_abs(eta)
        assert p(np.array([0.0]))[0][0] == pytest.approx(3 * eta / 8)
        assert p(np.array([eta]))[0][0] == pytest.approx(eta)
        assert p(np.array([eta]), 1)[1][0] == pytest.approx(1.0)
        assert abs(p(np.array([eta - 1e-12]), 2)[2][0]) < 1e-9
        t = np.linspace(-1, 1, 41)
        assert np.max(np.abs(p(t, 1)[1] - FDCheck.fd1(p, t))) < 1e-8
        # FD second differences smear the third-derivative jump at the glue
        # points +-eta, an O(h) effect; the bound only needs to catch formula
        # errors, which are O(1)
        assert np.max(np.abs(p(t, 2)[2] - FDCheck.fd2(p, t))) < 5e-3
        assert np.all(p(t, 2)[2] >= -1e-12)  # convex
        outside = np.array([-0.9, 0.5, 2.0])
        assert np.max(np.abs(p(outside)[0] - np.abs(outside))) == 0.0

    def test_smooth_step(self):
        p = smooth_step()
        s = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 3.0])
        vals = p(s)[0]
        assert vals[0] == 0.0 and vals[1] == 0.0
        assert vals[-1] == 1.0 and vals[-2] == 1.0
        assert vals[3] == pytest.approx(0.5)
        t = np.linspace(0.01, 0.99, 30)
        assert np.max(np.abs(p(t, 1)[1] - FDCheck.fd1(p, t))) < 1e-8
        assert np.max(np.abs(p(t, 2)[2] - FDCheck.fd2(p, t))) < 1e-5
        assert np.all(np.diff(p(np.linspace(-0.5, 1.5, 50))[0]) >= 0)

    def test_plateau_cutoff(self):
        p = plateau_cutoff(0.5, 1.0)
        assert p(np.array([0.0, 0.3, -0.5]) )[0].tolist() == [1.0, 1.0, 1.0]
        assert p(np.array([1.0, -2.0]))[0].tolist() == [0.0, 0.0]
        t = np.linspace(-1.2, 1.2, 49)
        assert np.max(np.abs(p(t, 1)[1] - FDCheck.fd1(p, t))) < 1e-7
        assert np.max(np.abs(p(t, 2)[2] - FDCheck.fd2(p, t))) < 2e-2  # d3 jumps at glue points
        with pytest.raises(DomainError):
            plateau_cutoff(1.0, 0.5)

    def test_ramp_cutoff(self):
        p = ramp_cutoff(0.3, 0.5)
        assert p(np.array([0.2]))[0][0] == 0.0
        assert p(np.array([0.6]))[0][0] == 1.0
        t = np.linspace(0.25, 0.55, 31)
        assert np.max(np.abs(p(t, 1)[1] - FDCheck.fd1(p, t))) < 1e-7

    def test_triangle_raw(self):
        p = triangle_wave(0.0)
        t = np.array([0.0, 0.5, 1.0, 1.5, 2.0, -0.5, -1.0, 7.25])
        expect = np.array([1.0, 0.5, 0.0, 0.5, 1.0, 0.5, 0.0, 0.25])
        assert np.max(np.abs(p(t)[0] - expect)) < 1e-12
        mid = np.array([0.2, 0.7, 1.3, -0.4])
        assert np.max(np.abs(np.abs(p(mid, 1)[1]) - 1.0)) == 0.0

    def test_triangle_smoothed(self):
        eta = 0.2
        p = triangle_wave(eta)
        t = np.linspace(-3.0, 3.0, 601)  # includes every kink location
        vals = p(t)[0]
        assert np.min(vals) >= 3 * eta / 8 - 1e-12
        assert np.max(vals) <= 1 - 3 * eta / 8 + 1e-12
        # matches the raw wave away from kinks
        raw = triangle_wave(0.0)
        away = np.array([0.5, 1.45, -0.6, 2.5])
        assert np.max(np.abs(p(away)[0] - raw(away)[0])) < 1e-12
        # C^2: finite differences agree everywhere, kinks included
        assert np.max(np.abs(p(t, 1)[1] - FDCheck.fd1(p, t))) < 1e-7
        assert np.max(np.abs(p(t, 2)[2] - FDCheck.fd2(p, t))) < 1e-2  # d3 jumps at glue points
        # periodicity
        assert np.max(np.abs(p(t + 2.0)[0] - p(t)[0])) < 1e-12

    def test_triangle_bad_eta(self):
        with pytest.raises(DomainError):
            triangle_wave(0.5)

    def test_scaled_and_product(self):
        base = triangle_wave(0.2)
        p = scaled_profile(base, 0.05, 0.1)
        t = np.linspace(-0.3, 0.3, 61)
        assert np.max(np.abs(p(t)[0] - 0.05 * base(t / 0.1)[0])) < 1e-15
        assert np.max(np.abs(p(t, 1)[1] - FDCheck.fd1(p, t))) < 1e-6
        assert np.max(np.abs(p(t, 2)[2] - FDCheck.fd2(p, t, h=1e-5))) < 2e-2
        q = product_profile(p, plateau_cutoff(0.15, 0.25))
        assert np.max(np.abs(q(t, 1)[1] - FDCheck.fd1(q, t))) < 1e-6

    def test_bad_scale(self):
        with pytest.raises(DomainError):
            scaled_profile(smooth_step(), 1.0, 0.0)


class TestSeparable:
    def make_function(self):
        u0 = np.array([0.0, 0.0, 1.0])
        E = tangent_frame(u0)
        profiles = [
            scaled_profile(triangle_wave(0.25), 0.05, 0.08),
            plateau_cutoff(0.15, 0.3),
            ramp_cutoff(0.3, 0.5),
        ]
        dirs = np.stack([E[:, 0], E[:, 1], u0])
        return separable_function(3, dirs, profiles, label="osc"), u0, E

    def test_values_are_products(self):
        f, u0, E = self.make_function()
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(40, 3))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        p0 = scaled_profile(triangle_wave(0.25), 0.05, 0.08)
        p1 = plateau_cutoff(0.15, 0.3)
        p2 = ramp_cutoff(0.3, 0.5)
        expect = p0(Y @ E[:, 0])[0] * p1(Y @ E[:, 1])[0] * p2(Y @ u0)[0]
        assert np.max(np.abs(f.value(Y) - expect)) < 1e-14

    def test_vanishes_on_lower_hemisphere(self):
        f, u0, _ = self.make_function()
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(200, 3))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        low = Y[Y @ u0 < 0.3]
        assert np.max(np.abs(f.value(low))) == 0.0

    def test_derivatives_match_fd(self):
        f, u0, E = self.make_function()
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        # keep clear of the support boundary where FD steps cross cutoffs
        X = 0.97 * u0 + 0.03 * X
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        ga, gf = f.extension_gradient(X), fd_gradient_of_extension(f, X)
        assert np.max(np.abs(ga - gf)) < 1e-5 * (1 + np.max(np.abs(ga)))
        ha, hf = f.extension_hessian(X), fd_hessian_of_extension(f, X)
        assert np.max(np.abs(ha - hf)) < 5e-3 * (1 + np.max(np.abs(ha)))

    def test_hessian_symmetric(self):
        f, _, _ = self.make_function()
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(30, 3))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        H = f.extension_hessian(Y)
        assert np.max(np.abs(H - np.swapaxes(H, 1, 2))) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            separable_function(3, np.eye(2), [smooth_step(), smooth_step()])
