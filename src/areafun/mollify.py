"""Rotation-group mollification and C^2 profile smoothing.

Two smoothing mechanisms with different powers:

* rotation averaging — f_k(u) = sum_m w_m f(rho_m u) over rotations near the
  identity, weights from a compactly supported C-infinity profile of
  ||rho - id||.  Averages converge uniformly to f as k grows and preserve
  every property expressible as "for all rotations rho, ..." — in particular
  the eigenvalue-sum conditions, which are linear in the Hessian form.  A
  *finite* rotation sum does not gain smoothness class: kinks of a Lipschitz
  f survive (rotated) in every term.  For genuinely C^2 versions of kinked
  profiles use the explicit cap/step constructions below.

* profile smoothing — 1D kink repairs (|t| and triangle waves) by a quartic
  cap with matched value/slope and zero curvature at the glue points, plus
  the standard quintic step; products of such profiles along fixed ambient
  directions have exact closed-form gradients and Hessians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import check_mi
from .errors import DomainError, KernelError
from .sphere import SphericalFunction


def psi_profile(t):
    """C-infinity bump profile on t < 1, identically zero for t >= 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = t < 1.0
    out[inside] = np.exp(1.0 / (t[inside] - 1.0))
    return out


def _skew_expm(X):
    """exp(X) for a stack (m, n, n) of skew matrices with |X|_F <= 1.1.

    Horner form of the degree-24 Taylor sum, I + X (I + X/2 (I + ... (I + X/24))).
    MollifierKernel.build proposes |X|_F <= 1.1/k <= 1.1 by construction; there
    the remainder is below 1.1^25/25! * e^1.1 < 1e-23, far below rounding, so
    no scaling and squaring is needed.
    """
    eye = np.eye(X.shape[-1])
    R = eye
    for j in range(24, 0, -1):
        R = eye + (X @ R) / j
    return R


@dataclass
class MollifierKernel:
    """Seeded rotation sample set with profile weights, scale index k.

    Rotations are exp(X) for skew X drawn uniformly from the Frobenius ball
    of radius 1/k (near the identity the Haar measure agrees with Lebesgue
    measure on the skew ball up to a 1 + O(k^-2) Jacobian, a bias accepted
    and documented rather than corrected).  Weights are the profile of
    k^2 ||rho - id||_F^2, normalised over the sample — only relative weights
    matter for the finite sum.
    """

    n: int
    k: int
    rotations: np.ndarray
    weights: np.ndarray
    seed: int

    @classmethod
    def build(cls, n, k, samples, seed=0, min_acceptance=1e-4):
        if k < 1:
            raise DomainError("scale index k must be >= 1")
        if samples < 100:
            raise DomainError("need at least 100 rotation samples")
        rng = np.random.default_rng(seed)
        d = n * (n - 1) // 2
        iu = np.triu_indices(n, 1)
        # propose from a skew ball slightly wider than the profile support and
        # reject by the actual rotation distance; ||exp(X) - id||_F <= ||X||_F,
        # so over-proposing by 10% covers the support with room to spare
        proposal_radius = 1.1 / k
        X = np.zeros((samples, n, n))
        for s in range(samples):
            v = rng.normal(size=d)
            v /= np.linalg.norm(v)
            # uniform in the ball: radius ~ U^(1/d); |X|_F = sqrt(2)|v|
            X[s][iu] = v * (proposal_radius * rng.uniform() ** (1.0 / d) / math.sqrt(2.0))
        X -= X.transpose(0, 2, 1)
        rho = _skew_expm(X)
        dists = np.linalg.norm(rho - np.eye(n), axis=(1, 2))
        inside = k * k * dists * dists < 1.0
        rotations, dists = rho[inside], dists[inside]
        accepted = len(rotations)
        if accepted < max(10.0, samples * min_acceptance):
            raise KernelError(
                f"kernel starvation: {accepted}/{samples} rotations accepted; "
                "decrease k or increase samples"
            )
        w = psi_profile((dists * k) ** 2)
        total = float(np.sum(w))
        if total <= 0.0:
            raise KernelError("all kernel weights vanished")
        return cls(n=n, k=int(k), rotations=rotations, weights=w / total, seed=int(seed))

    def rebase(self, rho0):
        """Conjugated kernel rho0^T rho rho0 — same weights (Frobenius
        distance to the identity is conjugation-invariant)."""
        rho0 = np.asarray(rho0, dtype=float)
        conj = np.einsum("ji,mjk,kl->mil", rho0, self.rotations, rho0)
        return MollifierKernel(
            n=self.n, k=self.k, rotations=conj, weights=self.weights, seed=self.seed
        )


# rotated points per evaluation block: bounds the (points, n, n) Hessian stack
_ROTATION_BLOCK = 1 << 13


class RotationAverage(SphericalFunction):
    """u -> sum_m w_m f(R_m u) over the rotations and weights of a kernel.

    f's jet is evaluated once per node block on the stacked rotated points
    Y R_cat^T, with R_cat = [R_1; ...; R_M] of shape (M n, n) and at most
    _ROTATION_BLOCK rotated points per block.  The weights then reduce each
    block in one product per order: values against w, gradients
    sum_m w_m R_m^T grad f(R_m y) and Hessians sum_m w_m R_m^T Hess f(R_m y) R_m
    against the weighted stack [w_1 R_1; ...; w_M R_M].  The average inherits
    f's derivative mode: a finite-difference f gives a finite-difference average.
    """

    def __init__(self, f, kernel):
        if kernel.n != f.n:
            raise DomainError("kernel and function dimensions differ")
        self.kernel = kernel
        n, R, w = f.n, kernel.rotations, kernel.weights
        R_cat = R.reshape(-1, n)
        W_cat = (w[:, None, None] * R).reshape(-1, n)
        block = max(1, _ROTATION_BLOCK // len(R))
        reducers = (
            lambda V: V @ w,
            lambda G: G.reshape(len(G), -1) @ W_cat,
            lambda H: W_cat.T @ (H @ R).reshape(len(H), -1, n),
        )

        def jet(Y, order):
            out = [np.empty((len(Y),) + (n,) * k) for k in range(order + 1)]
            for s in range(0, len(Y), block):
                Yb = Y[s : s + block]
                parts = f._jet((Yb @ R_cat.T).reshape(-1, n), order)
                for k, (d, reduce) in enumerate(zip(parts, reducers)):
                    out[k][s : s + block] = reduce(d.reshape((len(Yb), -1) + (n,) * k))
            return tuple(out)

        super().__init__(
            n, jet, f"{f.label}~k{kernel.k}", analytic=f.derivative_mode == "analytic"
        )


def mollify(f, k, samples=200, seed=0, kernel=None):
    """Rotation average of f with the scale-k kernel, as a RotationAverage.

    The result evaluates sum_m w_m f(rho_m u); derivatives pass through the
    finite sum term by term, so it inherits f's derivative mode.  The kernel
    is fixed per (k, seed): repeated calls with the same arguments define the
    same function.
    """
    if kernel is None:
        kernel = MollifierKernel.build(f.n, k, samples, seed)
    return RotationAverage(f, kernel)


def mollify_preserves_monotone(f, i, k, grid, samples=200, seed=0, tol=None):
    """Check the order-i condition on the mollified function.

    The per-point condition is linear in the Hessian form and the form of a
    rotation average is the average of rotated forms, so averaging preserves
    the condition exactly — up to sampling, this check should never flip a
    satisfied verdict to violated.
    """
    fk = mollify(f, k, samples=samples, seed=seed)
    return check_mi(fk, i, grid, tol=tol)


def sup_distance(f, g, grid):
    """max |f - g| over grid nodes."""
    return float(np.max(np.abs(f.value(grid.nodes) - g.value(grid.nodes))))


# -- C^2 profile toolbox -------------------------------------------------------


class Profile:
    """Scalar C^2 profile with vectorised value/derivative evaluation."""

    def __init__(self, fn, d1, d2, label="p"):
        self.fn = fn
        self.d1 = d1
        self.d2 = d2
        self.label = label

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))


def smoothed_abs(eta):
    """C^2 version of |t|: quartic cap on [-eta, eta].

    cap(t) = 3 eta/8 + 3 t^2/(4 eta) - t^4/(8 eta^3) matches |t| in value and
    slope at t = +-eta and has zero second derivative there; cap(0) = 3 eta/8.
    """
    if eta <= 0:
        raise DomainError("smoothing width must be positive")

    def fn(t):
        a = np.abs(t)
        out = np.where(
            a >= eta, a, 3.0 * eta / 8.0 + 3.0 * t * t / (4.0 * eta) - t**4 / (8.0 * eta**3)
        )
        return out

    def d1(t):
        return np.where(np.abs(t) >= eta, np.sign(t), 1.5 * t / eta - 0.5 * t**3 / eta**3)

    def d2(t):
        return np.where(np.abs(t) >= eta, 0.0, 1.5 / eta - 1.5 * t * t / eta**3)

    return Profile(fn, d1, d2, label=f"abs~{eta:g}")


def smooth_step():
    """Quintic step: 0 for s <= 0, 1 for s >= 1, 6s^5 - 15s^4 + 10s^3 between (C^2)."""

    def fn(s):
        s = np.clip(s, 0.0, 1.0)
        return s**3 * (6.0 * s * s - 15.0 * s + 10.0)

    def d1(s):
        inside = (s > 0.0) & (s < 1.0)
        sc = np.clip(s, 0.0, 1.0)
        return np.where(inside, 30.0 * sc * sc * (sc - 1.0) ** 2, 0.0)

    def d2(s):
        inside = (s > 0.0) & (s < 1.0)
        sc = np.clip(s, 0.0, 1.0)
        return np.where(inside, 60.0 * sc * (2.0 * sc - 1.0) * (sc - 1.0), 0.0)

    return Profile(fn, d1, d2, label="step")


def plateau_cutoff(inner, outer):
    """C^2 cutoff: 1 on |t| <= inner, 0 on |t| >= outer, quintic in between."""
    if not (0 < inner < outer):
        raise DomainError("need 0 < inner < outer")
    st = smooth_step()
    w = outer - inner

    def arg(t):
        return (outer - np.abs(t)) / w

    def fn(t):
        return st.fn(arg(t))

    def d1(t):
        return st.d1(arg(t)) * (-np.sign(t) / w)

    def d2(t):
        return st.d2(arg(t)) / (w * w)

    return Profile(fn, d1, d2, label=f"cut[{inner:g},{outer:g}]")


def ramp_cutoff(lo, hi):
    """C^2 one-sided cutoff: 0 for t <= lo, 1 for t >= hi."""
    if not (lo < hi):
        raise DomainError("need lo < hi")
    st = smooth_step()
    w = hi - lo

    def fn(t):
        return st.fn((t - lo) / w)

    def d1(t):
        return st.d1((t - lo) / w) / w

    def d2(t):
        return st.d2((t - lo) / w) / (w * w)

    return Profile(fn, d1, d2, label=f"ramp[{lo:g},{hi:g}]")


def triangle_wave(eta=0.0):
    """Unit triangle wave g(t) = 1 - dist(t, 2Z), optionally C^2-smoothed.

    Slope is +-1 away from the extrema; with eta > 0 both kink families
    (peaks at even, troughs at odd integers) are replaced by the quartic cap
    within eta of the kink, lifting the trough to 3 eta/8 and lowering the
    peak to 1 - 3 eta/8.  eta = 0 returns the raw Lipschitz wave (first and
    second derivative arrays then report the a.e. values, garbage at kinks).
    """
    if eta < 0 or eta >= 0.5:
        raise DomainError("need 0 <= eta < 1/2")

    def fold(t):
        # signed distance coordinate to the nearest even integer, in [-1, 1]
        return (np.asarray(t, dtype=float) + 1.0) % 2.0 - 1.0

    if eta == 0.0:

        def fn(t):
            return 1.0 - np.abs(fold(t))

        def d1(t):
            return -np.sign(fold(t))

        def d2(t):
            return np.zeros_like(np.asarray(t, dtype=float))

        return Profile(fn, d1, d2, label="tri")

    cap = smoothed_abs(eta)

    def dist_sm(x):
        # x in [-1, 1]: distance |x| with both end kinks repaired: near 0 use
        # the cap; near +-1 use 1 - cap(1 - |x|) (reflected cap)
        a = np.abs(x)
        out = np.where(a <= 0.5, cap.fn(x), 1.0 - cap.fn(1.0 - a))
        return out

    def dist_d1(x):
        a = np.abs(x)
        return np.where(a <= 0.5, cap.d1(x), np.sign(x) * cap.d1(1.0 - a))

    def dist_d2(x):
        a = np.abs(x)
        return np.where(a <= 0.5, cap.d2(x), -cap.d2(1.0 - a))

    def fn(t):
        return 1.0 - dist_sm(fold(t))

    def d1(t):
        return -dist_d1(fold(t))

    def d2(t):
        return -dist_d2(fold(t))

    return Profile(fn, d1, d2, label=f"tri~{eta:g}")


def scaled_profile(p, amplitude, scale):
    """amplitude * p(t / scale) with derivatives."""
    if scale <= 0:
        raise DomainError("profile scale must be positive")

    def fn(t):
        return amplitude * p.fn(np.asarray(t, dtype=float) / scale)

    def d1(t):
        return (amplitude / scale) * p.d1(np.asarray(t, dtype=float) / scale)

    def d2(t):
        return (amplitude / scale**2) * p.d2(np.asarray(t, dtype=float) / scale)

    return Profile(fn, d1, d2, label=f"{amplitude:g}*{p.label}(t/{scale:g})")


def product_profile(p, q):
    """Pointwise product of two profiles of the same variable."""

    def fn(t):
        return p.fn(np.asarray(t, dtype=float)) * q.fn(np.asarray(t, dtype=float))

    def d1(t):
        t = np.asarray(t, dtype=float)
        return p.d1(t) * q.fn(t) + p.fn(t) * q.d1(t)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return p.d2(t) * q.fn(t) + 2.0 * p.d1(t) * q.d1(t) + p.fn(t) * q.d2(t)

    return Profile(fn, d1, d2, label=f"{p.label}*{q.label}")


def separable_function(n, directions, profiles, label="sep"):
    """Product of profiles of fixed linear coordinates, as a SphericalFunction.

    value(x) = prod_j p_j(<x, w_j>); gradient and Hessian come from the exact
    product rule, every term rank-one or rank-two along the fixed directions.
    The ambient representative is smooth on all of R^n, so the homogeneous-
    extension machinery applies verbatim.
    """
    W = np.asarray(directions, dtype=float)
    if W.ndim != 2 or W.shape[1] != n or len(profiles) != W.shape[0]:
        raise DomainError("need one n-vector direction per profile")
    J = W.shape[0]

    def jet(Y, order):
        S = Y @ W.T  # (m, J) linear coordinates
        V = np.stack([profiles[j].fn(S[:, j]) for j in range(J)], axis=1)
        if order == 0:
            return (np.prod(V, axis=1),)
        m = Y.shape[0]
        d1 = [profiles[j].d1(S[:, j]) for j in range(J)]
        G = np.zeros((m, n))
        if order == 2:
            H = np.zeros((m, n, n))
        for j in range(J):
            others = np.prod(np.delete(V, j, axis=1), axis=1)
            G += (d1[j] * others)[:, None] * W[j][None, :]
            if order == 2:
                H += (profiles[j].d2(S[:, j]) * others)[:, None, None] * (
                    W[j][:, None] * W[j][None, :]
                )[None, :, :]
                for l in range(j + 1, J):
                    rest = np.prod(np.delete(V, [j, l], axis=1), axis=1)
                    cross = W[j][:, None] * W[l][None, :] + W[l][:, None] * W[j][None, :]
                    H += (d1[j] * d1[l] * rest)[:, None, None] * cross[None, :, :]
        return (np.prod(V, axis=1), G) + ((H,) if order == 2 else ())

    return SphericalFunction(n, jet, label)
