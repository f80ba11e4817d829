"""Rotation-group mollification.

f_k(u) = sum_m w_m f(rho_m u) over rotations near the identity, weights from
a compactly supported C-infinity profile of ||rho - id||.  Averages converge
uniformly to f as k grows and preserve every property expressible as "for
all rotations rho, ..." — in particular the eigenvalue-sum conditions, which
are linear in the Hessian form.  A *finite* rotation sum does not gain
smoothness class: kinks of a Lipschitz f survive (rotated) in every term.
For genuinely C^2 versions of kinked profiles use the explicit cap/step
constructions of the profile toolbox in areafun.experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import check_mi
from .errors import DomainError, KernelError
from .sphere import SphericalFunction, inner_block


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
    matter for the finite sum.  Accepted rotations whose weight underflows to
    0 are dropped, so the kernel holds no zero weight.
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
        keep = w > 0.0
        return cls(
            n=n, k=int(k), rotations=rotations[keep], weights=w[keep] / total, seed=int(seed)
        )


# rotated points per evaluation block: bounds the (points, n, n) Hessian stack
_ROTATION_BLOCK = 1 << 13


class RotationAverage(SphericalFunction):
    """u -> sum_m w_m f(R_m u) over the rotations and weights of a kernel.

    f's jet is evaluated once per inner block of nodes on the stacked rotated
    points Y R_cat^T, with R_cat = [R_1; ...; R_M] of shape (M n, n) and at
    most _ROTATION_BLOCK rotated points per block (sphere.inner_block).  The
    weights then reduce each block in one product per order: values against
    w, gradients sum_m w_m R_m^T grad f(R_m y) and Hessians
    sum_m w_m R_m^T Hess f(R_m y) R_m against the weighted stack
    [w_1 R_1; ...; w_M R_M].
    """

    def __init__(self, f, kernel):
        if kernel.n != f.n:
            raise DomainError("kernel and function dimensions differ")
        self.kernel = kernel
        n, R, w = f.n, kernel.rotations, kernel.weights
        R_cat = R.reshape(-1, n)
        W_cat = (w[:, None, None] * R).reshape(-1, n)
        block = inner_block(_ROTATION_BLOCK, len(R))
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

        super().__init__(n, jet, f"{f.label}~k{kernel.k}")


def mollify(f, k, samples=200, seed=0, kernel=None):
    """Rotation average of f with the scale-k kernel, as a RotationAverage.

    The result evaluates sum_m w_m f(rho_m u); derivatives pass through the
    finite sum term by term, so they are as exact as f's.  The kernel
    is fixed per (k, seed): repeated calls with the same arguments define the
    same function.
    """
    if kernel is None:
        kernel = MollifierKernel.build(f.n, k, samples, seed)
    return RotationAverage(f, kernel)


def mollify_preserves_monotone(f, i, k, grid, samples=200, seed=0):
    """Check the order-i condition on the mollified function.

    The per-point condition is linear in the Hessian form and the form of a
    rotation average is the average of rotated forms, so averaging preserves
    the condition exactly — up to sampling, this check should never flip a
    satisfied verdict to violated.
    """
    fk = mollify(f, k, samples=samples, seed=seed)
    return check_mi(fk, i, grid)


def sup_distance(f, g, grid):
    """max |f - g| over grid nodes."""
    return float(np.max(np.abs(f.value(grid.nodes) - g.value(grid.nodes))))
