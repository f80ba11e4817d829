"""Cross-checks of the integral and pointwise identities behind the calculus.

Three independent consistency surfaces:

* weak (integrated) self-adjointness — the first- and second-order
  variational forms with the weight and the perturbation exchanged must give
  the same number; this is the numerical shadow of the divergence theorem
  applied twice on the sphere and is the primary acceptance check;
* pointwise divergence — the cofactor field of Q(phi, .) is covariantly
  divergence-free; checked by central differences in a fixed conformal chart
  (the noisiest computation here, used as a diagnostic, tolerance 1e-3);
* contraction homogeneity — contracting the second-derivative tensor of
  elem_sym(., i) with its own base point drops the order by one, with the
  exact integer constant i-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .functionals import _first_variation_integral, _second_variation_integral
from .symfun import cofactor, cofactor_batch, contract2_batch


@dataclass
class IbpReport:
    """Two evaluations of one integral that differ only by parts.

    The per-side estimates are telescoped over two refinement steps,
    |I(m) - I(m/2)| + |I(m/2) - I(m/4)|: the single gap alone underestimates
    the error whenever consecutive resolutions alias alike (equal-area-spiral
    plateaus, the one-sample noise of the halved MC grid), and the 5x rule
    needs an estimate that stays conservative on those draws too.
    """

    lhs: float
    rhs: float
    lhs_estimate: float
    rhs_estimate: float

    @property
    def residual(self):
        return abs(self.lhs - self.rhs)

    @property
    def combined_estimate(self):
        return self.lhs_estimate + self.rhs_estimate

    def within(self, factor=5.0, floor=1e-9):
        scale = 1.0 + max(abs(self.lhs), abs(self.rhs))
        return self.residual <= factor * self.combined_estimate + floor * scale


def _two_step(integral, grid):
    """I(m) and |I(m) - I(m/2)| + |I(m/2) - I(m/4)|, each level evaluated once."""
    fine, mid = integral(grid), integral(grid.coarse())
    return fine, abs(fine - mid) + abs(mid - integral(grid.coarse().coarse()))


def ibp_symmetry_residual(f, phi, body, i, grid):
    """First-order exchange symmetry: weight-vs-perturbation swap of the
    cofactor-contracted integrand."""
    lhs, el = _two_step(_first_variation_integral(f, body, phi, i, "direct"), grid)
    rhs, er = _two_step(_first_variation_integral(f, body, phi, i, "adjoint"), grid)
    return IbpReport(lhs=lhs, rhs=rhs, lhs_estimate=el, rhs_estimate=er)


def ibp_second_order_residual(f, phi, body, i, grid):
    """Second-order exchange symmetry through the order-2 derivative tensor."""
    lhs, el = _two_step(_second_variation_integral(f, body, phi, i, "quadratic"), grid)
    rhs, er = _two_step(_second_variation_integral(f, body, phi, i, "adjoint"), grid)
    return IbpReport(lhs=lhs, rhs=rhs, lhs_estimate=el, rhs_estimate=er)


# -- pointwise divergence of the cofactor field --------------------------------


def _conformal_chart(u):
    """Chart x -> (point, orthonormal frame) centred at u.

    Inverse stereographic projection from -u, scaled so the differential at
    x = 0 is the identity:  y(x) = ((1-q) u + E x)/(1+q) with q = |x|^2/4.
    The metric is conformally flat in x, so the scaled coordinate frame
    E_a(x) = E_a - (x_a/2)(u + y) is orthonormal at every x and its
    connection coefficients vanish at the centre — central differences of
    frame components there converge to covariant derivatives.
    """
    from .sphere import tangent_frame

    u = np.asarray(u, dtype=float)
    E = tangent_frame(u)

    def at(x):
        x = np.asarray(x, dtype=float)
        q = 0.25 * float(x @ x)
        y = ((1.0 - q) * u + E @ x) / (1.0 + q)
        F = E - 0.5 * np.outer(u + y, x)
        return y, F

    return at


def cheng_yau_pointwise(phi, i, u, step=1e-2):
    """Covariant divergence components of the order-i cofactor field at u.

    Returns the n-1 components; for C^3 data each is O(step^2) up to the
    chart-transport error, and magnitudes <= 1e-3 are expected with the
    default step.  Analytic derivative mode required — double finite
    differencing (FD Hessians then FD divergence) is noise on noise.
    """
    if phi.derivative_mode != "analytic":
        raise DomainError("pointwise divergence needs analytic derivatives")
    n = phi.n
    N = n - 1
    chart = _conformal_chart(u)

    def field(x):
        y, F = chart(x)
        H = phi.extension_hessian(y)
        Q = F.T @ H @ F
        return cofactor(0.5 * (Q + Q.T), i)

    div = np.zeros(N)
    for j in range(N):
        xp = np.zeros(N)
        xp[j] = step
        Tp = field(xp)
        Tm = field(-xp)
        div += (Tp[j, :] - Tm[j, :]) / (2.0 * step)
    return div


def euler_homogeneity_residual(body, i, grid):
    """Max relative deviation of contract2(Q, i, Q) from (i-1) * cofactor(Q, i).

    Zero in exact arithmetic (the derivative tensor of a homogeneous
    polynomial contracted with its base point); the observed value measures
    pure linear-algebra noise and must sit at the 1e-8 scale or below.
    """
    Q = body.q_stack(grid)
    M = contract2_batch(Q, i, Q)
    C = cofactor_batch(Q, i)
    num = np.linalg.norm(M - (i - 1.0) * C, axis=(1, 2))
    den = np.linalg.norm(C, axis=(1, 2))
    if np.any(den == 0.0):
        raise DomainError("degenerate cofactor encountered")
    return float(np.max(num / den))


def homogeneity_constant(body, i, grid):
    """Least-squares constant c with contract2(Q, i, Q) ≈ c * cofactor(Q, i)."""
    Q = body.q_stack(grid)
    M = contract2_batch(Q, i, Q)
    C = cofactor_batch(Q, i)
    num = float(np.sum(M * C))
    den = float(np.sum(C * C))
    if den == 0.0:
        raise DomainError("degenerate cofactor stack")
    return num / den
