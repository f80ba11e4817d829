"""Cross-checks of the integral identities behind the calculus.

Weak (integrated) self-adjointness: the first- and second-order variational
forms with the weight and the perturbation exchanged must give the same
number.  This is the numerical shadow of the divergence theorem applied twice
on the sphere (the weighted cofactor field is divergence-free) and is the
primary acceptance check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .functionals import _first_variation_integral, _second_variation_integral


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
