"""Cross-checks of the integral identities behind the calculus.

Weak (integrated) self-adjointness: the first- and second-order variational
forms with the weight and the perturbation exchanged must give the same
number.  This is the numerical shadow of the divergence theorem applied twice
on the sphere (the weighted cofactor field is divergence-free) and is the
primary acceptance check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .functionals import _sweep


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

    def within(self, factor=5.0):
        scale = 1.0 + max(abs(self.lhs), abs(self.rhs))
        return self.residual <= factor * self.combined_estimate + 1e-9 * scale


def _two_step(integral, grid):
    """I(m) and |I(m) - I(m/2)| + |I(m/2) - I(m/4)|, each level evaluated once."""
    fine, mid = integral(grid), integral(grid.coarse())
    return fine, abs(fine - mid) + abs(mid - integral(grid.coarse().coarse()))


def _exchange(f, phi, body, i, grid, rows):
    """The report of the two rows, both from one node sweep per ladder level."""
    (lhs, rhs), (el, er) = _two_step(lambda g: _sweep(f, body, phi, i, g, rows)[0], grid)
    return IbpReport(lhs=float(lhs), rhs=float(rhs), lhs_estimate=float(el), rhs_estimate=float(er))


def ibp_symmetry_residual(f, phi, body, i, grid):
    """First-order exchange symmetry: weight-vs-perturbation swap of the
    cofactor-contracted integrand.  Both forms share each block's frames and
    cofactor(Q_K, i)."""
    return _exchange(f, phi, body, i, grid, ("first/direct", "first/adjoint"))


def ibp_second_order_residual(f, phi, body, i, grid):
    """Second-order exchange symmetry through the order-2 derivative tensor."""
    return _exchange(f, phi, body, i, grid, ("second/quadratic", "second/adjoint"))
