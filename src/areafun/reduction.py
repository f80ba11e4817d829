"""Flattened bodies, cylinder splitting, and the equatorial large-R limit.

In ambient dimension 3, the mixed surface-density integral of a nearly flat
body against a long cylinder splits into two parts: an equatorial circle
measure weighted by the cylinder length, and point masses at the two poles
carrying a planar mixed volume.  Everything here realizes that split with
delta-thickened smooth bodies — flat discs, ellipses, and segments become
slim ellipsoids, the point masses emerge as concentration of the density
near the poles — and verifies it in integrated form against a weight
function, including the scaled large-R limit in which only the circle part
survives.

The thickened computations converge as the thickness delta goes to 0 with a
leading error roughly linear in delta, so every verification evaluates at a
few thicknesses and extrapolates linearly to delta = 0, reporting the spread
between extrapolations from different delta pairs as a stability measure.
"""

from dataclasses import dataclass

import numpy as np

from .bodies import MARGIN, SupportBody, combine, ellipsoid
from .errors import DomainError
from .functionals import _mixed_integral, mixed_area_integral, mixed_volume_smooth
from .sphere import SphericalFunction, latitude_grid, make_grid

E3_POLE = np.array([0.0, 0.0, 1.0])


# -- thickened flat bodies ------------------------------------------------------


@dataclass
class FlattenedBody:
    """Planar ellipse with semi-axes (a, b), thickened to a slim ellipsoid.

    body3d is the smooth stand-in used in ambient integrals; planar is the
    genuine two-dimensional ellipse the thickening converges to, used on the
    circle side of every comparison.
    """

    a: float
    b: float
    delta: float
    body3d: SupportBody
    planar: SupportBody

    def rethickened(self, delta):
        return flattened_ellipse(self.a, self.b, delta)


def flattened_ellipse(a, b, delta):
    """Ellipse {x^2/a^2 + y^2/b^2 <= 1} in the equatorial plane, thickness delta."""
    if a <= 0 or b <= 0:
        raise DomainError("ellipse semi-axes must be positive")
    if delta < 1e-3:
        raise DomainError(
            f"thickness {delta:g} is too thin to certify positive curvature; "
            "use delta >= 1e-3"
        )
    return FlattenedBody(
        a=float(a),
        b=float(b),
        delta=float(delta),
        body3d=ellipsoid([a, b, delta], label=f"flat({a:g},{b:g};{delta:g})"),
        planar=ellipsoid([a, b], label=f"ellipse({a:g},{b:g})"),
    )


def needle(delta, half_length=0.5):
    """Slim ellipsoid around a vertical segment of the given half-length.

    The default half-length 1/2 makes it the stand-in for a segment of unit
    total length, the normalization under which the cylinder split carries
    the factor R/2 on its equatorial term.
    """
    if delta < 1e-3:
        raise DomainError("needle thickness must be >= 1e-3 to certify")
    if half_length <= 0:
        raise DomainError("needle half-length must be positive")
    return ellipsoid([delta, delta, half_length], label=f"needle({delta:g})")


def cylinder(R, delta):
    """Unit disc plus R times a unit-length vertical segment, both thickened.

    The support function converges (delta -> 0) to
    sqrt(u1^2 + u2^2) + (R/2) |u3|: a disc-capped cylinder of half-height
    R/2.  The symmetric segment is the translation-invariant stand-in for a
    one-sided unit segment, so mixed quantities agree with either choice.
    """
    if R <= 0:
        raise DomainError("cylinder length R must be positive")
    disc = flattened_ellipse(1.0, 1.0, delta).body3d
    return combine([1.0, float(R)], [disc, needle(delta)], label=f"cyl(R={R:g};{delta:g})")


# -- equatorial restrictions and circle-side quantities ---------------------------


def equator_restriction(f3, label=None):
    """Weight on the circle: f restricted to the equatorial plane u3 = 0.

    The ambient representative of f3 restricted to the plane x3 = 0
    represents the restricted function, so the jet is the leading block of
    f3's jet at (y, 0): the value, the first two gradient entries and the
    upper-left 2x2 Hessian block.
    """
    if f3.n != 3:
        raise DomainError("equator restriction expects a weight on the 2-sphere")

    def jet(Y, order):
        parts = f3._jet(np.column_stack([Y, np.zeros(len(Y))]), order)
        return tuple(d[(slice(None),) + (slice(2),) * k] for k, d in enumerate(parts))

    return SphericalFunction(2, jet, label or f"{f3.label}|equator")


def project_to_plane(body3, label=None):
    """Planar shadow of a body: the support function of the projection onto
    the equatorial plane is h restricted to the equator."""
    if body3.n != 3:
        raise DomainError("projection expects a body in ambient dimension 3")
    h = equator_restriction(body3.h, label=f"h[{body3.label}]|equator")
    return SupportBody(h, label=label)


def abs_weight(f2, label=None):
    """|f2| as a value-only weight: its jet raises DomainError above order 0,
    since |f2| is not differentiable where f2 changes sign."""

    def jet(Y, order):
        if order:
            raise DomainError(f"|{f2.label}| has values only, no derivatives")
        return (np.abs(f2.value(Y)),)

    return SphericalFunction(f2.n, jet, label or f"|{f2.label}|")


def reduction_grid(nz=800, naz=96):
    """Polar-refined sphere grid for nearly flat bodies.

    The mixed density of a thin body against a cylinder concentrates in polar
    caps of height ~ delta^2; Gauss-Legendre nodes in the polar coordinate
    cluster near the poles fast enough to resolve that concentration at
    thickness 0.01, where an equal-area grid of any affordable size misses it.
    """
    return latitude_grid(nz, naz)


def circle_grid(m=2048):
    return make_grid(2, m)


def _circle_side(f, K1, circle):
    """f's equatorial restriction, its integral against the curvature density
    of the planar K1, and the planar mixed volume of the unit disc with K1:
    the mass of each polar point measure."""
    f_eq = equator_restriction(f)
    eq_integral, _ = mixed_area_integral(f_eq, [K1.planar], circle)
    vol, _ = mixed_volume_smooth([ellipsoid([1.0, 1.0]), K1.planar], circle)
    return f_eq, eq_integral, vol


# -- delta extrapolation -----------------------------------------------------------


def _flat_inputs(K1, deltas, grid, circle):
    """Check K1, order the thicknesses largest first and default the grids.

    The extrapolation divides by differences of thicknesses, so it needs at
    least two and no repeats; that is checked before any integral runs."""
    if not isinstance(K1, FlattenedBody):
        raise DomainError("K1 must be a FlattenedBody")
    deltas = tuple(sorted((float(d) for d in deltas), reverse=True))
    if len(set(deltas)) < max(len(deltas), 2):
        raise DomainError(
            f"delta extrapolation needs at least two distinct thicknesses, got {deltas}"
        )
    grid = reduction_grid() if grid is None else grid
    circle = circle_grid() if circle is None else circle
    return deltas, grid, circle


def _thickened(weight, K1, partner, deltas, grid):
    """(value, estimate) of the mixed integral of weight against K1 and
    partner(d), both at thickness d, for each d, once the fine grid's least
    form eigenvalues certify each body."""
    out = []
    for d in deltas:
        bodies = [K1.rethickened(d).body3d, partner(d)]
        value, est, minima = _mixed_integral(weight, bodies, grid)
        for body, least in zip(bodies, minima):
            if least < MARGIN:
                raise DomainError(
                    f"{body.label}: curvature certificate failed at thickness {d:g} "
                    f"(min eigenvalue {least:.3e}); increase delta"
                )
        out.append((value, est))
    return out


def _extrapolate(deltas, values):
    """Linear extrapolation to delta = 0 from the last two thicknesses, plus
    the spread against the extrapolation from the first two as a stability
    measure."""

    def pair(d1, v1, d2, v2):
        return v2 + (v1 - v2) * (0.0 - d2) / (d1 - d2)

    last = pair(deltas[-2], values[-2], deltas[-1], values[-1])
    first = pair(deltas[0], values[0], deltas[1], values[1])
    return last, abs(last - first)


# -- the cylinder splitting identity ------------------------------------------------


@dataclass
class CylinderSplitReport:
    R: float
    deltas: tuple
    lhs_values: list
    lhs_estimates: list
    lhs_extrapolated: float
    extrapolation_spread: float
    equator_term: float
    pole_term: float
    rhs: float
    rhs_scale: float

    @property
    def residual(self):
        return abs(self.lhs_extrapolated - self.rhs)

    @property
    def relative_residual(self):
        return self.residual / self.rhs_scale


def cylinder_lemma_residual(
    f, K1, R, deltas=(0.05, 0.02, 0.01), grid=None, circle=None
):
    """Verify the cylinder splitting identity in integrated form.

    Left side: the mixed surface-density integral of f against (K1, cylinder)
    at each thickness, extrapolated to zero thickness.  Right side, computed
    entirely on the circle: (R/2) times the equatorial integral of f against
    the curvature density of the planar K1, plus the planar mixed volume of
    K1 with the unit disc times f(pole) + f(-pole) — the two point masses the
    flat limit concentrates at the poles.

    The relative residual is measured against the magnitude of the right
    side's ingredients (not their signed sum, which a symmetry may cancel).
    """
    if f.n != 3:
        raise DomainError("the cylinder split is an ambient-dimension-3 statement")
    deltas, grid, circle = _flat_inputs(K1, deltas, grid, circle)
    if any(not 0.01 <= d <= 0.1 for d in deltas):
        raise DomainError("thickness sweep must stay within [0.01, 0.1]")

    lhs = _thickened(f.value, K1, lambda d: cylinder(R, d), deltas, grid)
    lhs_values, lhs_estimates = (list(col) for col in zip(*lhs))
    extrapolated, spread = _extrapolate(deltas, lhs_values)

    f_eq, eq_integral, vol = _circle_side(f, K1, circle)
    equator_term = 0.5 * R * eq_integral
    pole_term = vol * (f.value(E3_POLE) + f.value(-E3_POLE))
    rhs = equator_term + pole_term

    eq_abs, _ = mixed_area_integral(abs_weight(f_eq, label="|f||equator"), [K1.planar], circle)
    rhs_scale = max(
        0.5 * R * eq_abs + vol * (abs(f.value(E3_POLE)) + abs(f.value(-E3_POLE))),
        1e-12,
    )
    return CylinderSplitReport(
        R=float(R),
        deltas=deltas,
        lhs_values=lhs_values,
        lhs_estimates=lhs_estimates,
        lhs_extrapolated=extrapolated,
        extrapolation_spread=spread,
        equator_term=equator_term,
        pole_term=pole_term,
        rhs=rhs,
        rhs_scale=rhs_scale,
    )


# -- segment factor: one ambient slot worth half a circle -----------------------------


@dataclass
class SegmentFactorReport:
    deltas: tuple
    ambient_values: list  # 3 V(L, K1_delta, needle_delta) per thickness
    ambient_extrapolated: float
    extrapolation_spread: float
    planar_value: float

    @property
    def residual(self):
        return abs(self.ambient_extrapolated - self.planar_value)

    @property
    def relative_residual(self):
        return self.residual / max(abs(self.planar_value), 1e-12)


def segment_factor_identity(K1, L, deltas=(0.05, 0.02, 0.01), grid=None, circle=None):
    """Trading a vertical unit segment for a planar slot.

    Three times the ambient mixed volume of (L, K1, unit segment) equals the
    planar mixed volume of the equatorial shadows of L and K1; the segment
    contributes only its length and a dimension drop.  Both sides are
    computed independently — the segment as a thickness-extrapolated needle,
    the planar side directly on the circle.
    """
    if L.n != 3:
        raise DomainError("L must live in ambient dimension 3")
    deltas, grid, circle = _flat_inputs(K1, deltas, grid, circle)

    sweep = _thickened(L.support, K1, needle, deltas, grid)
    # 3 V(L, K1, needle), as mixed_volume_smooth rounds V
    vals = [3.0 * (v / 3) for v, _ in sweep]
    extrapolated, spread = _extrapolate(deltas, vals)
    planar, _ = mixed_volume_smooth([project_to_plane(L), K1.planar], circle)
    return SegmentFactorReport(
        deltas=deltas,
        ambient_values=vals,
        ambient_extrapolated=extrapolated,
        extrapolation_spread=spread,
        planar_value=planar,
    )


# -- the large-R limit: only the equator survives -------------------------------------


@dataclass
class ReductionLimitReport:
    R_list: tuple
    deltas: tuple
    scaled_values: list  # (1/R) * extrapolated ambient integral, per R
    pole_mass: float  # R-independent polar contribution
    corrected_values: list  # scaled values with the polar contribution removed
    circle_value: float  # (1/2) * equatorial integral, the limit
    raw_errors: list
    corrected_errors: list

    @property
    def decay_ratios(self):
        """Successive raw-error ratios; ~ R ratio when the error decays like 1/R."""
        return [
            self.raw_errors[k] / max(self.raw_errors[k + 1], 1e-15)
            for k in range(len(self.raw_errors) - 1)
        ]


def dimension_reduction_limit(
    f, K1, R_list=(2, 8, 32), deltas=(0.02, 0.01), grid=None, circle=None
):
    """Scaled cylinder functionals converging onto the circle functional.

    (1/R) times the mixed integral against (K1, cylinder of length R) tends,
    as R grows, to half the equatorial integral of f against the planar K1's
    curvature density.  The polar point masses are R-independent, so the raw
    scaled values approach the limit at rate 1/R exactly; removing the
    independently computed polar contribution exposes the limit at moderate R
    already.  Both the raw decay and the corrected values are reported, in
    ascending order of R, which must not repeat.
    """
    if f.n != 3:
        raise DomainError("the reduction limit is an ambient-dimension-3 statement")
    deltas, grid, circle = _flat_inputs(K1, deltas, grid, circle)
    R_list = tuple(sorted(float(R) for R in R_list))
    if any(R <= 0 for R in R_list):
        raise DomainError("cylinder lengths must be positive")
    if len(set(R_list)) < len(R_list):
        raise DomainError(f"cylinder lengths must be distinct, got {R_list}")

    _, eq_integral, vol = _circle_side(f, K1, circle)
    circle_value = 0.5 * eq_integral
    pole_mass = vol * (f.value(E3_POLE) + f.value(-E3_POLE))

    scaled, corrected = [], []
    for R in R_list:
        sweep = _thickened(f.value, K1, lambda d: cylinder(R, d), deltas, grid)
        extrapolated, _ = _extrapolate(deltas, [v for v, _ in sweep])
        scaled.append(extrapolated / R)
        corrected.append((extrapolated - pole_mass) / R)
    scale = max(abs(circle_value), 1e-12)
    return ReductionLimitReport(
        R_list=R_list,
        deltas=deltas,
        scaled_values=scaled,
        pole_mass=pole_mass,
        corrected_values=corrected,
        circle_value=circle_value,
        raw_errors=[abs(v - circle_value) / scale for v in scaled],
        corrected_errors=[abs(v - circle_value) / scale for v in corrected],
    )

