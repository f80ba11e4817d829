"""Verification and falsification drivers.

This module turns the pointwise eigenvalue-sum checks into statements about
bodies: empirical monotonicity over certified nested pairs, constructive
counterexamples when the pointwise condition fails, segment probes of power
concavity, and a second-order violation hunt driven by oscillating localized
perturbations.  It also owns the deterministic test-function corpus shared by
the acceptance suite and the command line.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import (
    SupportBody,
    ball,
    certify_c2plus,
    combine,
    ellipsoid,
    largest_certified_strength,
    perturb,
    realize_q,
)
from .conditions import EigenSumScan, check_mi, default_tolerance
from .errors import DomainError, SearchError
from .functionals import (
    concavity_criterion,
    first_variation,
    functional_difference,
    functional_segment,
    functional_value,
    power_concavity,
    second_variation,
)
from .mollify import (
    Profile,
    plateau_cutoff,
    product_profile,
    ramp_cutoff,
    scaled_profile,
    separable_function,
    triangle_wave,
)
from .sphere import (
    SphericalFunction,
    bump,
    cap_grid,
    combination,
    constant,
    make_grid,
    panel_grid,
    polynomial,
    q_matrix,
    quadratic_support,
    sphere_area,
    tangent_frame,
)
from .symfun import contract2, elem_sym_batch, trace_pair

# -- localized oscillating perturbations ---------------------------------------


class Oscillation(SphericalFunction):
    """The separable function built by oscillating_phi, with the patch it
    lives on: center u0, axis v, tangent frame (first column v), patch radius
    rho, amplitude eps and wave smoothing eta, as _oscillation_panel_grid
    reads them."""

    def __init__(self, base, center, axis, frame, patch_radius, amplitude, wave_smoothing):
        super().__init__(base.n, base._phi, base._grad, base._hess, base.label)
        self.center = center
        self.axis = axis
        self.frame = frame
        self.patch_radius = float(patch_radius)
        self.amplitude = float(amplitude)
        self.wave_smoothing = float(wave_smoothing)


def oscillating_phi(u0, v, rho, eps, n, eta=0.0):
    """Zero-mean oscillation of amplitude eps along tangent direction v at u0.

    In graph coordinates x_a = <u, e_a> on the radius-rho patch around u0
    (first axis e_1 = v) the function is

      eps * (wave(x_1/eps) - 1/2) * cutoff(x_1) * prod_a cutoff(x_a) * ramp(<u, u0>)

    wave is the period-2 unit triangle wave, so the x_1-slope has modulus ~1
    while the amplitude is only eps/2.  Centering the wave matters: against a
    smooth weight a zero-mean oscillation integrates to O(eps^2), so the
    first variation stays far below the second-order signal; the raw
    nonnegative washboard would instead contribute its mean.  The cutoffs
    hold a plateau on 60% of the patch radius (the oscillation does its work
    at full strength there) and fall to 0 at rho; the hemisphere ramp kills
    the antipodal copy of the patch coordinates and is constant on the
    support, so it contributes nothing to derivatives there.

    eta > 0 replaces the wave kinks by a C^2 cap within eta of each kink
    (costing 3*eta/8 of relative amplitude), giving exact second derivatives.
    eta = 0 is the raw Lipschitz profile: derivative arrays then report
    almost-everywhere values, valid in integrals pairing at most one
    derivative but meaningless where a kink lands on a sample point.
    """
    u0 = np.asarray(u0, dtype=float)
    v = np.asarray(v, dtype=float)
    if u0.shape != (n,) or v.shape != (n,):
        raise DomainError("u0 and v must be n-vectors")
    if abs(np.linalg.norm(u0) - 1.0) > 1e-10 or abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise DomainError("u0 and v must be unit vectors")
    if abs(float(u0 @ v)) > 1e-8:
        raise DomainError("v must be tangent at u0")
    if eps <= 0:
        raise DomainError("amplitude eps must be positive")
    # the hemisphere ramp transitions on <u,u0> in [0.3, 0.5], where
    # |x| = sqrt(1 - <u,u0>^2) >= 0.866; the patch cutoffs must already
    # vanish there, i.e. rho < 0.866/sqrt(n-1)
    if not (0 < rho <= 0.8 / math.sqrt(n - 1)):
        raise DomainError(f"need 0 < rho <= {0.8 / math.sqrt(n - 1):.3f} for n={n}")

    # orthonormal tangent basis with first column v: v completed by the frame
    # axes at u0 other than the one most aligned with it, a system of full
    # rank for every tangent v
    E0 = tangent_frame(u0)
    drop = int(np.argmax(np.abs(v @ E0)))
    frame, _ = np.linalg.qr(np.column_stack([v, np.delete(E0, drop, axis=1)]))
    if frame[:, 0] @ v < 0:
        frame[:, 0] = -frame[:, 0]

    cut = plateau_cutoff(0.6 * rho, rho)
    scaled = scaled_profile(triangle_wave(eta), eps, eps)
    centered = Profile(
        lambda t: scaled.fn(t) - 0.5 * eps, scaled.d1, scaled.d2, f"centered({scaled.label})"
    )
    wave = product_profile(centered, cut)
    profiles = [wave] + [cut] * (n - 2) + [ramp_cutoff(0.3, 0.5)]
    dirs = np.column_stack([frame, u0]).T
    label = f"osc[eps={eps:g},rho={rho:g},eta={eta:g}]"
    return Oscillation(
        separable_function(n, dirs, profiles, label=label), u0, v, frame, rho, eps, eta
    )


# -- corpus ---------------------------------------------------------------------

CORPUS_SEED = 0xC0FFEE


@dataclass
class CorpusEntry:
    label: str
    f: SphericalFunction

    @property
    def n(self):
        return self.f.n


def _monomials(n, degree):
    out = []
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            e = [0] * n
            for j in combo:
                e[j] += 1
            out.append(tuple(e))
    return out


def _random_poly(rng, n, degree, scale, base, label):
    terms = {tuple([0] * n): base}
    for e in _monomials(n, degree):
        terms[e] = scale * rng.normal()
    return polynomial(n, terms, label=label)


def _saddle(n, c):
    terms = {tuple([0] * n): 1.0}
    e1 = [0] * n
    e1[0] = 2
    e2 = [0] * n
    e2[1] = 2
    terms[tuple(e1)] = c
    terms[tuple(e2)] = -c
    return polynomial(n, terms, label=f"saddle{n}({c:g})")


def _random_spd(rng, n, spread=0.5):
    B = rng.normal(size=(n, n)) * spread
    return B @ B.T + np.eye(n)


def corpus(seed=CORPUS_SEED):
    """Deterministic 30-function test corpus over dimensions 3 and 4.

    Mix of constants, affine-positive weights, ellipsoid support functions,
    random polynomials of degree up to 4, smooth bumps, and quadratic
    two-axis profiles pinned inside the window where the top-order condition
    fails decisively while order 1 still holds.  Every pinned profile stays
    strictly positive, so its functionals are positive on every body.
    """
    rng = np.random.default_rng(seed)
    entries = []

    def add(label, f):
        entries.append(CorpusEntry(label=label, f=f))

    # dimension 3
    add("const-1", constant(3, 1.0))
    add("const-2.5", constant(3, 2.5))
    add("affine-z", polynomial(3, {(0, 0, 0): 1.0, (0, 0, 1): 0.3}, label="affine-z"))
    add("support-ell-1", quadratic_support(np.diag([1.5**2, 1.0, 0.7**2]), label="support-ell-1"))
    add("support-rand-1", quadratic_support(_random_spd(rng, 3), label="support-rand-1"))
    for j in range(4):
        add(f"poly2-{j}", _random_poly(rng, 3, 2, 0.12, 1.0, f"poly2-{j}"))
    for j in range(2):
        add(f"poly3-{j}", _random_poly(rng, 3, 3, 0.05, 1.2, f"poly3-{j}"))
    for j in range(2):
        add(f"poly4-{j}", _random_poly(rng, 3, 4, 0.04, 1.2, f"poly4-{j}"))
    add(
        "bump-pole",
        combination(
            [1.0, 0.5], [constant(3, 1.0), bump(3, np.array([0.0, 0.0, 1.0]), 4.0)],
            label="bump-pole",
        ),
    )
    u_rand = rng.normal(size=3)
    u_rand /= np.linalg.norm(u_rand)
    add(
        "bump-dip",
        combination([1.0, -0.3], [constant(3, 2.0), bump(3, u_rand, 6.0)], label="bump-dip"),
    )
    add("saddle3-0.42", _saddle(3, 0.42))
    add("saddle3-0.45", _saddle(3, 0.45))
    add("saddle3-0.48", _saddle(3, 0.48))

    # dimension 4
    add("const4-1", constant(4, 1.0))
    add(
        "support4-ell",
        quadratic_support(np.diag([1.3**2, 1.0, 0.8**2, 0.6**2]), label="support4-ell"),
    )
    add("support4-rand", quadratic_support(_random_spd(rng, 4, 0.4), label="support4-rand"))
    for j in range(3):
        add(f"poly2-4d-{j}", _random_poly(rng, 4, 2, 0.1, 1.0, f"poly2-4d-{j}"))
    add("poly3-4d", _random_poly(rng, 4, 3, 0.04, 1.2, "poly3-4d"))
    add("poly4-4d", _random_poly(rng, 4, 4, 0.03, 1.2, "poly4-4d"))
    add(
        "bump4",
        combination(
            [1.0, 0.5], [constant(4, 1.0), bump(4, np.array([0.0, 0.0, 0.0, 1.0]), 5.0)],
            label="bump4",
        ),
    )
    add("saddle4-0.55", _saddle(4, 0.55))
    add("saddle4-0.58", _saddle(4, 0.58))
    add(
        "aniso-4d",
        polynomial(
            4,
            {(0, 0, 0, 0): 1.0, (2, 0, 0, 0): 0.5, (0, 2, 0, 0): -0.35, (0, 0, 2, 0): -0.1},
            label="aniso-4d",
        ),
    )

    assert len(entries) == 30
    return entries


def default_grids(res3=8192, res4=65536, seed4=1):
    return {3: make_grid(3, res3), 4: make_grid(4, res4, seed=seed4)}


# -- nested pairs and empirical monotonicity -------------------------------------


def nested_pairs(n, count, seed=0, grid=None):
    """Certified nested body pairs (K, L), K inside L.

    L = K + r*ball + translation with |shift| <= r/2, so h_L - h_K =
    r + <shift, u> >= r/2 pointwise — inclusion holds by construction, no
    grid search involved.  Bases are random ellipsoids and two-ellipsoid
    Minkowski combinations.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for j in range(count):
        axes = rng.uniform(0.6, 1.6, size=n)
        K = ellipsoid(axes)
        if j % 3 == 2:  # every third base: Minkowski sum of two ellipsoids
            K = combine([0.6, 0.4], [K, ellipsoid(rng.uniform(0.6, 1.6, size=n))])
        r = rng.uniform(0.1, 0.5)
        shift = rng.normal(size=n)
        shift *= rng.uniform(0.0, 0.5) * r / np.linalg.norm(shift)
        L = combine([1.0, 1.0], [K, ball(n, r)]).translate(shift)
        pairs.append((K, L))
    return pairs


def check_nested(K, L, grid, slack=1e-12):
    """Grid check of h_K <= h_L; raises DomainError on failure."""
    gap = L.support(grid.nodes) - K.support(grid.nodes)
    worst = float(np.min(gap))
    if worst < -slack:
        raise DomainError(f"pair is not nested: support gap reaches {worst:.3e}")
    return worst


@dataclass
class MonotonicityReport:
    order: int
    checked: int
    violations: list
    rows: list
    tolerance_factor: float

    @property
    def consistent(self):
        return not self.violations


def monotonicity_test(f, i, pairs, grid, tol_factor=10.0):
    """Empirical monotonicity of the order-i functional over nested pairs.

    Evaluates F(K) - F(L) as a single correlated difference integral; a pair
    is a violation when the drop exceeds tol_factor times its quadrature
    estimate (plus a floor).  K inside L should give F(K) <= F(L) whenever
    the weight satisfies the order-i condition.
    """
    rows = []
    violations = []
    for idx, (K, L) in enumerate(pairs):
        check_nested(K, L, grid)
        drop, est = functional_difference(f, K, L, i, grid)
        threshold = tol_factor * est + 1e-9 * (1.0 + abs(drop))
        row = {
            "pair": idx,
            "drop": drop,  # F(K) - F(L); positive means decrease under inclusion
            "estimate": est,
            "threshold": threshold,
            "violation": bool(drop > threshold),
        }
        rows.append(row)
        if row["violation"]:
            violations.append(row)
    return MonotonicityReport(
        order=int(i),
        checked=len(pairs),
        violations=violations,
        rows=rows,
        tolerance_factor=float(tol_factor),
    )


# -- constructive monotonicity counterexample ------------------------------------


@dataclass
class CounterexampleReport:
    order: int
    u_star: np.ndarray
    worst_value: float
    kappa: float
    s: float
    value_inner: float  # F(K)
    value_outer: float  # F(L), K inside L
    drop: float
    threshold: float
    first_variation: float
    delta_reg: float
    diagnostics: list = field(default_factory=list)
    body_inner: SupportBody = None
    body_outer: SupportBody = None

    @property
    def decisive(self):
        return self.drop > self.threshold


def _violating_form(f, i, u_star, delta_reg):
    """Curvature form A at u_star making the order-i density pairing with f
    as negative as the pointwise scan promises.

    A shares the eigenframe of Q(f, u*) with eigenvalues 1 + delta on a
    boosted subset of directions and delta elsewhere.  Boosting the i-1
    largest eigendirections makes trace(cofactor(A, i) Q_f) approach the sum
    of the n-i smallest eigenvalues — the scanned quantity — as delta -> 0,
    so a negative pairing is always available when the scan is negative;
    but other subsets can pair more negatively still, and larger subsets
    leave the realized body fewer near-degenerate axes (hence certification
    room for wider, more effective bumps).  So the subset is chosen to
    minimize the pairing, tie-breaking near the minimum toward more boosted
    directions.  For order 1 the cofactor is the identity whatever A is, so
    the unit form serves.
    """
    E = tangent_frame(u_star)
    Qf = q_matrix(f, u_star, E)
    mu, V = np.linalg.eigh(Qf)
    N = len(mu)
    if i == 1:
        return np.eye(N), Qf, E
    options = []
    for r in range(N + 1):
        for boosted in itertools.combinations(range(N), r):
            a = np.full(N, float(delta_reg))
            a[list(boosted)] += 1.0
            val = trace_pair(np.diag(a), np.diag(mu), i)
            options.append((val, r, a))
    val_min = min(val for val, _, _ in options)
    slack = 0.05 * abs(val_min)
    a = max(
        (opt for opt in options if opt[0] <= val_min + slack),
        key=lambda opt: opt[1],
    )[2]
    A = (V * a) @ V.T
    return A, Qf, E


_CAP_LOG_CUTOFF = 30.0  # exp(-30) ~ 1e-13: bump tail beyond the cap is negligible


def _bump_cap(u_star, kappa):
    """Cap grid resolving a sharpness-kappa bump perturbation at u_star, and
    its angular radius theta_max.

    The density change under a bump has a negative core and a positive
    shoulder whose integrals nearly cancel; equal-weight global grids see the
    O(kappa^2)-sized pieces but not their small sum, and for sharp bumps they
    barely sample the core at all.  The polar Gauss-Legendre rule integrates
    that radial structure spectrally.  The angular cutoff puts the bump below
    exp(-_CAP_LOG_CUTOFF) of its peak outside the cap.
    """
    n = len(u_star)
    if n == 2:
        return None, None  # circle grids are already spectrally accurate
    theta_max = math.acos(max(-0.96, 1.0 - _CAP_LOG_CUTOFF / (2.0 * kappa)))
    transverse = 256 if n == 3 else 640 if n == 4 else 4096
    return cap_grid(u_star, theta_max, 160, transverse), theta_max


def _bump_tail_bound(n, i, kappa, s, theta_max, fmax, qmax):
    """Bound on the functional difference contributed outside the cap.

    Pointwise, |e_i(Q + sP) - e_i(Q)| <= N C(N-1, i-1) max(lam)^{i-1} s |P|
    along the (certified, hence positive) pencil, and the bump together with
    its first two extension derivatives stays below 8 kappa^2 times its
    value, which beyond theta_max is below exp(-2 kappa (1 - cos theta_max)).
    """
    N = n - 1
    p = 8.0 * kappa * kappa * math.exp(-2.0 * kappa * (1.0 - math.cos(theta_max)))
    lam = max(qmax + s * 8.0 * kappa * kappa, 0.0)
    return sphere_area(n) * fmax * N * math.comb(N - 1, i - 1) * lam ** (i - 1) * s * p


def monotonicity_counterexample(
    f,
    i,
    grid,
    tol=None,
    kappas=(10.0, 30.0, 100.0, 300.0),
    s_values=None,
    delta_regs=(1e-3, 0.03, 0.1),
    drop_factor=10.0,
    margin_target=25.0,
    scan=None,
):
    """Construct nested bodies K inside L with F(K) > F(L).

    Requires the order-i condition to fail decisively for f.  The inner body
    realizes, at the scanned worst direction, a curvature form whose order-i
    density pairs negatively with f; the outer body adds a positive bump
    there.  Sharper bumps keep the perturbation where the pairing is
    negative, but delta_reg caps the certifiable strength: the realized
    body's minimum curvature *is* delta_reg, at the very point being bumped,
    so s_max ~ delta_reg / |min curvature of the bump form|.  Hence the sweep
    is over regularizations and bump widths jointly, probing per pair the
    largest strength whose endpoint certifies (curvature is concave along
    the pencil, so endpoint certification covers the whole segment).

    Certification runs on the caller's whole-sphere grid; the probed drop
    F(K) - F(L) is integrated on a cap grid around the bump, plus an explicit
    bound on the tail left outside, because the bump's density change is a
    localized near-cancellation that global grids misintegrate.

    The sweep keeps the best decisive candidate and stops early once its
    drop clears the decision threshold by margin_target; the first decisive
    hit often sits at the smallest regularization, where certification caps
    the strength and the margin with it.  Raises SearchError (with the sweep
    diagnostics) if nothing is decisive.  A caller already holding the
    EigenSumScan of f on grid passes it as scan.
    """
    tol = default_tolerance(f) if tol is None else float(tol)
    rep = check_mi(f, i, grid, scan=scan)
    if not (rep.verdict == "violated" and rep.worst_value < -10.0 * tol):
        raise SearchError(
            f"precondition: order-{i} condition not decisively violated "
            f"(worst {rep.worst_value:.3e}, needs < {-10.0 * tol:.3e})"
        )
    u_star = rep.worst_node

    if s_values is None:
        s_values = np.geomspace(1e-5, 1e-1, 9)
    s_values = np.sort(np.asarray(s_values, dtype=float))[::-1]
    if i == 1:
        delta_regs = (1.0,)  # the form is the identity; no regularization role

    diagnostics = []
    bumps = [bump(f.n, u_star, kappa) for kappa in kappas]
    caps = [_bump_cap(u_star, kappa) for kappa in kappas]
    fmax = float(np.max(np.abs(f.value(grid.nodes))))
    best = None

    for delta_reg in delta_regs:
        A, Qf, _ = _violating_form(f, i, u_star, delta_reg)
        K = realize_q(A, u_star, label=f"cex-inner[{f.label},i={i},d={delta_reg:g}]")
        pairing = trace_pair(A, Qf, i)  # ~ worst_value for small delta_reg
        F_K, est_K = functional_value(f, K, i, grid)
        qmax = float(np.max(K.q_eigs(grid)))
        diagnostics.append(
            {
                "stage": "setup",
                "delta_reg": delta_reg,
                "worst_value": rep.worst_value,
                "pairing": pairing,
                "F_K": F_K,
                "estimate_K": est_K,
            }
        )

        # wide bumps first: their certified strength scales like
        # delta_reg/kappa, and the drop scales with strength times mass, so
        # width wins whenever the first variation has the right sign
        candidates = []
        for kappa, phi, (cap, theta_max) in zip(kappas, bumps, caps):
            dF, dF_est = first_variation(f, K, phi, i, cap or grid, form="direct")
            candidates.append((dF, kappa, phi, cap, theta_max))
            diagnostics.append(
                {
                    "stage": "bump",
                    "delta_reg": delta_reg,
                    "kappa": kappa,
                    "first_variation": dF,
                    "estimate": dF_est,
                }
            )

        qmin = float(np.min(K.q_eigs(grid)))
        for dF, kappa, phi, cap, theta_max in candidates:
            if dF >= 0:
                continue
            # the bump's most negative curvature is 1 - 2 kappa at its
            # center, so strengths above ~ qmin / (2 kappa - 1) cannot
            # certify; start the sweep just above that instead of burning
            # whole-sphere eigenvalue passes on hopeless strengths
            s_guess = 1.25 * qmin / max(2.0 * kappa - 1.0, 1.0)
            certified = False
            for s in s_values:
                if s > s_guess:
                    continue
                if not certified:
                    cert = certify_c2plus(perturb(K, phi, s), grid)
                    if not cert.ok:
                        diagnostics.append(
                            {
                                "stage": "certify",
                                "delta_reg": delta_reg,
                                "kappa": kappa,
                                "s": s,
                                "min_eig": cert.min_eig,
                            }
                        )
                        continue
                    certified = True  # smaller s certified too: concave level
                L = perturb(K, phi, s)
                drop, est = functional_difference(f, K, L, i, cap or grid)
                tail = (
                    _bump_tail_bound(f.n, i, kappa, s, theta_max, fmax, qmax)
                    if cap is not None
                    else 0.0
                )
                threshold = drop_factor * est + tail + 1e-9 * (1.0 + abs(F_K))
                diagnostics.append(
                    {
                        "stage": "probe",
                        "delta_reg": delta_reg,
                        "kappa": kappa,
                        "s": s,
                        "drop": drop,
                        "threshold": threshold,
                    }
                )
                if drop > threshold:
                    candidate = CounterexampleReport(
                        order=int(i),
                        u_star=u_star,
                        worst_value=rep.worst_value,
                        kappa=float(kappa),
                        s=float(s),
                        value_inner=F_K,
                        value_outer=F_K - drop,
                        drop=drop,
                        threshold=threshold,
                        first_variation=dF,
                        delta_reg=float(delta_reg),
                        body_inner=K,
                        body_outer=L,
                    )
                    if best is None or candidate.drop / candidate.threshold > best.drop / best.threshold:
                        best = candidate
                    break  # smaller strengths only shrink this bump's drop
            if best is not None and best.drop / best.threshold >= margin_target:
                break
        if best is not None and best.drop / best.threshold >= margin_target:
            break
    if best is not None:
        best.diagnostics = diagnostics
        return best
    raise SearchError(
        f"no decisive monotonicity counterexample for {f.label} at order {i}",
        diagnostics=diagnostics,
    )


# -- segment probes of power concavity -------------------------------------------


@dataclass
class SegmentProbe:
    order: int
    ts: np.ndarray
    values: np.ndarray
    estimates: np.ndarray
    form: str  # "power" when F > 0 along the segment, else "min"
    chord_gap: float  # max over t of chord - G(t) - tol (negative = consistent)
    curvature_gap: float  # max midpoint second difference - tol
    min_gap: float  # max over t of min(ends) - F(t) - tol
    tol_factor: float

    @property
    def consistent_with_concavity(self):
        if self.form == "min":
            return self.min_gap <= 0
        return self.chord_gap <= 0 and self.curvature_gap <= 0 and self.min_gap <= 0

    @property
    def violates_concavity(self):
        return not self.consistent_with_concavity


def bm_segment_test(f, i, body_k, body_l, grid, t_count=21, tol_factor=5.0):
    """Sample F along the Minkowski segment and test i-th-root concavity.

    Positive functionals: G = F^(1/i) must dominate its chord and have
    nonpositive midpoint second differences, up to propagated quadrature
    tolerances.  If F is not strictly positive along the segment the power
    is undefined and only the weaker minimum comparison
    F((1-t)K + tL) >= min(F(K), F(L)) is checked (form="min").
    """
    ts = np.linspace(0.0, 1.0, t_count)
    vals, ests = functional_segment(f, body_k, body_l, i, ts, grid)
    floor = 1e-12 * (1.0 + np.max(np.abs(vals)))
    tol_vals = tol_factor * ests + floor

    ends_min = min(vals[0], vals[-1])
    min_gap = float(np.max(ends_min - vals - (tol_vals + tol_vals[0] + tol_vals[-1])))

    if np.min(vals) <= 0.0:
        return SegmentProbe(
            order=int(i),
            ts=ts,
            values=vals,
            estimates=ests,
            form="min",
            chord_gap=math.nan,
            curvature_gap=math.nan,
            min_gap=min_gap,
            tol_factor=float(tol_factor),
        )

    G = vals ** (1.0 / i)
    # d(F^(1/i)) = (1/i) F^(1/i - 1) dF
    g_tol = (1.0 / i) * vals ** (1.0 / i - 1.0) * tol_vals + 1e-12 * (1.0 + np.max(G))
    chord = (1.0 - ts) * G[0] + ts * G[-1]
    chord_gap = float(np.max(chord - G - (g_tol + (1.0 - ts) * g_tol[0] + ts * g_tol[-1])))
    d2 = G[:-2] - 2.0 * G[1:-1] + G[2:]
    d2_tol = g_tol[:-2] + 2.0 * g_tol[1:-1] + g_tol[2:]
    curvature_gap = float(np.max(d2 - d2_tol))
    return SegmentProbe(
        order=int(i),
        ts=ts,
        values=vals,
        estimates=ests,
        form="power",
        chord_gap=chord_gap,
        curvature_gap=curvature_gap,
        min_gap=min_gap,
        tol_factor=float(tol_factor),
    )


def linearity_probe(f, body_k, body_l, grid, t_count=11, tol_factor=5.0):
    """Max deviation of the order-1 segment from the affine interpolant.

    The order-1 density is linear in the support function, so F along a
    Minkowski segment must be affine in t; returns (max_gap, consistent)
    where max_gap is the worst deviation minus its propagated tolerance.
    """
    ts = np.linspace(0.0, 1.0, t_count)
    vals, ests = functional_segment(f, body_k, body_l, 1, ts, grid)
    affine = (1.0 - ts) * vals[0] + ts * vals[-1]
    tol = tol_factor * (ests + (1.0 - ts) * ests[0] + ts * ests[-1]) + 1e-11 * (
        1.0 + np.max(np.abs(vals))
    )
    gap = float(np.max(np.abs(vals - affine) - tol))
    return gap, gap <= 0


def bm_second_order_test(f, body, phi, i, grid, form="quadratic"):
    """Second-order power-concavity criterion at a body; see concavity_criterion."""
    return concavity_criterion(f, body, phi, i, grid, form=form)


# -- second-order violation hunt --------------------------------------------------


@dataclass
class HuntReport:
    found: bool
    order: int
    u_star: np.ndarray = None
    delta_reg: float = math.nan
    rho: float = math.nan
    eps: float = math.nan
    s: float = math.nan
    criterion_value: float = math.nan
    criterion_tol: float = math.nan
    segment_gap: float = math.nan
    negative_direction_value: float = math.nan
    diagnostics: list = field(default_factory=list)
    body: SupportBody = None
    phi: SphericalFunction = None

    @property
    def confirmed(self):
        return self.found and self.segment_gap > 0


def _segment_probe_arrays(f, body, phi, i, s, ts, grid):
    """Functional changes along body + t*s*phi and their second differences,
    all as correlated integrals on a grid containing the support of phi.

    Returns (delta, delta_est, d2, d2_est): delta[k] integrates the density
    change at ts[k]; d2[step][j] integrates the *pointwise* second difference
    over centers ts[step:-step].  Forming the second difference inside the
    integrand cancels the part linear in s node by node, so its quadrature
    estimate lives at the curvature scale — integrating first and differencing
    after would bury the curvature under the linear term's quadrature error.
    """
    ts = np.asarray(ts, dtype=float)
    steps = [2**k for k in range(len(ts)) if 2 ** (k + 1) < len(ts)]

    def integral(g):
        Q0 = body.q_stack(g)
        Qp = g.q_stack(phi)
        base = elem_sym_batch(Q0, i)
        rows = np.empty((len(ts), len(g.nodes)))
        for k, t in enumerate(ts):  # one t per pass keeps the pencil memory flat
            rows[k] = elem_sym_batch(Q0 + (t * s) * Qp, i) - base
        fv = f.value(g.nodes)
        sums = [g.weighted_sum(rows, fv)]
        for h in steps:  # one block of second differences at a time
            sums.append(g.weighted_sum(rows[2 * h :] - 2.0 * rows[h:-h] + rows[: -2 * h], fv))
        return np.concatenate(sums)

    split = np.cumsum([len(ts)] + [len(ts) - 2 * h for h in steps[:-1]])
    value, est = (np.split(a, split) for a in grid.paired(integral))
    return value[0], est[0], dict(zip(steps, value[1:])), dict(zip(steps, est[1:]))


def _refine_breaks(breaks, width, max_panel):
    """Clip breakpoints to [-width, width] and split panels wider than
    max_panel evenly, so slowly varying factors stay deep inside each
    Gauss-Legendre panel's convergence range."""
    breaks = np.unique(np.clip(breaks, -width, width))
    out = [breaks[:1]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        pieces = max(1, int(math.ceil((b - a) / max_panel)))
        out.append(np.linspace(a, b, pieces + 1)[1:])
    return np.concatenate(out)


def _oscillation_panel_grid(phi, width_factor=1.02, order=6):
    """Panel grid aligned with the polynomial pieces of an oscillation.

    Along the oscillation axis the breakpoints are the wave's cap edges plus
    the cutoff knots; transverse axes carry the cutoff knots only.  With the
    panels matching the profile pieces, composite Gauss-Legendre quadrature
    resolves the oscillation's self-cancelling products to near machine
    accuracy — a uniform midpoint grid at affordable sizes leaves a relative
    error at the percent level, far above the curvature-scale signals the
    segment confirmation needs.
    """
    rho = phi.patch_radius
    eps = phi.amplitude
    eta = phi.wave_smoothing
    n = len(phi.center)
    width = width_factor * rho
    knots = [-rho, -0.6 * rho, 0.6 * rho, rho, -width, width]
    k_max = int(math.ceil(width / eps)) + 1
    ks = np.arange(-k_max, k_max + 1, dtype=float)
    caps = np.concatenate([eps * (ks - eta), eps * (ks + eta)]) if eta > 0 else eps * ks
    ax1 = _refine_breaks(np.concatenate([caps, knots]), width, 0.2 * rho)
    trans = _refine_breaks(np.asarray(knots), width, 0.2 * rho)
    return panel_grid(phi.center, phi.frame, [ax1] + [trans] * (n - 2), order)


def bm_violation_hunt(
    f,
    i,
    grid,
    rho_list=(0.25, 0.35),
    eps_list=(0.02, 0.01),
    eta=0.25,
    delta_regs=(1e-3, 0.03, 0.1),
    t_count=9,
    tol=None,
):
    """Hunt for a certified body and perturbation violating power concavity.

    Strategy: where the order-i condition fails, realize a body K whose
    curvature form pairs negatively with f; then the second-derivative tensor
    contraction m = T(Q_K, i) Q_f has a negative eigendirection v (its pairing
    with Q_K is (i-1) * trace(cofactor(Q_K, i) Q_f) < 0).  An oscillation
    along v with order-one slope but tiny amplitude makes the gradient-form
    second variation positive — dominated by -<m grad phi, grad phi> — while
    the first variation stays O(eps), so

        F * d2F - ((i-1)/i) dF^2 > 0,

    which power concavity forbids.  The hit is then confirmed directly by a
    non-concave sampled i-th root along the segment toward K + s*phi, using
    correlated difference integrals on a patch grid resolving the
    oscillation.  Returns a HuntReport either way; raises SearchError only
    when the pointwise precondition fails.
    """
    if i < 2:
        raise DomainError("order must be >= 2: order 1 has no concavity criterion")
    tol = default_tolerance(f) if tol is None else float(tol)
    rep = check_mi(f, i, grid)
    if not (rep.verdict == "violated" and rep.worst_value < -10.0 * tol):
        raise SearchError(
            f"precondition: order-{i} condition not decisively violated for {f.label}"
        )
    u_star = rep.worst_node
    n = f.n
    diagnostics = []

    for delta_reg in delta_regs:
        A, Qf, E = _violating_form(f, i, u_star, delta_reg)
        K = realize_q(A, u_star, label=f"hunt[{f.label},i={i},d={delta_reg:g}]")
        m = contract2(A, i, Qf)
        w, W = np.linalg.eigh(m)
        if w[0] >= 0:
            diagnostics.append(
                {"stage": "direction", "delta_reg": delta_reg, "min_eig": float(w[0])}
            )
            continue
        v_amb = E @ W[:, 0]
        v_amb /= np.linalg.norm(v_amb)

        F, estF = functional_value(f, K, i, grid)
        if F <= 0:
            diagnostics.append({"stage": "positivity", "delta_reg": delta_reg, "F": F})
            continue

        for rho in rho_list:
            if rho > 0.8 / math.sqrt(n - 1):
                continue
            for eps in eps_list:
                phi = oscillating_phi(u_star, v_amb, rho, eps, n, eta=eta)
                patch = _oscillation_panel_grid(phi)

                dF, edF = first_variation(f, K, phi, i, patch, form="adjoint")
                d2F, ed2F = second_variation(f, K, phi, i, patch, form="gradient")
                value, vtol = power_concavity(i, F, estF, dF, edF, d2F, ed2F)
                row = {
                    "stage": "criterion",
                    "delta_reg": delta_reg,
                    "rho": rho,
                    "eps": eps,
                    "F": F,
                    "dF": dF,
                    "d2F": d2F,
                    "value": value,
                    "tol": vtol,
                }
                diagnostics.append(row)
                if not (value > vtol):
                    continue

                # confirm: sampled i-th root bends upward along K -> K + s*phi
                s_max = min(largest_certified_strength(K, phi, patch), 1.0)
                if s_max <= 0:
                    diagnostics.append(
                        {"stage": "certify", "delta_reg": delta_reg, "rho": rho, "eps": eps}
                    )
                    continue
                s = 0.8 * s_max
                ts = np.linspace(0.0, 1.0, t_count)
                delta, dests, d2_int, d2_est = _segment_probe_arrays(
                    f, K, phi, i, s, ts, patch
                )
                series = F + delta
                if np.min(series) <= 0:
                    continue
                # A positive second difference of the i-th root refutes its
                # concavity on the segment.  Expand the root around each
                # center: the leading term is the pointwise-cancelled second
                # difference of the functional itself, and the neglected
                # remainder is second order in the per-point changes, bounded
                # explicitly below (it is many orders under the signal).
                floor = 1e-13 * (1.0 + float(np.max(series)) ** (1.0 / i))
                segment_gap = -math.inf
                for step, vals in d2_int.items():
                    lo, hi, mid = delta[: -2 * step], delta[2 * step :], delta[step:-step]
                    e_lo, e_hi, e_mid = dests[: -2 * step], dests[2 * step :], dests[step:-step]
                    a = series[step:-step]
                    pref = (1.0 / i) * a ** (1.0 / i - 1.0)
                    dp = np.abs(hi - mid) + 5.0 * (e_hi + e_mid)
                    dm = np.abs(lo - mid) + 5.0 * (e_lo + e_mid)
                    rem = 0.5 * (1.0 / i) * a ** (1.0 / i - 2.0) * (dp**2 + dm**2)
                    tol = pref * 5.0 * d2_est[step] + rem + floor
                    segment_gap = max(segment_gap, float(np.max(pref * vals - tol)))
                diagnostics.append(
                    {
                        "stage": "segment",
                        "delta_reg": delta_reg,
                        "rho": rho,
                        "eps": eps,
                        "s": s,
                        "segment_gap": segment_gap,
                    }
                )
                if segment_gap > 0:
                    return HuntReport(
                        found=True,
                        order=int(i),
                        u_star=u_star,
                        delta_reg=float(delta_reg),
                        rho=float(rho),
                        eps=float(eps),
                        s=float(s),
                        criterion_value=value,
                        criterion_tol=vtol,
                        segment_gap=segment_gap,
                        negative_direction_value=float(w[0]),
                        diagnostics=diagnostics,
                        body=K,
                        phi=phi,
                    )
    return HuntReport(found=False, order=int(i), u_star=u_star, diagnostics=diagnostics)


# -- round trip over the corpus ---------------------------------------------------


def theorem_roundtrip(
    entries=None,
    grids=None,
    pairs_per_dim=8,
    seed=2024,
    counterexample_kwargs=None,
):
    """Decide the order-i condition for every corpus entry and test both
    directions: empirical monotonicity where it holds, a constructive
    counterexample where it decisively fails.  Returns (rows, summary).
    """
    entries = corpus() if entries is None else entries
    grids = default_grids() if grids is None else grids
    counterexample_kwargs = counterexample_kwargs or {}
    pair_sets = {n: nested_pairs(n, pairs_per_dim, seed=seed + n) for n in grids}
    rows = []
    summary = {
        "checked": 0,
        "satisfied": 0,
        "marginal": 0,
        "violated": 0,
        "empirical_violations": 0,
        "counterexamples_found": 0,
        "counterexamples_failed": 0,
    }
    for entry in entries:
        grid = grids[entry.n]
        scan = EigenSumScan(entry.f, grid)
        tol = default_tolerance(entry.f)
        for i in range(1, entry.n):
            rep = check_mi(entry.f, i, grid, scan=scan)
            row = {
                "label": entry.label,
                "n": entry.n,
                "i": i,
                "verdict": rep.verdict,
                "worst_value": rep.worst_value,
                "tolerance": rep.tolerance,
            }
            summary["checked"] += 1
            summary[rep.verdict] += 1
            if rep.ok:
                mono = monotonicity_test(entry.f, i, pair_sets[entry.n], grid)
                row["empirical_violations"] = len(mono.violations)
                summary["empirical_violations"] += len(mono.violations)
            elif rep.worst_value < -10.0 * tol:
                try:
                    cex = monotonicity_counterexample(
                        entry.f, i, grid, scan=scan, **counterexample_kwargs
                    )
                    row["counterexample"] = True
                    row["drop"] = cex.drop
                    row["threshold"] = cex.threshold
                    summary["counterexamples_found"] += 1
                except SearchError as err:
                    row["counterexample"] = False
                    row["error"] = str(err)
                    summary["counterexamples_failed"] += 1
            rows.append(row)
    return rows, summary
