"""Output checks, computed apart from the program under test.

Each check takes an operation's output in plain form and returns a list of
error strings; an empty list means the output is correct.  Closed forms are
derived here from first principles, never by calling areafun.
"""

import math

SPHERE2_AREA = 4.0 * math.pi  # |S^2|


def saddle_worst(n, i, c):
    """Worst order-i eigenvalue sum of 1 + c (x1^2 - x2^2) on S^{n-1}.

    With p = c (x1^2 - x2^2), the tangential form at +-e1 is
    I + (Hess p - p I) restricted to e2..en = diag(1 - 3c, 1 - c, ..., 1 - c),
    so the sum of its n-i smallest eigenvalues is (n - i) - c (n - i + 2);
    for c > 0 that is the minimum over the sphere.
    """
    return (n - i) - c * (n - i + 2)


def spheroid_area(a, c):
    """Surface area of the oblate spheroid with semi-axes (a, a, c), c < a."""
    e = math.sqrt(1.0 - (c * c) / (a * a))
    return 2.0 * math.pi * a * a * (1.0 + (1.0 - e * e) / e * math.atanh(e))


def ball_functional(n, i, r, weight_integral):
    """Order-i functional of the radius-r ball: C(n-1, i) r^i times the
    integral of the weight over the sphere (raw e_i convention)."""
    return math.comb(n - 1, i) * r**i * weight_integral


def near(value, expected, rel, what):
    if not math.isfinite(value) or abs(value - expected) > rel * max(1.0, abs(expected)):
        return [f"{what}: {value!r} differs from {expected!r} by more than {rel:g} relative"]
    return []


# -- roundtrip ------------------------------------------------------------------


def check_roundtrip_rows(label, n, rows, expect):
    """Verdict rows of one corpus weight's theorem_roundtrip.

    expect: {"satisfied_all": bool, "saddle_c": float or None}.
    """
    errors = []
    if [r["i"] for r in rows] != list(range(1, n)):
        return [f"{label}: orders {[r['i'] for r in rows]} != 1..{n - 1}"]
    for r in rows:
        tag = f"{label} i={r['i']}"
        if r["verdict"] not in ("satisfied", "violated"):
            errors.append(f"{tag}: verdict {r['verdict']!r} is not decisive")
        if expect.get("satisfied_all") and r["verdict"] != "satisfied":
            errors.append(f"{tag}: weight must satisfy every order, got {r['verdict']}")
        c = expect.get("saddle_c")
        if c is not None:
            errors += near(r["worst_value"], saddle_worst(n, r["i"], c), 1e-6, f"{tag} worst sum")
            want = "satisfied" if saddle_worst(n, r["i"], c) > 0 else "violated"
            if r["verdict"] != want:
                errors.append(f"{tag}: verdict {r['verdict']}, closed form says {want}")
        if r["verdict"] == "satisfied" and r.get("empirical_violations") != 0:
            errors.append(f"{tag}: {r.get('empirical_violations')} empirical violations")
        if r["verdict"] == "violated" and r["worst_value"] < -10.0 * r["tolerance"]:
            if r.get("counterexample") is not True:
                errors.append(f"{tag}: no counterexample ({r.get('error')})")
    return errors


def check_counterexample(tag, drop, threshold, value_inner, value_outer, support_gap_min):
    """A counterexample must drop by more than its threshold, report a drop
    consistent with its two values, and have its outer body contain the
    inner one (support gap >= 0 on a grid finer than the program's)."""
    errors = []
    if not drop > threshold:
        errors.append(f"{tag}: drop {drop:.3e} does not exceed threshold {threshold:.3e}")
    errors += near(value_inner - value_outer, drop, 1e-9, f"{tag} F(K) - F(L) vs drop")
    if support_gap_min < -1e-12:
        errors.append(f"{tag}: outer body misses the inner one (support gap {support_gap_min:.3e})")
    return errors


def check_cache_probe(values, expected):
    errors = []
    for name, v in values.items():
        errors += near(v, expected, 1e-4, f"spheroid area on {name}")
    return errors


# -- hunt -------------------------------------------------------------------------


def check_hunt(tag, found, segment_gap, criterion_value, criterion_tol, u_star):
    errors = []
    if not (found and segment_gap > 0):
        errors.append(f"{tag}: hunt not confirmed (found={found}, segment gap {segment_gap!r})")
    if not criterion_value > criterion_tol:
        errors.append(f"{tag}: criterion {criterion_value!r} not above tolerance {criterion_tol!r}")
    # the saddle's worst direction is +-e1 (closed form)
    if u_star is None or abs(abs(float(u_star[0])) - 1.0) > 1e-6:
        errors.append(f"{tag}: worst direction {u_star} is not +-e1")
    return errors


# -- mollify --------------------------------------------------------------------


def check_mollified_values(tag, program, own):
    worst = max(abs(p - o) for p, o in zip(program, own))
    scale = max(1.0, max(abs(o) for o in own))
    if worst > 1e-12 * scale:
        return [f"{tag}: mollified values differ from the kernel sum by {worst:.3e}"]
    return []


def check_preserved(tag, verdicts):
    return [
        f"{tag} i={i}: satisfied weight smoothed to {v}" for i, v in verdicts if v != "satisfied"
    ]


def check_sup_decreasing(dists):
    """dists: [(k, sup distance)] in increasing k; returns the failing ks."""
    return [k for (_, a), (k, b) in zip(dists, dists[1:]) if not b < a]


# -- cli --------------------------------------------------------------------------


def check_exit(tag, code, expected):
    return [] if code == expected else [f"{tag}: exit code {code}, documented {expected}"]


def check_eval(tag, doc, expected, rel):
    return near(doc["value"], expected, rel, f"{tag} value")


def check_mi_saddle(tag, doc):
    rep = doc["report"]
    errors = near(rep["worst_value"], -3.0, 1e-6, f"{tag} worst sum")
    if rep["verdict"] != "violated":
        errors.append(f"{tag}: verdict {rep['verdict']}, closed form says violated")
    if abs(abs(rep["worst_node"][0]) - 1.0) > 1e-6:
        errors.append(f"{tag}: worst node {rep['worst_node']} is not +-e1")
    return errors


def check_ibp(tag, doc):
    rep = doc["report"]
    bound = 5.0 * (rep["lhs_estimate"] + rep["rhs_estimate"])
    bound += 1e-9 * (1.0 + max(abs(rep["lhs"]), abs(rep["rhs"])))
    errors = []
    if abs(rep["lhs"] - rep["rhs"]) > bound:
        errors.append(f"{tag}: exchange residual {abs(rep['lhs'] - rep['rhs']):.3e} > {bound:.3e}")
    if doc["within_tolerance"] is not True:
        errors.append(f"{tag}: program reports the exchange outside tolerance")
    return errors


def check_cylinder(tag, doc, R):
    rep = doc["report"]
    errors = near(rep["rhs"], math.pi * R + 2.0 * math.pi, 1e-9, f"{tag} rhs vs pi R + 2 pi")
    if not doc["relative_residual"] <= 0.02:
        errors.append(f"{tag}: split residual {doc['relative_residual']:.3%} > 2%")
    if doc.get("segment_within_tolerance") is not True:
        errors.append(f"{tag}: segment identity outside 2%")
    return errors


def check_dimred(tag, doc):
    err = doc["report"]["corrected_errors"][-1]
    return [] if err <= 0.02 else [f"{tag}: corrected error {err:.3%} > 2%"]
