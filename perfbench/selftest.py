"""Self-test of the output checks.

Each case feeds a check one output and states whether the check must accept
it.  The corrupted outputs are small, deliberate faults (a closed form
shifted by 1e-3, a flipped verdict, swapped bodies, a wrong exit code); a
check that accepts one of them, or rejects the matching correct output, is
reported.  `run(workload)` is called at the end of every benchmark run.

Usage: python3 perfbench/selftest.py   (runs the cases of every workload)
"""

import math
import os
import sys

import checks

SHIFT = 1e-3


def _roundtrip_cases():
    row = {"i": 2, "verdict": "violated", "worst_value": checks.saddle_worst(3, 2, 0.45),
           "tolerance": 1e-7, "counterexample": True}
    sat = {"i": 1, "verdict": "satisfied", "worst_value": checks.saddle_worst(3, 1, 0.45),
           "tolerance": 1e-7, "empirical_violations": 0}
    saddle = {"saddle_c": 0.45}
    yield "saddle rows", True, lambda: checks.check_roundtrip_rows("s", 3, [sat, row], saddle)
    yield "saddle worst sum shifted", False, lambda: checks.check_roundtrip_rows(
        "s", 3, [sat, dict(row, worst_value=row["worst_value"] + SHIFT)], saddle)
    yield "flipped verdict", False, lambda: checks.check_roundtrip_rows(
        "s", 3, [dict(sat, verdict="violated"), row], saddle)
    yield "support weight violated", False, lambda: checks.check_roundtrip_rows(
        "e", 3, [dict(sat, verdict="violated", worst_value=-1.0, counterexample=True)],
        {"satisfied_all": True})
    yield "marginal verdict", False, lambda: checks.check_roundtrip_rows(
        "p", 3, [dict(sat, verdict="marginal"), dict(sat, i=2)], {})
    yield "empirical violation", False, lambda: checks.check_roundtrip_rows(
        "p", 3, [dict(sat, empirical_violations=1), dict(sat, i=2)], {})
    yield "missing counterexample", False, lambda: checks.check_roundtrip_rows(
        "p", 3, [sat, dict(row, counterexample=False)], {})

    from areafun import ball, make_grid

    nodes = make_grid(3, 512).nodes
    inner, outer = ball(3, 1.0), ball(3, 1.1)

    def cex(drop, threshold, K, L):
        gap = float((L.support(nodes) - K.support(nodes)).min())
        return checks.check_counterexample("c", drop, threshold, 2.0, 2.0 - drop, gap)

    yield "counterexample", True, lambda: cex(0.1, 0.01, inner, outer)
    yield "counterexample bodies swapped", False, lambda: cex(0.1, 0.01, outer, inner)
    yield "counterexample below threshold", False, lambda: cex(0.01, 0.1, inner, outer)
    area = checks.spheroid_area(1.0, 0.5)
    yield "spheroid area", True, lambda: checks.check_cache_probe({"a": 8.671883}, area)
    yield "spheroid area from the other grid", False, lambda: checks.check_cache_probe(
        {"a": area, "b": 8.9397}, area)


def _hunt_cases():
    e1 = [1.0, 0.0, 0.0]
    yield "hunt", True, lambda: checks.check_hunt("h", True, 5e-11, 0.1, 0.02, e1)
    yield "hunt not confirmed", False, lambda: checks.check_hunt("h", True, -5e-11, 0.1, 0.02, e1)
    yield "criterion below tolerance", False, lambda: checks.check_hunt(
        "h", True, 5e-11, 0.01, 0.02, e1)
    yield "wrong worst direction", False, lambda: checks.check_hunt(
        "h", True, 5e-11, 0.1, 0.02, [0.0, 1.0, 0.0])


def _mollify_cases():
    own = [1.25, 0.5, -2.0]
    yield "kernel sum", True, lambda: checks.check_mollified_values("m", own, own)
    yield "kernel sum shifted", False, lambda: checks.check_mollified_values(
        "m", [v + 1e-9 for v in own], own)
    yield "verdict kept", True, lambda: checks.check_preserved("m", [(1, "satisfied")])
    yield "verdict flipped", False, lambda: checks.check_preserved("m", [(1, "violated")])
    yield "distances decreasing", True, lambda: checks.check_sup_decreasing(
        [(4, 0.01), (8, 0.005), (16, 0.0025)])
    yield "distances not decreasing", False, lambda: checks.check_sup_decreasing(
        [(4, 0.01), (8, 0.005), (16, 0.005)])


def _cli_cases():
    r, i = 1.3, 2
    exact = checks.ball_functional(3, i, r, checks.SPHERE2_AREA)
    yield "exit code", True, lambda: checks.check_exit("x", 1, 1)
    yield "wrong exit code", False, lambda: checks.check_exit("x", 0, 1)
    yield "eval", True, lambda: checks.check_eval("e", {"value": exact}, exact, 1e-10)
    yield "eval shifted", False, lambda: checks.check_eval(
        "e", {"value": exact + SHIFT}, exact, 1e-10)
    mi = {"report": {"worst_value": -3.0, "verdict": "violated", "worst_node": [-1.0, 0.0, 0.0]}}
    yield "mi-check", True, lambda: checks.check_mi_saddle("m", mi)
    yield "mi-check shifted", False, lambda: checks.check_mi_saddle(
        "m", {"report": dict(mi["report"], worst_value=-3.0 + SHIFT)})
    yield "mi-check flipped", False, lambda: checks.check_mi_saddle(
        "m", {"report": dict(mi["report"], verdict="satisfied")})
    ibp = {"within_tolerance": True,
           "report": {"lhs": -1.8384602, "rhs": -1.8384613,
                      "lhs_estimate": 5e-6, "rhs_estimate": 1.3e-5}}
    yield "ibp-check", True, lambda: checks.check_ibp("i", ibp)
    yield "ibp-check shifted", False, lambda: checks.check_ibp(
        "i", dict(ibp, report=dict(ibp["report"], rhs=ibp["report"]["rhs"] + SHIFT)))
    R = 2.0
    cyl = {"relative_residual": 0.001, "segment_within_tolerance": True,
           "report": {"rhs": math.pi * R + 2.0 * math.pi}}
    yield "cylinder-check", True, lambda: checks.check_cylinder("c", cyl, R)
    yield "cylinder rhs shifted", False, lambda: checks.check_cylinder(
        "c", dict(cyl, report={"rhs": math.pi * R + 2.0 * math.pi + SHIFT}), R)
    yield "dimred", True, lambda: checks.check_dimred(
        "d", {"report": {"corrected_errors": [0.002, 0.0014]}})
    yield "dimred off by 3%", False, lambda: checks.check_dimred(
        "d", {"report": {"corrected_errors": [0.002, 0.03]}})


CASES = {
    "roundtrip": _roundtrip_cases,
    "hunt": _hunt_cases,
    "mollify": _mollify_cases,
    "cli": _cli_cases,
}


def run(workload):
    """Problems found in the checks a workload uses; empty when all hold."""
    problems = []
    for name, accept, case in CASES[workload]():
        errors = case()
        if accept and errors:
            problems.append(f"{workload}/{name}: correct output rejected: {errors}")
        if not accept and not errors:
            problems.append(f"{workload}/{name}: corrupted output accepted")
    return problems


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    found = [p for w in CASES for p in run(w)]
    for p in found:
        print(p)
    print(f"{'FAIL' if found else 'ok'}: {sum(len(list(CASES[w]())) for w in CASES)} cases")
    sys.exit(1 if found else 0)
