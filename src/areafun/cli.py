"""Command-line surface: verdict commands, hunts, and report emission.

Every subcommand prints one JSON document (stdout, or --out file) and can
emit a CSV detail table with --csv.  Exit codes: 0 when the command's
assertion holds (for the hunt commands: when the search succeeds), 1 when a
violation is found (or a hunt comes back empty-handed), 2 for usage and
configuration errors, 3 for numerical failures.

A config file (--config, one ``key = value`` per line, ``#`` comments) may
preset any long flag, with explicit flags taking precedence.  Function
arguments use a small spec language::

    poly:"x1^2 - x2^2"        polynomial in x1..xn restricted to the sphere
    const:2.5                 constant
    linear:0,0,1              linear height function <v, u>
    bump:0,0,1,30             exp(-kappa |u - u0|^2), center then kappa
    support:ball:1            support function of a body spec

and weighted sums like ``2*const:1 + 0.5*poly:"x1*x2"``.  Body specs are
``ball:r``, ``ellipsoid:a1,...,an``, or weighted Minkowski sums of those;
flat bodies for the cylinder commands are ``disc:r`` or ``ellipse:a,b``.
Every number in a spec must be finite.

A ``poly:`` expression may use int and float literals, the variables
x1..xn, unary + and -, binary +, - and *, / by a nonzero constant, ** or ^
to a constant non-negative integer power, and parentheses.  Anything else
(function calls, names such as pi, fractional or negative powers, exponents
above 256, products of more than 100,000 term pairs or with integers beyond
2,048 bits) is a usage error.
"""

import argparse
import ast
import csv
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bodies import SupportBody, ball, combine, ellipsoid
from .conditions import check_mi
from .errors import (
    ConstructionError,
    DomainError,
    EvaluationError,
    KernelError,
    SearchError,
)
from .experiments import (
    bm_segment_test,
    bm_second_order_test,
    bm_violation_hunt,
    corpus,
    monotonicity_counterexample,
    monotonicity_test,
    nested_pairs,
    theorem_roundtrip,
)
from .functionals import functional_value
from .identities import ibp_symmetry_residual
from .mollify import mollify, sup_distance
from .reduction import (
    circle_grid,
    cylinder_lemma_residual,
    dimension_reduction_limit,
    flattened_ellipse,
    reduction_grid,
    segment_factor_identity,
)
from .sphere import bump, combination, constant, linear, make_grid, polynomial

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# -- spec language -------------------------------------------------------------


def _split_sum(spec):
    """Split a spec on '+' signs outside double quotes."""
    parts, cur, quoted = [], [], False
    for ch in spec:
        if ch == '"':
            quoted = not quoted
            cur.append(ch)
        elif ch == "+" and not quoted:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    out = [p.strip() for p in parts]
    if quoted or not all(out):
        raise DomainError(f"malformed spec {spec!r}")
    return out


def _split_weight(term):
    """Peel an optional '<float>*' prefix; returns (weight, rest)."""
    head, star, rest = term.partition("*")
    if star and rest:
        try:
            float(head)
        except ValueError:
            return 1.0, term
        return _float(head, f"the weight of {term!r}"), rest.strip()
    return 1.0, term


def _floats(text, what):
    """Comma-separated finite numbers; every number in a spec is read here."""
    try:
        vals = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise DomainError(f"expected comma-separated numbers for {what}: {text!r}")
    if not all(math.isfinite(x) for x in vals):
        raise DomainError(f"numbers for {what} must be finite: {text!r}")
    return vals


def _float(text, what):
    vals = _floats(text, what)
    if len(vals) != 1:
        raise DomainError(f"expected one number for {what}: {text!r}")
    return vals[0]


# bounds on the work of expanding a ``poly:`` spec: the largest exponent, the
# most term pairs one product may multiply out, and the widest exact integer
# coefficient a product may form (a finite float has fewer than 1,025 bits)
POLY_MAX_EXPONENT = 256
POLY_MAX_PAIRS = 100_000
POLY_MAX_BITS = 2048


def _parse_poly(expr, n):
    """Exponent tuple -> coefficient dict of a ``poly:`` expression in x1..xn;
    integers stay exact, ``/`` gives floats, like terms merge, zeros drop.
    Exponents above POLY_MAX_EXPONENT, and products of more than
    POLY_MAX_PAIRS term pairs or with integer coefficients beyond
    POLY_MAX_BITS bits, are rejected before they are expanded."""
    one, names = (0,) * n, {f"x{k + 1}": k for k in range(n)}

    def bits(p):
        return max((c.bit_length() for c in p.values() if type(c) is int), default=0)

    def mul(a, b):
        if len(a) * len(b) > POLY_MAX_PAIRS:
            raise fail(f"a product of {len(a)} by {len(b)} terms exceeds {POLY_MAX_PAIRS} pairs")
        if bits(a) + bits(b) > POLY_MAX_BITS:
            raise fail(f"integer coefficients beyond {POLY_MAX_BITS} bits")
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return out

    def fail(why):
        return DomainError(f"cannot parse polynomial {expr!r}: {why}")

    def walk(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return {one: node.value}
        if isinstance(node, ast.Name) and node.id in names:
            return {tuple(int(j == names[node.id]) for j in range(n)): 1}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            sign = -1 if isinstance(node.op, ast.USub) else 1
            return mul({one: sign}, walk(node.operand))
        if isinstance(node, ast.BinOp):
            a, b = walk(node.left), walk(node.right)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                for e, c in b.items():
                    a[e] = a.get(e, 0) + (c if isinstance(node.op, ast.Add) else -c)
                return a
            if isinstance(node.op, ast.Mult):
                return mul(a, b)
            k = b.get(one, 0) if set(b) <= {one} else None  # a constant right operand
            if isinstance(node.op, ast.Div) and k:
                return {e: c / k for e, c in a.items()}
            if isinstance(node.op, ast.Pow) and type(k) is int and k >= 0:
                if k > POLY_MAX_EXPONENT:
                    raise fail(f"exponent {k} exceeds {POLY_MAX_EXPONENT}")
                out = {one: 1}
                for bit in bin(k)[2:]:  # square-and-multiply
                    out = mul(out, out)
                    out = mul(out, a) if bit == "1" else out
                return out
        raise fail(f"{ast.unparse(node)!r} is outside the grammar (numbers, x1..x{n}, + - * / ^)")

    try:
        tree = ast.parse(expr.strip().replace("^", "**"), mode="eval")
        terms = {e: float(c) for e, c in walk(tree.body).items() if c != 0}
    except (SyntaxError, RecursionError, OverflowError) as exc:
        raise fail(f"{type(exc).__name__}: {exc}")
    if not all(map(math.isfinite, terms.values())):
        raise fail("coefficients must be finite")
    return terms


def parse_function(spec, n):
    """Build a sphere function from the spec language (see module docstring)."""
    weights, funcs = [], []
    for term in _split_sum(spec):
        w, rest = _split_weight(term)
        kind, colon, arg = rest.partition(":")
        kind = kind.strip().lower()
        if not colon:
            raise DomainError(f"function term {term!r} needs a 'kind:' prefix")
        if kind == "poly":
            expr = arg.strip().strip('"')
            f = polynomial(n, _parse_poly(expr, n), label=f"poly:{expr}")
        elif kind == "const":
            f = constant(n, _float(arg, "const:"))
        elif kind == "linear":
            v = _floats(arg, "linear: direction")
            if len(v) != n:
                raise DomainError(f"linear: needs {n} components, got {len(v)}")
            f = linear(n, v)
        elif kind == "bump":
            vals = _floats(arg, "bump: center and kappa")
            if len(vals) != n + 1:
                raise DomainError(
                    f"bump: needs {n} center components plus kappa, got {len(vals)}"
                )
            u0 = np.asarray(vals[:n])
            nrm = np.linalg.norm(u0)
            if nrm == 0:
                raise DomainError("bump: center must be nonzero")
            f = bump(n, u0 / nrm, vals[n])
        elif kind == "support":
            f = parse_body(arg, n).h
        else:
            raise DomainError(f"unknown function kind {kind!r} in {term!r}")
        weights.append(w)
        funcs.append(f)
    if len(funcs) == 1 and weights[0] == 1.0:
        return funcs[0]
    return combination(weights, funcs, label=spec)


def parse_body(spec, n):
    """Build a convex body from 'ball:r' / 'ellipsoid:a1,..,an' / sums."""
    weights, bodies = [], []
    for term in _split_sum(spec):
        w, rest = _split_weight(term)
        kind, colon, arg = rest.partition(":")
        kind = kind.strip().lower()
        if kind == "ball":
            r = _float(arg, "ball: radius") if colon and arg.strip() else 1.0
            b = ball(n, r)
        elif kind == "ellipsoid":
            axes = _floats(arg, "ellipsoid: semi-axes")
            if len(axes) != n:
                raise DomainError(f"ellipsoid: needs {n} semi-axes, got {len(axes)}")
            b = ellipsoid(axes)
        else:
            raise DomainError(f"unknown body kind {kind!r} in {term!r}")
        weights.append(w)
        bodies.append(b)
    if len(bodies) == 1 and weights[0] == 1.0:
        return bodies[0]
    return combine(weights, bodies, label=spec)


def parse_flat(spec, delta):
    """Flat-body spec for the cylinder commands: disc:r or ellipse:a,b."""
    kind, colon, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "disc":
        r = _float(arg, "disc: radius") if colon and arg.strip() else 1.0
        return flattened_ellipse(r, r, delta)
    if kind == "ellipse":
        ab = _floats(arg, "ellipse: semi-axes")
        if len(ab) != 2:
            raise DomainError(f"ellipse: needs 2 semi-axes, got {len(ab)}")
        return flattened_ellipse(ab[0], ab[1], delta)
    raise DomainError(f"unknown flat-body kind {kind!r} (use disc:r or ellipse:a,b)")


# -- config and settings ---------------------------------------------------------


def load_config(path):
    cfg = {}
    try:
        with open(path) as fh:
            for k, line in enumerate(fh, start=1):
                s = line.strip()
                if not s or s.startswith("#"):
                    continue
                key, eq, val = s.partition("=")
                if not eq or not key.strip():
                    raise DomainError(f"{path}:{k}: expected 'key = value', got {s!r}")
                cfg[key.strip().replace("-", "_")] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}")
    return cfg


class Settings:
    """Flag values with config-file fallback: flag > config > default."""

    def __init__(self, args, config):
        self.args = args
        self.config = config

    def _raw(self, key):
        v = getattr(self.args, key, None)
        if v is not None:
            return v
        return self.config.get(key)

    def _cast(self, key, raw, cast):
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"bad value for --{key.replace('_', '-')}: {exc}")

    def get(self, key, default=None, cast=str):
        raw = self._raw(key)
        if raw is None:
            return default
        if isinstance(raw, str) and cast is not str:
            return self._cast(key, raw, cast)
        return raw

    def get_int(self, key, default=None):
        # base-0 int() so seeds may be written in hex
        return self.get(key, default, cast=lambda s: int(s, 0))

    def get_float(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        return _float(raw, f"--{key.replace('_', '-')}")

    def get_floats(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        return tuple(_floats(raw, key))

    def get_bool(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        if isinstance(raw, bool):
            return raw
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise DomainError(f"bad boolean for --{key.replace('_', '-')}: {raw!r}")


# -- report emission ---------------------------------------------------------------


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, SupportBody):
        return obj.label
    if hasattr(obj, "label") and hasattr(obj, "extension_hessian"):
        return obj.label  # sphere functions: represented by their label
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def emit_json(command, payload, out=None, stream=None):
    doc = {"command": command, "version": __version__}
    doc.update(payload)
    doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        (stream or sys.stdout).write(text)


def write_csv(path, header, rows):
    if not path:
        return
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_csv_cell(x) for x in row])


def _csv_cell(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


# -- shared flag groups -------------------------------------------------------------


def _grid_for(n, resolution, seed):
    return make_grid(n, resolution, seed=seed)


def _add_common(p, want_i=True):
    # --f and --i are not argparse-required, so that --config can preset them
    p.add_argument("--f", help="weight function spec")
    p.add_argument("--n", help="ambient dimension (default 3)")
    if want_i:
        p.add_argument("--i", help="order of the density (1..n-1)")
    p.add_argument("--grid", help="grid resolution (default 8192; 65536 for n=4)")
    p.add_argument("--grid-seed", dest="grid_seed", help="seed for sampled grids")


def _resolve_common(st, want_i=True):
    n = st.get_int("n", 3)
    if n < 2:
        raise DomainError("ambient dimension must be at least 2")
    res = st.get_int("grid", 65536 if n >= 4 else 8192)
    grid = _grid_for(n, res, st.get_int("grid_seed", 0))
    if st.get("f") is None:
        raise DomainError("a weight function --f is required")
    out = {"n": n, "grid": grid}
    if want_i:
        i = st.get_int("i")
        if i is None or not 1 <= i <= n - 1:
            raise DomainError(f"order --i must satisfy 1 <= i <= {n - 1}")
        out["i"] = i
    return out


# -- command handlers ------------------------------------------------------------


def cmd_mi_check(args, config):
    st = Settings(args, config)
    c = _resolve_common(st)
    f = parse_function(st.get("f"), c["n"])
    rep = check_mi(
        f,
        c["i"],
        c["grid"],
        tol=st.get_float("tol"),
        refine=st.get_bool("refine", True),
    )
    emit_json(
        "mi-check",
        {
            "f": f.label,
            "n": c["n"],
            "i": c["i"],
            "grid_id": c["grid"].grid_id,
            "report": rep,
        },
        out=args.out,
    )
    write_csv(
        args.csv,
        ["order", "verdict", "worst_value", "tolerance"]
        + [f"worst_node_{k + 1}" for k in range(c["n"])],
        [[rep.order, rep.verdict, rep.worst_value, rep.tolerance, *rep.worst_node]],
    )
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def cmd_mono_test(args, config):
    st = Settings(args, config)
    c = _resolve_common(st)
    f = parse_function(st.get("f"), c["n"])
    pairs = nested_pairs(
        c["n"], st.get_int("pairs", 12), seed=st.get_int("seed", 0), grid=c["grid"]
    )
    rep = monotonicity_test(
        f, c["i"], pairs, c["grid"], tol_factor=st.get_float("tol_factor", 10.0)
    )
    emit_json(
        "mono-test",
        {
            "f": f.label,
            "n": c["n"],
            "i": c["i"],
            "grid_id": c["grid"].grid_id,
            "consistent": rep.consistent,
            "report": rep,
        },
        out=args.out,
    )
    write_csv(
        args.csv,
        ["pair", "drop", "estimate", "threshold", "violation"],
        [
            [r["pair"], r["drop"], r["estimate"], r["threshold"], r["violation"]]
            for r in rep.rows
        ],
    )
    return EXIT_OK if rep.consistent else EXIT_VIOLATION


def cmd_mono_hunt(args, config):
    st = Settings(args, config)
    c = _resolve_common(st)
    f = parse_function(st.get("f"), c["n"])
    kwargs = {}
    if st.get_floats("kappas") is not None:
        kwargs["kappas"] = st.get_floats("kappas")
    if st.get_floats("delta_regs") is not None:
        kwargs["delta_regs"] = st.get_floats("delta_regs")
    try:
        rep = monotonicity_counterexample(f, c["i"], c["grid"], **kwargs)
    except SearchError as exc:
        emit_json(
            "mono-hunt",
            {"f": f.label, "n": c["n"], "i": c["i"], "found": False, "reason": str(exc)},
            out=args.out,
        )
        return EXIT_VIOLATION
    emit_json(
        "mono-hunt",
        {
            "f": f.label,
            "n": c["n"],
            "i": c["i"],
            "grid_id": c["grid"].grid_id,
            "found": True,
            "decisive": rep.decisive,
            "report": rep,
        },
        out=args.out,
    )
    write_csv(
        args.csv,
        ["order", "kappa", "s", "drop", "threshold", "value_inner", "value_outer"],
        [[rep.order, rep.kappa, rep.s, rep.drop, rep.threshold, rep.value_inner, rep.value_outer]],
    )
    return EXIT_OK


def cmd_bm_test(args, config):
    st = Settings(args, config)
    c = _resolve_common(st)
    f = parse_function(st.get("f"), c["n"])
    K = parse_body(st.get("K", "ball:1"), c["n"])
    L = parse_body(st.get("L", "ellipsoid:" + ",".join(["1"] * (c["n"] - 1)) + ",2"), c["n"])
    probe = bm_segment_test(
        f,
        c["i"],
        K,
        L,
        c["grid"],
        t_count=st.get_int("t", 21),
        tol_factor=st.get_float("tol_factor", 5.0),
    )
    emit_json(
        "bm-test",
        {
            "f": f.label,
            "n": c["n"],
            "i": c["i"],
            "K": K.label,
            "L": L.label,
            "grid_id": c["grid"].grid_id,
            "consistent_with_concavity": probe.consistent_with_concavity,
            "report": probe,
        },
        out=args.out,
    )
    write_csv(
        args.csv,
        ["t", "value", "estimate"],
        list(zip(probe.ts, probe.values, probe.estimates)),
    )
    return EXIT_OK if probe.consistent_with_concavity else EXIT_VIOLATION


def cmd_bm2_test(args, config):
    st = Settings(args, config)
    c = _resolve_common(st)
    f = parse_function(st.get("f"), c["n"])
    body = parse_body(st.get("body", "ball:1"), c["n"])
    phi = parse_function(st.get("phi", 'poly:"x1*x2"'), c["n"])
    rep = bm_second_order_test(
        f, body, phi, c["i"], c["grid"], form=st.get("form", "quadratic")
    )
    emit_json(
        "bm2-test",
        {
            "f": f.label,
            "n": c["n"],
            "i": c["i"],
            "body": body.label,
            "phi": phi.label,
            "grid_id": c["grid"].grid_id,
            "consistent_with_concavity": rep.consistent_with_concavity,
            "report": rep,
        },
        out=args.out,
    )
    write_csv(
        args.csv,
        ["order", "criterion", "tolerance", "functional", "first", "second"],
        [[rep.order, rep.value, rep.tolerance, rep.functional, rep.first, rep.second]],
    )
    return EXIT_OK if rep.consistent_with_concavity else EXIT_VIOLATION


def cmd_bm_hunt(args, config):
    st = Settings(args, config)
    c = _resolve_common(st)
    f = parse_function(st.get("f"), c["n"])
    kwargs = {}
    if st.get_floats("rho") is not None:
        kwargs["rho_list"] = st.get_floats("rho")
    if st.get_floats("eps") is not None:
        kwargs["eps_list"] = st.get_floats("eps")
    if st.get_float("eta") is not None:
        kwargs["eta"] = st.get_float("eta")
    try:
        rep = bm_violation_hunt(f, c["i"], c["grid"], **kwargs)
    except SearchError as exc:
        emit_json(
            "bm-hunt",
            {"f": f.label, "n": c["n"], "i": c["i"], "found": False, "reason": str(exc)},
            out=args.out,
        )
        return EXIT_VIOLATION
    emit_json(
        "bm-hunt",
        {
            "f": f.label,
            "n": c["n"],
            "i": c["i"],
            "grid_id": c["grid"].grid_id,
            "found": rep.found,
            "confirmed": rep.confirmed,
            "report": rep,
        },
        out=args.out,
    )
    write_csv(
        args.csv,
        ["order", "rho", "eps", "s", "criterion_value", "criterion_tol", "segment_gap"],
        [[rep.order, rep.rho, rep.eps, rep.s, rep.criterion_value, rep.criterion_tol, rep.segment_gap]],
    )
    return EXIT_OK if rep.confirmed else EXIT_VIOLATION


def cmd_eval(args, config):
    st = Settings(args, config)
    c = _resolve_common(st)
    f = parse_function(st.get("f"), c["n"])
    body = parse_body(st.get("body", "ball:1"), c["n"])
    val, est = functional_value(f, body, c["i"], c["grid"])
    emit_json(
        "eval",
        {
            "f": f.label,
            "n": c["n"],
            "i": c["i"],
            "body": body.label,
            "grid_id": c["grid"].grid_id,
            "value": val,
            "estimate": est,
        },
        out=args.out,
    )
    write_csv(args.csv, ["value", "estimate"], [[val, est]])
    return EXIT_OK


def cmd_mollify(args, config):
    st = Settings(args, config)
    c = _resolve_common(st, want_i=False)
    f = parse_function(st.get("f"), c["n"])
    ks = [int(k) for k in st.get_floats("k", (4.0, 8.0, 16.0))]
    samples = st.get_int("samples", 200)
    seed = st.get_int("seed", 0)
    i = st.get_int("i")
    base = check_mi(f, i, c["grid"]) if i is not None else None
    # preservation is only a claim when the input satisfies the condition;
    # smoothing a violating function may legitimately stay violating
    applicable = base is not None and base.ok
    rows = []
    preserved_all = True
    for k in ks:
        fk = mollify(f, k, samples=samples, seed=seed)
        dist = sup_distance(f, fk, c["grid"])
        row = {"k": k, "sup_distance": dist}
        if i is not None:
            rep = check_mi(fk, i, c["grid"])
            row["verdict"] = rep.verdict
            row["worst_value"] = rep.worst_value
            if applicable:
                preserved_all = preserved_all and rep.ok
        rows.append(row)
    dists = [r["sup_distance"] for r in rows]
    decreasing = all(a >= b for a, b in zip(dists, dists[1:]))
    ok = decreasing and (preserved_all or not applicable)
    payload = {
        "f": f.label,
        "n": c["n"],
        "grid_id": c["grid"].grid_id,
        "k": ks,
        "rows": rows,
        "sup_distances_decreasing": decreasing,
    }
    if i is not None:
        payload["i"] = i
        payload["input_verdict"] = base.verdict
        payload["condition_preserved"] = preserved_all if applicable else None
    emit_json("mollify", payload, out=args.out)
    header = ["k", "sup_distance"] + (["verdict", "worst_value"] if i is not None else [])
    write_csv(args.csv, header, [[r[h] for h in header] for r in rows])
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_ibp_check(args, config):
    st = Settings(args, config)
    c = _resolve_common(st)
    f = parse_function(st.get("f"), c["n"])
    # default perturbation mixes parities so the compared integrals are
    # generically nonzero; a parity-degenerate pair leaves both sides at
    # quadrature-noise scale where the 5x rule compares noise to noise
    phi = parse_function(st.get("phi", 'poly:"x1^2 + x1*x2"'), c["n"])
    body = parse_body(st.get("body", "ball:1"), c["n"])
    rep = ibp_symmetry_residual(f, phi, body, c["i"], c["grid"])
    ok = rep.within(factor=st.get_float("factor", 5.0))
    emit_json(
        "ibp-check",
        {
            "f": f.label,
            "phi": phi.label,
            "body": body.label,
            "n": c["n"],
            "i": c["i"],
            "grid_id": c["grid"].grid_id,
            "within_tolerance": ok,
            "residual": rep.residual,
            "combined_estimate": rep.combined_estimate,
            "report": rep,
        },
        out=args.out,
    )
    write_csv(
        args.csv,
        ["lhs", "rhs", "residual", "lhs_estimate", "rhs_estimate"],
        [[rep.lhs, rep.rhs, rep.residual, rep.lhs_estimate, rep.rhs_estimate]],
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_cylinder_check(args, config):
    st = Settings(args, config)
    deltas = st.get_floats("deltas", (0.05, 0.02, 0.01))
    K1 = parse_flat(st.get("K1", "disc:1"), max(deltas))
    f = parse_function(st.get("f", "const:1"), 3)
    R = st.get_float("R", 1.0)
    tol = st.get_float("tol", 0.02)
    grid = reduction_grid(st.get_int("nz", 800), st.get_int("naz", 96))
    circle = circle_grid()  # shared, so both checks reuse K1's planar stacks
    rep = cylinder_lemma_residual(f, K1, R, deltas=deltas, grid=grid, circle=circle)
    ok = rep.relative_residual <= tol
    payload = {
        "f": f.label,
        "K1": K1.planar.label,
        "R": R,
        "tol": tol,
        "within_tolerance": ok,
        "relative_residual": rep.relative_residual,
        "report": rep,
    }
    rows = [
        ["lhs", d, v, e]
        for d, v, e in zip(rep.deltas, rep.lhs_values, rep.lhs_estimates)
    ]
    if st.get("L") is not None:
        L = parse_body(st.get("L"), 3)
        seg = segment_factor_identity(K1, L, deltas=deltas, grid=grid, circle=circle)
        seg_ok = seg.relative_residual <= tol
        ok = ok and seg_ok
        payload["segment_identity"] = seg
        payload["segment_within_tolerance"] = seg_ok
        rows += [
            ["segment", d, v, ""] for d, v in zip(seg.deltas, seg.ambient_values)
        ]
    emit_json("cylinder-check", payload, out=args.out)
    write_csv(args.csv, ["series", "delta", "value", "estimate"], rows)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_dimred(args, config):
    st = Settings(args, config)
    deltas = st.get_floats("deltas", (0.02, 0.01))
    K1 = parse_flat(st.get("K1", "disc:1"), max(deltas))
    f = parse_function(st.get("f", "const:1"), 3)
    R_list = st.get_floats("R", (2.0, 8.0, 32.0))
    tol = st.get_float("tol", 0.02)
    grid = reduction_grid(st.get_int("nz", 800), st.get_int("naz", 96))
    rep = dimension_reduction_limit(f, K1, R_list=R_list, deltas=deltas, grid=grid)
    decaying = all(a > b for a, b in zip(rep.raw_errors, rep.raw_errors[1:]))
    ok = rep.corrected_errors[-1] <= tol and decaying
    emit_json(
        "dimred",
        {
            "f": f.label,
            "K1": K1.planar.label,
            "tol": tol,
            "within_tolerance": ok,
            "raw_errors_decay": decaying,
            "report": rep,
        },
        out=args.out,
    )
    write_csv(
        args.csv,
        ["R", "scaled_value", "corrected_value", "raw_error", "corrected_error"],
        [
            [R, s, cv, re_, ce]
            for R, s, cv, re_, ce in zip(
                rep.R_list,
                rep.scaled_values,
                rep.corrected_values,
                rep.raw_errors,
                rep.corrected_errors,
            )
        ],
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_corpus(args, config):
    st = Settings(args, config)
    seed = st.get_int("seed")
    entries = corpus() if seed is None else corpus(seed=seed)
    labels = st.get("labels")
    if labels is not None:
        wanted = {s.strip() for s in labels.split(",") if s.strip()}
        unknown = wanted - {e.label for e in entries}
        if unknown:
            raise DomainError(f"unknown corpus labels: {sorted(unknown)}")
        entries = [e for e in entries if e.label in wanted]
    dims = sorted({e.n for e in entries})
    grids = {}
    for n in dims:
        res = st.get_int(f"grid{n}", 65536 if n >= 4 else 8192)
        grids[n] = _grid_for(n, res, st.get_int("grid_seed", 0))
    rows, summary = theorem_roundtrip(
        entries,
        grids,
        pairs_per_dim=st.get_int("pairs", 8),
        seed=st.get_int("pair_seed", 2024),
    )
    ok = (
        summary["marginal"] == 0
        and summary["empirical_violations"] == 0
        and summary["counterexamples_failed"] == 0
    )
    emit_json(
        "corpus",
        {
            "entries": [e.label for e in entries],
            "summary": summary,
            "all_clear": ok,
            "rows": rows,
        },
        out=args.out,
    )
    header = [
        "label", "n", "i", "verdict", "worst_value", "tolerance",
        "empirical_violations", "counterexample", "drop", "threshold",
    ]
    write_csv(args.csv, header, [[r.get(h, "") for h in header] for r in rows])
    return EXIT_OK if ok else EXIT_VIOLATION


# -- parser ------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="areafun",
        description="Integral functionals of curvature measures: verdicts, hunts, reports.",
        epilog=(
            "exit codes: 0 assertion holds / search succeeded; 1 violation found "
            "(hunts: nothing found); 2 usage or config error; 3 numerical failure"
        ),
    )
    parser.add_argument("--version", action="version", version=f"areafun {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, want_i=True, common=True):
        p = sub.add_parser(name, help=help_)
        if common:
            _add_common(p, want_i=want_i)
        p.add_argument("--config", help="key = value file presetting any long flag")
        p.add_argument("--out", help="write the JSON summary here instead of stdout")
        p.add_argument("--csv", help="write a CSV detail table here")
        p.set_defaults(handler=handler)
        return p

    p = add("mi-check", cmd_mi_check, "decide the order-i eigenvalue-sum condition")
    p.add_argument("--tol", help="override the verdict tolerance")
    p.add_argument("--refine", help="local refinement around the worst node (default true)")

    p = add("mono-test", cmd_mono_test, "empirical monotonicity on random nested pairs")
    p.add_argument("--pairs", help="number of nested pairs (default 12)")
    p.add_argument("--seed", help="pair-sampling seed")
    p.add_argument("--tol-factor", dest="tol_factor", help="violation threshold factor")

    p = add("mono-hunt", cmd_mono_hunt, "construct a monotonicity counterexample")
    p.add_argument("--kappas", help="bump concentrations to sweep")
    p.add_argument("--delta-regs", dest="delta_regs", help="regularisations to sweep")

    p = add("bm-test", cmd_bm_test, "power-concavity along a Minkowski segment")
    p.add_argument("--K", help="left endpoint body (default ball:1)")
    p.add_argument("--L", help="right endpoint body")
    p.add_argument("--t", help="number of segment samples (default 21)")
    p.add_argument("--tol-factor", dest="tol_factor", help="violation threshold factor")

    p = add("bm2-test", cmd_bm2_test, "second-order power-concavity criterion")
    p.add_argument("--body", help="base body (default ball:1)")
    p.add_argument("--phi", help="perturbation spec (default poly:\"x1*x2\")")
    p.add_argument("--form", help="second-variation form (quadratic/adjoint/gradient)")

    p = add("bm-hunt", cmd_bm_hunt, "hunt a confirmed power-concavity violation")
    p.add_argument("--rho", help="patch radii to sweep")
    p.add_argument("--eps", help="oscillation wavelengths to sweep")
    p.add_argument("--eta", help="wave smoothing fraction")

    p = add("eval", cmd_eval, "evaluate the order-i functional on a body")
    p.add_argument("--body", help="body spec (default ball:1)")

    p = add("mollify", cmd_mollify, "rotation-average smoothing diagnostics", want_i=False)
    p.add_argument("--i", help="also check order-i condition preservation")
    p.add_argument("--k", help="kernel scales (default 4,8,16)")
    p.add_argument("--samples", help="rotation samples per kernel (default 200)")
    p.add_argument("--seed", help="rotation sampling seed")

    p = add("ibp-check", cmd_ibp_check, "first-order exchange-symmetry residual")
    p.add_argument("--phi", help="perturbation spec (default poly:\"x1^2 + x1*x2\")")
    p.add_argument("--body", help="base body (default ball:1)")
    p.add_argument("--factor", help="pass threshold in error-estimate units (default 5)")

    p = add("cylinder-check", cmd_cylinder_check,
            "cylinder splitting identity at n=3", common=False)
    p.add_argument("--f", help="weight function spec (default const:1)")
    p.add_argument("--K1", help="flat body: disc:r or ellipse:a,b (default disc:1)")
    p.add_argument("--R", help="cylinder length (default 1)")
    p.add_argument("--deltas", help="thickness sweep (default 0.05,0.02,0.01)")
    p.add_argument("--L", help="also verify the segment-trading identity against this body")
    p.add_argument("--tol", help="relative-residual tolerance (default 0.02)")
    p.add_argument("--nz", help="polar resolution of the sphere grid (default 800)")
    p.add_argument("--naz", help="azimuthal resolution (default 96)")

    p = add("dimred", cmd_dimred, "scaled large-R limit onto the circle functional",
            common=False)
    p.add_argument("--f", help="weight function spec (default const:1)")
    p.add_argument("--K1", help="flat body: disc:r or ellipse:a,b (default disc:1)")
    p.add_argument("--R", help="cylinder lengths (default 2,8,32)")
    p.add_argument("--deltas", help="thickness sweep (default 0.02,0.01)")
    p.add_argument("--tol", help="corrected-error tolerance at the largest R (default 0.02)")
    p.add_argument("--nz", help="polar resolution of the sphere grid (default 800)")
    p.add_argument("--naz", help="azimuthal resolution (default 96)")

    p = add("corpus", cmd_corpus, "condition/monotonicity roundtrip over the corpus",
            common=False)
    p.add_argument("--seed", help="corpus sampling seed (hex accepted)")
    p.add_argument("--labels", help="comma-separated corpus labels to restrict to")
    p.add_argument("--pairs", help="nested pairs per dimension (default 8)")
    p.add_argument("--pair-seed", dest="pair_seed", help="nested-pair seed (default 2024)")
    p.add_argument("--grid3", help="grid resolution for n=3 entries (default 8192)")
    p.add_argument("--grid4", help="grid resolution for n=4 entries (default 65536)")
    p.add_argument("--grid-seed", dest="grid_seed", help="seed for sampled grids")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return args.handler(args, config)
    except DomainError as exc:
        print(f"areafun {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EvaluationError, KernelError, ConstructionError, SearchError) as exc:
        print(f"areafun {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
