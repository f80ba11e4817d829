"""Command-line surface: verdict commands, hunts, and report emission.

Every subcommand prints one JSON document (stdout, or --out file) and can
emit a CSV detail table with --csv.  Exit codes: 0 when the command's
assertion holds (for the hunt commands: when the search succeeds), 1 when a
violation is found (or a hunt comes back empty-handed), 2 for usage and
configuration errors, 3 for numerical failures.

A config file (--config, one ``key = value`` per line, ``#`` comments) may
preset any long flag, with explicit flags taking precedence; a key that is a
flag of no subcommand is a usage error.  A list flag needs at least one value,
and --help states every default.  Function arguments use a small spec
language::

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
import contextlib
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
    bm_violation_hunt,
    corpus,
    monotonicity_counterexample,
    monotonicity_test,
    nested_pairs,
    theorem_roundtrip,
)
from .functionals import concavity_criterion, functional_value
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
from .sphere import (
    SphericalFunction,
    bump,
    combination,
    constant,
    linear,
    make_grid,
    polynomial,
)

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
    """``key = value`` lines; each key must be a flag of some subcommand."""
    known = {flag.replace("-", "_") for cmd in COMMANDS.values() for flag, *_ in _flags(cmd)}
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
                key = key.strip().replace("-", "_")
                if key not in known:
                    raise DomainError(f"{path}:{k}: {key!r} is not a flag of any subcommand")
                cfg[key] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}")
    return cfg


class Settings:
    """Flag values with config-file fallback: flag > config > default."""

    def __init__(self, args, config):
        self.args = args
        self.config = config

    def get(self, key, default=None, cast=str):
        """The value of --key.  Text, whether from a flag, the config or the
        default, goes through cast; a cast's ValueError is a usage error."""
        raw = getattr(self.args, key, None)
        if raw is None:
            raw = self.config.get(key, default)
        if not isinstance(raw, str):
            return raw
        try:
            return cast(raw)
        except ValueError as exc:
            raise DomainError(f"bad value for --{key.replace('_', '-')}: {exc}")

    def get_int(self, key, default=None):
        return self.get(key, default, _count)


def _amount(text, parse=float):
    # every float flag is a tolerance, factor, radius, width or scale, and
    # every integer flag a count, order, size or seed
    x = parse(text)
    if not 0 <= x < math.inf:
        raise ValueError(f"must be finite and not negative: {text!r}")
    return x


def _count(text):
    return _amount(text, lambda t: int(t, 0))  # base 0 reads hex seeds


def _switch(text):
    low = text.strip().lower()
    if low not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"not a boolean: {text!r}")
    return low in ("1", "true", "yes", "on")


def _list(item):
    """Cast of a comma-separated flag: one or more items, each cast by item."""

    def cast(text):
        vals = tuple(item(x.strip()) for x in text.split(",") if x.strip())
        if not vals:
            raise ValueError(f"needs at least one value: {text!r}")
        return vals

    return cast


# -- report emission ---------------------------------------------------------------


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (SupportBody, SphericalFunction)):
        return obj.label
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "nan", "inf" or "-inf": JSON has no such numbers
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


@contextlib.contextmanager
def _output(path, **kwargs):
    """The file at path, open for writing; one that cannot be written is a usage error."""
    try:
        with open(path, "w", **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc


def emit_json(command, payload, out=None):
    doc = {"command": command, "version": __version__, **payload}
    doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"
    if out:
        with _output(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_csv(path, header, rows):
    with _output(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:  # the csv module would write numpy's repr of a numpy float
            w.writerow([repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row])


# -- commands ----------------------------------------------------------------------


def _given(**kwargs):
    """The keyword arguments that have a value; the rest keep the callee's defaults."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _rows(header, records):
    """A CSV header and one row per record, a dict or a report read by attribute."""
    return header, [
        [r.get(h, "") if isinstance(r, dict) else getattr(r, h) for h in header] for r in records
    ]


def _report(*header):
    """The csv function of a one-row table: the named fields of the report."""
    return lambda p: _rows(list(header), [p["report"]])


def _columns(header, *fields):
    """The csv function of a table whose k-th row holds the k-th item of each
    of the report's list fields."""
    return lambda p: (header, list(zip(*(getattr(p["report"], f) for f in fields))))


def _mi_check(s, c):
    rep = check_mi(c.f, c.i, c.grid, tol=s.tol, refine=s.refine)
    return {"report": rep}, rep.ok


def _mi_check_csv(p):
    rep = p["report"]
    nodes = [f"worst_node_{k + 1}" for k in range(len(rep.worst_node))]
    row = [rep.order, rep.verdict, rep.worst_value, rep.tolerance, *rep.worst_node]
    return ["order", "verdict", "worst_value", "tolerance", *nodes], [row]


def _mono_test(s, c):
    pairs = nested_pairs(c.n, s.pairs, seed=s.seed)
    rep = monotonicity_test(c.f, c.i, pairs, c.grid, tol_factor=s.tol_factor)
    return {"consistent": rep.consistent, "report": rep}, rep.consistent


def _mono_hunt(s, c):
    given = _given(kappas=s.kappas, delta_regs=s.delta_regs)
    rep = monotonicity_counterexample(c.f, c.i, c.grid, **given)
    return {"found": True, "decisive": rep.decisive, "report": rep}, True


def _bm_test(s, c):
    K, L = parse_body(s.K, c.n), parse_body(s.L, c.n)
    rep = bm_segment_test(c.f, c.i, K, L, c.grid, t_count=s.t, tol_factor=s.tol_factor)
    ok = rep.consistent_with_concavity
    return {"K": K, "L": L, "consistent_with_concavity": ok, "report": rep}, ok


def _bm2_test(s, c):
    body, phi = parse_body(s.body, c.n), parse_function(s.phi, c.n)
    rep = concavity_criterion(c.f, body, phi, c.i, c.grid, form=s.form)
    ok = rep.consistent_with_concavity
    return {"body": body, "phi": phi, "consistent_with_concavity": ok, "report": rep}, ok


def _bm2_test_csv(p):
    rep = p["report"]
    row = [rep.order, rep.value, rep.tolerance, rep.functional, rep.first, rep.second]
    return ["order", "criterion", "tolerance", "functional", "first", "second"], [row]


def _bm_hunt(s, c):
    rep = bm_violation_hunt(c.f, c.i, c.grid, **_given(rho_list=s.rho, eps_list=s.eps, eta=s.eta))
    return {"found": rep.found, "confirmed": rep.confirmed, "report": rep}, rep.confirmed


def _eval(s, c):
    body = parse_body(s.body, c.n)
    val, est = functional_value(c.f, body, c.i, c.grid)
    return {"body": body, "value": val, "estimate": est}, True


def _mollify(s, c):
    base = check_mi(c.f, c.i, c.grid) if c.i is not None else None
    # preservation is only a claim when the input satisfies the condition;
    # smoothing a violating function may legitimately stay violating
    applicable = base is not None and base.ok
    rows, preserved = [], True
    for k in s.k:
        fk = mollify(c.f, k, samples=s.samples, seed=s.seed)
        row = {"k": k, "sup_distance": sup_distance(c.f, fk, c.grid)}
        if base is not None:
            rep = check_mi(fk, c.i, c.grid)
            row.update(verdict=rep.verdict, worst_value=rep.worst_value)
            preserved = preserved and (rep.ok or not applicable)
        rows.append(row)
    dists = [r["sup_distance"] for r in rows]
    decreasing = all(a >= b for a, b in zip(dists, dists[1:]))
    payload = {"k": s.k, "rows": rows, "sup_distances_decreasing": decreasing}
    if base is not None:
        payload["input_verdict"] = base.verdict
        payload["condition_preserved"] = preserved if applicable else None
    return payload, decreasing and preserved


def _ibp_check(s, c):
    phi, body = parse_function(s.phi, c.n), parse_body(s.body, c.n)
    rep = ibp_symmetry_residual(c.f, phi, body, c.i, c.grid)
    ok = rep.within(factor=s.factor)
    payload = {"phi": phi, "body": body, "within_tolerance": ok, "report": rep}
    return {**payload, "residual": rep.residual, "combined_estimate": rep.combined_estimate}, ok


def _cylinder_check(s, c):
    K1, f = parse_flat(s.K1, max(s.deltas)), parse_function(s.f, 3)
    grid = reduction_grid(s.nz, s.naz)
    circle = circle_grid()  # shared, so both checks reuse K1's planar stacks
    rep = cylinder_lemma_residual(f, K1, s.R, deltas=s.deltas, grid=grid, circle=circle)
    ok = rep.relative_residual <= s.tol
    payload = {"f": f, "K1": K1.planar, "R": s.R, "tol": s.tol, "report": rep}
    payload.update(within_tolerance=ok, relative_residual=rep.relative_residual)
    if s.L is not None:
        L = parse_body(s.L, 3)
        seg = segment_factor_identity(K1, L, deltas=s.deltas, grid=grid, circle=circle)
        seg_ok = seg.relative_residual <= s.tol
        ok = ok and seg_ok
        payload.update(segment_identity=seg, segment_within_tolerance=seg_ok)
    return payload, ok


def _cylinder_check_csv(p):
    rep, seg = p["report"], p.get("segment_identity")
    rows = [["lhs", d, v, e] for d, v, e in zip(rep.deltas, rep.lhs_values, rep.lhs_estimates)]
    if seg is not None:
        rows += [["segment", d, v, ""] for d, v in zip(seg.deltas, seg.ambient_values)]
    return ["series", "delta", "value", "estimate"], rows


def _dimred(s, c):
    K1, f = parse_flat(s.K1, max(s.deltas)), parse_function(s.f, 3)
    grid = reduction_grid(s.nz, s.naz)
    rep = dimension_reduction_limit(f, K1, R_list=s.R, deltas=s.deltas, grid=grid)
    decaying = all(a > b for a, b in zip(rep.raw_errors, rep.raw_errors[1:]))
    ok = rep.corrected_errors[-1] <= s.tol and decaying
    payload = {"f": f, "K1": K1.planar, "tol": s.tol, "within_tolerance": ok}
    return {**payload, "raw_errors_decay": decaying, "report": rep}, ok


def _corpus(s, c):
    entries = corpus(**_given(seed=s.seed))
    if s.labels is not None:
        unknown = set(s.labels) - {e.label for e in entries}
        if unknown:
            raise DomainError(f"unknown corpus labels: {sorted(unknown)}")
        entries = [e for e in entries if e.label in s.labels]
    dims = sorted({e.n for e in entries})
    grids = {n: make_grid(n, getattr(s, f"grid{n}"), seed=s.grid_seed) for n in dims}
    rows, summary = theorem_roundtrip(entries, grids, pairs_per_dim=s.pairs, seed=s.pair_seed)
    counts = ("marginal", "empirical_violations", "counterexamples_failed")
    ok = all(summary[k] == 0 for k in counts)
    payload = {"entries": [e.label for e in entries], "summary": summary, "all_clear": ok}
    return {**payload, "rows": rows}, ok


# -- the command table ---------------------------------------------------------------
#
# An entry holds a command's help line, its flags, whether it takes the common
# --f/--n/--i/--grid/--grid-seed group, whether it is a hunt (a SearchError
# then means nothing was found: exit 1 and no CSV), run and csv.  A flag is
# (name, cast, default, help).  A default is text: it goes through the cast
# like a value given on the command line, and --help quotes it.  A callable
# default takes the dimension n and its help states it.  REQUIRED marks a flag
# without a default, which a --config file may still preset.

REQUIRED = object()


def _grid_default(n):
    return "65536" if n >= 4 else "8192"


def _far_body(n):
    return "ellipsoid:" + "1," * (n - 1) + "2"


GRID_SEED = ("grid-seed", _count, "0", "seed for sampled grids")
COMMON = (
    ("f", str, REQUIRED, "weight function spec"),
    ("n", _count, "3", "ambient dimension"),
    ("i", _count, REQUIRED, "order of the density, 1 <= i <= n-1"),
    ("grid", _count, _grid_default, "grid resolution (default "
     f"{_grid_default(3)} for n <= 3, {_grid_default(4)} for n >= 4)"),
    GRID_SEED,
)
FILES = (
    ("config", str, None, "key = value file presetting any long flag"),
    ("out", str, None, "write the JSON summary here instead of stdout"),
    ("csv", str, None, "write a CSV detail table here"),
)
BODY = ("body", str, "ball:1", "body spec")
FLAT = (
    ("f", str, "const:1", "weight function spec"),
    ("K1", str, "disc:1", "flat body: disc:r or ellipse:a,b"),
    ("nz", _count, "800", "polar resolution of the sphere grid"),
    ("naz", _count, "96", "azimuthal resolution"),
)

COMMANDS = {
    "mi-check": dict(
        help="decide the order-i eigenvalue-sum condition", common=True,
        run=_mi_check, csv=_mi_check_csv, flags=(
            ("tol", _amount, None, "override the verdict tolerance"),
            ("refine", _switch, "true", "local refinement around the worst node"),
        )),
    "mono-test": dict(
        help="empirical monotonicity on random nested pairs", common=True,
        run=_mono_test, flags=(
            ("pairs", _count, "12", "number of nested pairs"),
            ("seed", _count, "0", "pair-sampling seed"),
            ("tol-factor", _amount, "10", "violation threshold factor"),
        ),
        csv=lambda p: _rows(["pair", "drop", "estimate", "threshold", "violation"],
                            p["report"].rows)),
    "mono-hunt": dict(
        help="construct a monotonicity counterexample", common=True, hunt=True,
        run=_mono_hunt, flags=(
            ("kappas", _list(_amount), None, "bump concentrations to sweep"),
            ("delta-regs", _list(_amount), None, "regularisations to sweep"),
        ),
        csv=_report("order", "kappa", "s", "drop", "threshold", "value_inner", "value_outer")),
    "bm-test": dict(
        help="power-concavity along a Minkowski segment", common=True,
        run=_bm_test, csv=_columns(["t", "value", "estimate"], "ts", "values", "estimates"),
        flags=(
            ("K", str, "ball:1", "left endpoint body"),
            ("L", str, _far_body, "right endpoint body (default "
             f"{_far_body(3)} for n = 3, {_far_body(4)} for n = 4: n-1 ones, then 2)"),
            ("t", _count, "21", "number of segment samples"),
            ("tol-factor", _amount, "5", "violation threshold factor"),
        )),
    "bm2-test": dict(
        help="second-order power-concavity criterion", common=True,
        run=_bm2_test, csv=_bm2_test_csv, flags=(
            BODY,
            ("phi", str, 'poly:"x1*x2"', "perturbation spec"),
            ("form", str, "quadratic", "second-variation form (quadratic/adjoint/gradient)"),
        )),
    "bm-hunt": dict(
        help="hunt a confirmed power-concavity violation", common=True, hunt=True,
        run=_bm_hunt, flags=(
            ("rho", _list(_amount), None, "patch radii to sweep"),
            ("eps", _list(_amount), None, "oscillation wavelengths to sweep"),
            ("eta", _amount, None, "wave smoothing fraction"),
        ),
        csv=_report("order", "rho", "eps", "s", "criterion_value", "criterion_tol", "segment_gap")),
    "eval": dict(
        help="evaluate the order-i functional on a body", common=True,
        run=_eval, csv=lambda p: _rows(["value", "estimate"], [p]), flags=(BODY,)),
    "mollify": dict(
        help="rotation-average smoothing diagnostics", common=True, run=_mollify, flags=(
            ("i", _count, None, "also check order-i condition preservation"),
            ("k", _list(_count), "4,8,16", "kernel scales"),
            ("samples", _count, "200", "rotation samples per kernel"),
            ("seed", _count, "0", "rotation sampling seed"),
        ),
        csv=lambda p: _rows(["k", "sup_distance"] + (
            ["verdict", "worst_value"] if "input_verdict" in p else []), p["rows"])),
    "ibp-check": dict(
        help="first-order exchange-symmetry residual", common=True, run=_ibp_check, flags=(
            # the default perturbation mixes parities so the compared integrals
            # are generically nonzero; a parity-degenerate pair leaves both
            # sides at quadrature-noise scale where the 5x rule compares noise
            ("phi", str, 'poly:"x1^2 + x1*x2"', "perturbation spec"),
            BODY,
            ("factor", _amount, "5", "pass threshold in error-estimate units"),
        ),
        csv=_report("lhs", "rhs", "residual", "lhs_estimate", "rhs_estimate")),
    "cylinder-check": dict(
        help="cylinder splitting identity at n=3",
        run=_cylinder_check, csv=_cylinder_check_csv, flags=FLAT + (
            ("R", _amount, "1", "cylinder length"),
            ("deltas", _list(_amount), "0.05,0.02,0.01", "thickness sweep"),
            ("L", str, None, "also verify the segment-trading identity against this body"),
            ("tol", _amount, "0.02", "relative-residual tolerance"),
        )),
    "dimred": dict(
        help="scaled large-R limit onto the circle functional", run=_dimred, flags=FLAT + (
            ("R", _list(_amount), "2,8,32", "cylinder lengths"),
            ("deltas", _list(_amount), "0.02,0.01", "thickness sweep"),
            ("tol", _amount, "0.02", "corrected-error tolerance at the largest R"),
        ),
        csv=_columns(["R", "scaled_value", "corrected_value", "raw_error", "corrected_error"],
                     "R_list", "scaled_values", "corrected_values", "raw_errors",
                     "corrected_errors")),
    "corpus": dict(
        help="condition/monotonicity roundtrip over the corpus",
        run=_corpus, flags=(
            ("seed", _count, None, "corpus sampling seed (hex accepted)"),
            ("labels", _list(str), None, "comma-separated corpus labels to restrict to"),
            ("pairs", _count, "8", "nested pairs per dimension"),
            ("pair-seed", _count, "2024", "nested-pair seed"),
            ("grid3", _count, _grid_default(3), "grid resolution for n=3 entries"),
            ("grid4", _count, _grid_default(4), "grid resolution for n=4 entries"),
            GRID_SEED,
        ),
        csv=lambda p: _rows(["label", "n", "i", "verdict", "worst_value", "tolerance",
                             "empirical_violations", "counterexample", "drop", "threshold"],
                            p["rows"])),
}


# -- runner ------------------------------------------------------------------------


def _flags(cmd):
    """A command's flags in help order; its own flag replaces a common one."""
    flags = (COMMON if cmd.get("common") else ()) + FILES + cmd["flags"]
    return {flag[0]: flag for flag in flags}.values()


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
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd["help"])
        for flag, _, default, text in _flags(cmd):
            if default is REQUIRED:
                text += " (required)"
            elif isinstance(default, str):
                text += f" (default {default})"
            p.add_argument("--" + flag, help=text)
    return parser


def run_command(name, args, config):
    """Resolve a command's flags, run it, write its JSON and CSV, and return
    the exit code."""
    cmd = COMMANDS[name]
    st, s = Settings(args, config), argparse.Namespace()
    for flag, cast, default, _ in _flags(cmd):
        key = flag.replace("-", "_")
        value = st.get(key, default(s.n) if callable(default) else default, cast)
        if value is REQUIRED:
            raise DomainError(f"--{flag} is required")
        setattr(s, key, value)
    c, head = None, {}
    if cmd.get("common"):
        if s.n < 2:
            raise DomainError("ambient dimension must be at least 2")
        if s.i is not None and not 1 <= s.i <= s.n - 1:
            raise DomainError(f"order --i must satisfy 1 <= i <= {s.n - 1}")
        grid = make_grid(s.n, s.grid, seed=s.grid_seed)
        c = argparse.Namespace(f=parse_function(s.f, s.n), n=s.n, i=s.i, grid=grid)
        head = _given(f=c.f, n=s.n, i=s.i, grid_id=grid.grid_id)
    try:
        payload, ok = cmd["run"](s, c)
    except SearchError as exc:
        if not cmd.get("hunt"):
            raise
        payload, ok, s.csv = {"found": False, "reason": str(exc)}, False, None
    emit_json(name, {**head, **payload}, out=s.out)
    if s.csv:
        write_csv(s.csv, *cmd["csv"](payload))
    return EXIT_OK if ok else EXIT_VIOLATION


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return run_command(args.command, args, config)
    except DomainError as exc:
        print(f"areafun {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EvaluationError, KernelError, ConstructionError, SearchError) as exc:
        print(f"areafun {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
