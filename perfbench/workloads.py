"""The four workloads: inputs made from the seed, operations, output checks.

Every workload object has `ops`, a list of (name, callable) making one round,
and `check(round_index, name, output)`, which returns a list of errors for
one operation's output; `finish()` returns errors found across operations,
as (round_index, name, errors) triples.  Program calls go through module
attributes at call time, so a traced run sees them through its wrappers.
"""

import importlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


class Workload:
    known_faults = ()

    def finish(self):
        return []


def _warm(grid):
    """Tangent frames and the half-resolution rule are built lazily on first
    use and kept on the grid; set-up builds them so that every round does the
    same work."""
    grid.frames()
    grid.coarse().frames()


# -- roundtrip ----------------------------------------------------------------------

SATISFIED_ALL = {
    "const-1", "const-2.5", "affine-z", "support-ell-1", "support-rand-1",
    "const4-1", "support4-ell", "support4-rand",
}
ROUNDTRIP_N4 = ("bump4",)  # violated at every order; the cheapest n=4 weight that is
PROBE = "cache-probe"


class Roundtrip(Workload):
    """Every n=3 corpus weight plus bump4 through theorem_roundtrip on the
    standard grids, and the cache-isolation probe."""

    known_faults = (PROBE,)

    def __init__(self, seed):
        from areafun import bodies, experiments, functionals, sphere

        self.experiments = experiments
        self.functionals = functionals
        self.bodies = bodies
        self.sphere = sphere
        self.grids = experiments.default_grids()
        self.lat = {
            "latitude_grid(40,20)": sphere.latitude_grid(40, 20),
            "latitude_grid(20,40)": sphere.latitude_grid(20, 40),
        }
        for g in [*self.grids.values(), *self.lat.values()]:
            _warm(g)
        self.entries = {
            e.label: e for e in experiments.corpus() if e.n == 3 or e.label in ROUNDTRIP_N4
        }
        self.pair_seed = seed
        self.ops = [(label, self._op(e)) for label, e in self.entries.items()]
        # fixed order, unlike the other workloads: peak memory depends on
        # which operations ran before bump4
        self.ops.append((PROBE, self._probe))
        self._fine = {}

        # keep each counterexample report: theorem_roundtrip returns only its
        # drop and threshold, the containment check needs the bodies
        self.captured = []
        program = experiments.monotonicity_counterexample

        def capture(*args, **kwargs):
            report = program(*args, **kwargs)
            self.captured.append(report)
            return report

        experiments.monotonicity_counterexample = capture

    def _op(self, entry):
        def run():
            self.captured.clear()
            rows, _ = self.experiments.theorem_roundtrip(
                [entry], self.grids, pairs_per_dim=8, seed=self.pair_seed
            )
            return rows, list(self.captured)

        return run

    def _probe(self):
        K = self.bodies.ellipsoid([1.0, 1.0, 0.5])
        one = self.sphere.constant(3, 1.0)
        value = self.functionals.functional_value
        return {name: value(one, K, 2, g)[0] for name, g in self.lat.items()}

    def fine_nodes(self, n):
        """Nodes of a grid four times finer than the program's, for containment."""
        if n not in self._fine:
            res = 4 * len(self.grids[n])
            self._fine[n] = self.sphere.make_grid(n, res, seed=2).nodes
        return self._fine[n]

    def check(self, round_index, name, output):
        if name == PROBE:
            return checks.check_cache_probe(output, checks.spheroid_area(1.0, 0.5))
        entry = self.entries[name]
        rows, reports = output
        c = float(name.split("-")[1]) if name.startswith("saddle") else None
        errors = checks.check_roundtrip_rows(
            name, entry.n, rows, {"satisfied_all": name in SATISFIED_ALL, "saddle_c": c}
        )
        with_cex = [r for r in rows if r.get("counterexample")]
        if [r["i"] for r in with_cex] != [rep.order for rep in reports]:
            return errors + [f"{name}: counterexample reports do not match the rows"]
        nodes = self.fine_nodes(entry.n) if reports else None
        for row, rep in zip(with_cex, reports):
            gap = rep.body_outer.support(nodes) - rep.body_inner.support(nodes)
            errors += checks.check_counterexample(
                f"{name} i={row['i']}", row["drop"], row["threshold"],
                rep.value_inner, rep.value_outer, float(gap.min()),
            )
        return errors


# -- hunt -----------------------------------------------------------------------------

HUNTS = (
    ("saddle3-0.42", 2, {}),
    ("saddle3-0.45", 2, {}),
    ("saddle3-0.48", 2, {}),
    # one setting, coarser than the default oscillation (eps 0.02/0.01)
    ("saddle4-0.55", 3, {"rho_list": (0.25,), "eps_list": (0.08,)}),
)


class Hunt(Workload):
    """bm_violation_hunt on saddle weights inside the violated window."""

    def __init__(self, seed):
        from areafun import experiments

        self.experiments = experiments
        self.grids = experiments.default_grids()
        for g in self.grids.values():
            _warm(g)
        by_label = {e.label: e for e in experiments.corpus()}
        self.ops = []
        for label, i, kwargs in HUNTS:
            entry = by_label[label]
            self.ops.append((f"{label}/i={i}", self._op(entry, i, kwargs)))
        random.Random(seed).shuffle(self.ops)

    def _op(self, entry, i, kwargs):
        def run():
            return self.experiments.bm_violation_hunt(entry.f, i, self.grids[entry.n], **kwargs)

        return run

    def check(self, round_index, name, rep):
        return checks.check_hunt(
            name, rep.found, rep.segment_gap, rep.criterion_value, rep.criterion_tol, rep.u_star
        )


# -- mollify -------------------------------------------------------------------------

MOLLIFY_LABELS = ("support-ell-1", "saddle3-0.42")
MOLLIFY_KS = (4, 8, 16)
MOLLIFY_GRID = 2048
# The kernel seed stays fixed: another rotation sample changes how long the
# Nelder-Mead refinement runs by up to 30%, which would swamp the timings.
# The benchmark seed orders the operations.
KERNEL_SEED = 0


class Mollify(Workload):
    """Rotation-average smoothing of two corpus weights at three scales."""

    def __init__(self, seed):
        from areafun import experiments, sphere

        # the package rebinds the name `mollify` to the function
        self.mollify = importlib.import_module("areafun.mollify")
        self.grid = sphere.make_grid(3, MOLLIFY_GRID)
        _warm(self.grid)
        by_label = {e.label: e for e in experiments.corpus()}
        self.weights = {label: by_label[label].f for label in MOLLIFY_LABELS}
        # orders the raw weight satisfies, from closed forms: a support
        # function satisfies every order, the saddle those with a positive sum
        self.satisfied = {
            "support-ell-1": [1, 2],
            "saddle3-0.42": [i for i in (1, 2) if checks.saddle_worst(3, i, 0.42) > 0],
        }
        self.ops = [
            (f"{label}/k={k}", self._op(label, k)) for label in MOLLIFY_LABELS for k in MOLLIFY_KS
        ]
        random.Random(seed).shuffle(self.ops)
        self.dists = {}

    def _op(self, label, k):
        f = self.weights[label]

        def run():
            m = self.mollify
            fk = m.mollify(f, k, seed=KERNEL_SEED)
            dist = m.sup_distance(f, fk, self.grid)
            reps = [
                (i, m.mollify_preserves_monotone(f, i, k, self.grid, seed=KERNEL_SEED).verdict)
                for i in self.satisfied[label]
            ]
            return fk, dist, reps

        return run

    def check(self, round_index, name, output):
        fk, dist, verdicts = output
        label, k = name.split("/k=")
        f = self.weights[label]
        nodes = self.grid.nodes[::32]
        kernel = fk.kernel
        own = sum(w * f.value(nodes @ R.T) for w, R in zip(kernel.weights, kernel.rotations))
        self.dists.setdefault((round_index, label), []).append((int(k), dist))
        return checks.check_mollified_values(name, fk.value(nodes), own) + checks.check_preserved(
            name, verdicts
        )

    def finish(self):
        out = []
        for (round_index, label), dists in self.dists.items():
            for k in checks.check_sup_decreasing(sorted(dists)):
                error = f"{label}: sup distance at k={k} is not below the previous k"
                out.append((round_index, f"{label}/k={k}", [error]))
        return out


# -- cli ------------------------------------------------------------------------------


class Cli(Workload):
    """Cold `python -m areafun.cli` calls, one process per call."""

    def __init__(self, seed, root, trace_dir=None):
        rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.trace_dir = trace_dir
        self.traces = []
        # the seed moves numbers only; orders and specs stay fixed, so that
        # every seed asks for the same amount of work
        i_const, i_poly, i_ibp = 1, 2, 2
        r = round(rng.uniform(0.5, 2.0), 6)
        a = round(rng.uniform(0.5, 1.5), 6)
        b, c, d = (round(rng.uniform(-0.5, 0.5), 6) for _ in range(3))
        axes = ",".join(f"{rng.uniform(0.8, 1.4):.6f}" for _ in range(3))
        R = round(rng.uniform(1.0, 3.0), 6)
        poly = f'poly:"{a} + {b}*x1^2 + {c}*x2*x3 + {d}*x3"'
        # integral over S^2: x1^2 -> 4 pi / 3, odd monomials -> 0
        poly_integral = 4.0 * math.pi * a + b * 4.0 * math.pi / 3.0
        const_value = checks.ball_functional(3, i_const, r, checks.SPHERE2_AREA)
        poly_value = checks.ball_functional(3, i_poly, r, poly_integral)
        ibp_body = f"ellipsoid:{axes}"
        self.calls = {
            "eval-const": (
                ["eval", "--f", "const:1", "--n", "3", "--i", str(i_const), "--body", f"ball:{r}"],
                0,
                lambda doc: checks.check_eval("eval-const", doc, const_value, 1e-10),
            ),
            "eval-poly": (
                ["eval", "--f", poly, "--n", "3", "--i", str(i_poly), "--body", f"ball:{r}"],
                0,
                lambda doc: checks.check_eval("eval-poly", doc, poly_value, 1e-5),
            ),
            "mi-check": (
                ["mi-check", "--f", 'poly:"x1^2 - x2^2"', "--n", "3", "--i", "2"],
                1,
                lambda doc: checks.check_mi_saddle("mi-check", doc),
            ),
            "ibp-check": (
                ["ibp-check", "--f", 'poly:"x1^2"', "--n", "3", "--i", str(i_ibp),
                 "--body", ibp_body],
                0,
                lambda doc: checks.check_ibp("ibp-check", doc),
            ),
            "cylinder-check": (
                ["cylinder-check", "--K1", "disc:1", "--R", str(R), "--L", "ball:1"],
                0,
                lambda doc: checks.check_cylinder("cylinder-check", doc, R),
            ),
            "dimred": (
                ["dimred", "--K1", "disc:1", "--R", "2,8,32"],
                0,
                lambda doc: checks.check_dimred("dimred", doc),
            ),
        }
        self.ops = [(name, self._op(argv)) for name, (argv, _, _) in self.calls.items()]
        random.Random(seed).shuffle(self.ops)

    def _op(self, argv):
        def run():
            if self.trace_dir is None:
                cmd = [sys.executable, "-m", "areafun.cli", *argv]
                trace_file = None
            else:
                fd, trace_file = tempfile.mkstemp(suffix=".json", dir=self.trace_dir)
                os.close(fd)
                cmd = [sys.executable, os.path.join(HERE, "cli_launcher.py"), trace_file, *argv]
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
            if trace_file is not None:
                with open(trace_file) as fh:
                    self.traces.append(json.load(fh))
                os.remove(trace_file)
            return proc.returncode, proc.stdout, proc.stderr

        return run

    def check(self, round_index, name, output):
        code, stdout, stderr = output
        _, expected_code, check_doc = self.calls[name]
        errors = checks.check_exit(name, code, expected_code)
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return errors + [f"{name}: no JSON document on stdout ({stderr.strip()[-200:]})"]
        return errors + check_doc(doc)


WORKLOADS = {"roundtrip": Roundtrip, "hunt": Hunt, "mollify": Mollify, "cli": Cli}
