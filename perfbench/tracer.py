"""Per-layer tracing of areafun from outside the package.

`Tracer.install()` replaces each public name listed in LAYERS, in every
areafun module namespace that binds it, by a wrapper that records a span:
call count and self time (the span's duration minus the time spent in
wrapped callees).  Extra counters are taken at the same boundaries: nodes
passed to q_batch, points passed to extension_hessian, nodes of every grid
built, and the matrices handed to numpy's symmetric eigensolvers, which are
attributed to the module of the innermost open span.

Nothing in the package is edited; the wrappers live only in the traced
process.  Spans stay in memory and are summarised by `metrics()`.
"""

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = {
    "sphere": [
        "q_batch",
        "frames",
        "SphericalFunction.value",
        "SphericalFunction.extension_hessian",
        "make_grid",
        "latitude_grid",
        "cap_grid",
        "panel_grid",
    ],
    "symfun": [
        "elem_sym_from_eigs",
        "cofactor_batch",
        "contract2_batch",
        "mixed_discriminant_batch",
    ],
    "bodies": ["SupportBody.q_stack", "SupportBody.q_eigs", "certify_c2plus", "realize_q"],
    "functionals": [
        "functional_value",
        "functional_difference",
        "functional_segment",
        "first_variation",
        "second_variation",
        "mixed_area_integral",
        "mixed_volume_smooth",
    ],
    "conditions": ["EigenSumScan", "check_mi", "eigen_sum"],
    "identities": ["ibp_symmetry_residual"],
    "experiments": [
        "theorem_roundtrip",
        "nested_pairs",
        "monotonicity_test",
        "monotonicity_counterexample",
        "bm_violation_hunt",
        "oscillating_phi",
    ],
    "mollify": [
        "MollifierKernel.build",
        "mollify",
        "mollify_preserves_monotone",
        "sup_distance",
    ],
    "reduction": [
        "cylinder_lemma_residual",
        "segment_factor_identity",
        "dimension_reduction_limit",
    ],
    "cli": ["main", "parse_function"],
}

EIG_MODULES = ("symfun", "bodies", "conditions", "functionals", "experiments")

# q_stack / q_eigs calls that reach one of these did real work (a cache miss)
_MISS_SPANS = ("bodies.SupportBody.q_stack", "bodies.SupportBody.q_eigs")

_COUNT_UNITS = {
    "sphere.q_batch.matrices": "count",
    "sphere.extension_hessian.points": "count",
    "sphere.grid_nodes": "count",
}
_RATIOS = (
    "bodies.q_stack.hit_ratio",
    "bodies.q_eigs.hit_ratio",
    "experiments.counterexample.decisive_ratio",
    "experiments.hunt.confirmed_ratio",
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, names in LAYERS.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
    units.update(_COUNT_UNITS)
    for module in EIG_MODULES:
        units[f"{module}.eig_matrices"] = "count"
    for name in _RATIOS:
        units[name] = "ratio"
    units["cli.import_s"] = "s"
    return units


def _batch_size(a, trailing):
    shape = np.shape(a)
    return int(np.prod(shape[:-trailing])) if len(shape) > trailing else 1


class Tracer:
    def __init__(self):
        self.paused = False  # set while the benchmark checks outputs
        self.reset()

    def reset(self):
        """Forget everything recorded so far (spans must all be closed)."""
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.misses = Counter()
        self.import_s = []
        self._stack = []  # open spans: [name, child seconds, did work]

    # -- recording ---------------------------------------------------------

    def _mark_work(self):
        for frame in self._stack:
            if frame[0] in _MISS_SPANS:
                frame[2] = True

    def _wrap(self, span, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [span, 0.0, False]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.calls[span] += 1
                tracer.self_s[span] += dt - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                if frame[2]:
                    tracer.misses[span] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _eig_wrap(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer.paused:
                return fn(a, *args, **kwargs)
            module = tracer._stack[-1][0].split(".")[0] if tracer._stack else "none"
            tracer.counts[f"{module}.eig_matrices"] += _batch_size(a, 2)
            tracer._mark_work()
            return fn(a, *args, **kwargs)

        return wrapper

    def _on_q_batch(self, args):
        self.counts["sphere.q_batch.matrices"] += _batch_size(args[1], 1)
        self._mark_work()

    def _on_ext_hessian(self, args):
        self.counts["sphere.extension_hessian.points"] += _batch_size(args[1], 1)

    def _on_counterexample(self, report):
        probes = [d for d in report.diagnostics if d["stage"] == "probe"]
        self.counts["counterexample.probes"] += len(probes)
        self.counts["counterexample.decisive"] += sum(d["drop"] > d["threshold"] for d in probes)

    def _on_hunt(self, report):
        stages = [d["stage"] for d in report.diagnostics]
        self.counts["hunt.criteria"] += stages.count("criterion")
        self.counts["hunt.confirmed"] += sum(
            d["stage"] == "segment" and d["segment_gap"] > 0 for d in report.diagnostics
        )

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every LAYERS name; areafun modules must already be imported."""
        modules = [
            m for k, m in list(sys.modules.items()) if k == "areafun" or k.startswith("areafun.")
        ]
        hooks = {
            "sphere.q_batch": (self._on_q_batch, None),
            "sphere.SphericalFunction.extension_hessian": (self._on_ext_hessian, None),
            "experiments.monotonicity_counterexample": (None, self._on_counterexample),
            "experiments.bm_violation_hunt": (None, self._on_hunt),
        }
        for module_name, names in LAYERS.items():
            module = sys.modules.get(f"areafun.{module_name}")
            if module is None:
                continue
            for name in names:
                span = f"{module_name}.{name}"
                before, after = hooks.get(span, (None, None))
                owner_name, _, attr = name.rpartition(".")
                if owner_name:  # a method: patch the class attribute
                    cls = getattr(module, owner_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = self._wrap(span, raw.__func__, before, after)
                        setattr(cls, attr, classmethod(wrapped))
                    else:
                        setattr(cls, attr, self._wrap(span, raw, before, after))
                    continue
                original = getattr(module, name)
                if isinstance(original, type):  # a class: its constructor is the span
                    original.__init__ = self._wrap(span, original.__init__, before, after)
                    continue
                wrapper = self._wrap(span, original, before, after)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        for solver in ("eigh", "eigvalsh"):
            setattr(np.linalg, solver, self._eig_wrap(getattr(np.linalg, solver)))
        grid_cls = sys.modules["areafun.sphere"].QuadratureGrid
        grid_init = grid_cls.__init__

        @functools.wraps(grid_init)
        def counting_init(grid, n, nodes, *args, **kwargs):
            if not self.paused:
                self.counts["sphere.grid_nodes"] += len(nodes)
            grid_init(grid, n, nodes, *args, **kwargs)

        grid_cls.__init__ = counting_init

    # -- export ------------------------------------------------------------

    def snapshot(self):
        """Plain-data state, for merging traces of several processes."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "misses": dict(self.misses),
            "import_s": list(self.import_s),
        }

    def merge(self, snap):
        self.calls.update(snap["calls"])
        for k, v in snap["self_s"].items():
            self.self_s[k] += v
        self.counts.update(snap["counts"])
        self.misses.update(snap["misses"])
        self.import_s.extend(snap["import_s"])

    def metrics(self, rounds):
        """Every per-layer metric, per round of operations."""

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in metric_units():
            if name.endswith(".calls"):
                value = self.calls[name[: -len(".calls")]] / rounds
            elif name.endswith(".self_s"):
                value = self.self_s[name[: -len(".self_s")]] / rounds
            elif name.endswith("hit_ratio"):
                span = "bodies.SupportBody." + name.split(".")[1]
                value = ratio(self.calls[span] - self.misses[span], self.calls[span])
            elif name == "experiments.counterexample.decisive_ratio":
                c = self.counts
                value = ratio(c["counterexample.decisive"], c["counterexample.probes"])
            elif name == "experiments.hunt.confirmed_ratio":
                value = ratio(self.counts["hunt.confirmed"], self.counts["hunt.criteria"])
            elif name == "cli.import_s":
                value = statistics.median(self.import_s) if self.import_s else 0.0
            else:
                value = self.counts[name] / rounds
            out[name] = value
        return out
