"""Corpus, nested-pair monotonicity, constructive counterexamples, and the
second-order violation hunt."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from areafun import experiments, sphere
from areafun.bodies import (
    SupportBody,
    ball,
    certified_strength,
    ellipsoid,
    largest_certified_strength,
    realize_q,
)
from areafun.conditions import EigenSumScan, check_mi
from areafun.errors import DomainError, EvaluationError, SearchError
from areafun.experiments import (
    _HUNT_ROWS,
    _oscillation_panel_grid,
    _pencil_segment,
    _violating_form,
    bm_segment_test,
    bm_violation_hunt,
    check_nested,
    corpus,
    linearity_probe,
    monotonicity_counterexample,
    monotonicity_test,
    nested_pairs,
    oscillating_phi,
    theorem_roundtrip,
)
from areafun.functionals import _sweep, first_variation, functional_value, second_variation
from areafun.sphere import constant, make_grid, node_blocks, polynomial, q_batch, tangent_frame
from areafun.symfun import contract2, elem_sym_batch

E3 = np.eye(3)


class TestCorpus:
    def test_deterministic_and_sized(self, entries):
        again = corpus()
        assert len(entries) == 30
        assert [e.label for e in entries] == [e.label for e in again]
        assert len({e.label for e in entries}) == 30
        assert sorted({e.n for e in entries}) == [3, 4]
        probe3 = make_grid(3, 64).nodes
        probe4 = make_grid(4, 64, seed=2).nodes
        for e, e2 in zip(entries, again):
            probe = probe3 if e.n == 3 else probe4
            np.testing.assert_array_equal(e.f.value(probe), e2.f.value(probe))

    def test_saddles_sit_in_designed_windows(self, by_label, grids):
        # two-axis quadratic profiles: top order fails, order 1 still holds
        for label, orders in [
            ("saddle3-0.45", {1: "satisfied", 2: "violated"}),
            ("saddle4-0.55", {1: "satisfied", 2: "violated", 3: "violated"}),
            ("saddle4-0.58", {1: "satisfied", 2: "violated", 3: "violated"}),
        ]:
            f = by_label[label].f
            for i, want in orders.items():
                rep = check_mi(f, i, grids[f.n])
                assert rep.verdict == want, (label, i, rep.worst_value)


class TestNestedPairs:
    def test_pairs_are_certified_nested(self, grid3):
        pairs = nested_pairs(3, 6, seed=4)
        assert len(pairs) == 6
        for K, L in pairs:
            assert check_nested(K, L, grid3) >= 0.0

    def test_deterministic_under_seed(self, grid3):
        a = nested_pairs(3, 3, seed=9)
        b = nested_pairs(3, 3, seed=9)
        for (K1, L1), (K2, L2) in zip(a, b):
            np.testing.assert_array_equal(K1.support(grid3.nodes), K2.support(grid3.nodes))
            np.testing.assert_array_equal(L1.support(grid3.nodes), L2.support(grid3.nodes))

    def test_check_nested_rejects_reversed_pair(self, grid3):
        with pytest.raises(DomainError):
            check_nested(ball(3, 1.0), ball(3, 0.9), grid3)

    def test_monotone_when_condition_holds(self, grid3):
        rep = monotonicity_test(constant(3, 1.0), 2, nested_pairs(3, 6, seed=1), grid3)
        assert rep.checked == 6
        assert rep.consistent
        assert all(row["drop"] <= row["threshold"] for row in rep.rows)


class TestOscillation:
    def setup_method(self):
        self.u0 = E3[2]
        self.v = E3[0]
        self.phi = oscillating_phi(self.u0, self.v, rho=0.3, eps=0.05, n=3, eta=0.2)

    def test_amplitude_and_center_value(self):
        # at the center the wave sits at its (smoothed) peak minus the mean
        want = 0.05 * (0.5 - 3 * 0.2 / 8)
        assert self.phi.value(self.u0) == pytest.approx(want, rel=1e-12)
        probe = make_grid(3, 4000).nodes
        vals = self.phi.value(probe)
        assert np.max(np.abs(vals)) <= 0.5 * 0.05 + 1e-12
        assert np.max(np.abs(vals)) >= 0.2 * 0.05

    def test_support_inside_patch_and_hemisphere(self):
        probe = make_grid(3, 6000).nodes
        vals = self.phi.value(probe)
        x = probe @ self.phi.frame
        outside = (np.abs(x[:, 0]) >= 0.3) | (np.abs(x[:, 1]) >= 0.3)
        np.testing.assert_array_equal(vals[outside], 0.0)
        lower = probe @ self.u0 <= 0.3
        np.testing.assert_array_equal(vals[lower], 0.0)

    def test_second_derivatives_finite_and_large_slope(self):
        nodes = make_grid(3, 500).nodes
        from areafun.sphere import frames

        Q = q_batch(self.phi, nodes, frames(nodes))
        assert np.all(np.isfinite(Q))
        # order-one slope from the eps-period wave: the curvature form must
        # reach the 1/eps scale somewhere even though |phi| <= eps/2
        assert np.max(np.abs(Q)) > 1.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_frame_orthonormal_near_frame_axes(self, n):
        # v within 1e-12 of a tangent-frame axis at u0: the frame must stay
        # orthonormal and tangent, whichever axis v hugs
        rng = np.random.default_rng(5)
        for _ in range(4):
            u0 = rng.normal(size=n)
            u0 /= np.linalg.norm(u0)
            E0 = tangent_frame(u0)
            for j, sign, offset in itertools.product(range(n - 1), (1.0, -1.0), (0.0, 1e-12)):
                v = sign * E0[:, j] + offset * (E0 @ rng.normal(size=n - 1))
                v /= np.linalg.norm(v)
                F = oscillating_phi(u0, v, 0.25, 0.05, n).frame
                assert F.shape == (n, n - 1)
                np.testing.assert_allclose(F.T @ F, np.eye(n - 1), rtol=0, atol=1e-14)
                np.testing.assert_allclose(u0 @ F, 0.0, rtol=0, atol=1e-14)
                np.testing.assert_allclose(F[:, 0], v, rtol=0, atol=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            oscillating_phi(self.u0, self.u0, 0.3, 0.05, 3)  # not tangent
        with pytest.raises(DomainError):
            oscillating_phi(self.u0, self.v, 0.3, -0.05, 3)
        with pytest.raises(DomainError):
            oscillating_phi(self.u0, self.v, 0.7, 0.05, 3)  # cutoff leaves hemisphere
        with pytest.raises(DomainError):
            oscillating_phi(2 * self.u0, self.v, 0.3, 0.05, 3)


class TestCounterexample:
    def test_saddle3_top_order_decisive(self, by_label, grid3):
        rep = monotonicity_counterexample(by_label["saddle3-0.45"].f, 2, grid3)
        assert rep.decisive
        assert rep.drop > 10.0 * rep.threshold
        assert rep.value_inner > rep.value_outer
        assert check_nested(rep.body_inner, rep.body_outer, grid3) >= 0.0
        assert rep.s > 0 and rep.kappa > 0

    def test_saddle4_decisive(self, by_label, grid4):
        rep = monotonicity_counterexample(by_label["saddle4-0.55"].f, 3, grid4)
        assert rep.decisive
        assert check_nested(rep.body_inner, rep.body_outer, grid4) >= 0.0

    def test_reuses_callers_report(self, by_label, grid3, monkeypatch):
        f = by_label["saddle3-0.45"].f
        a = monotonicity_counterexample(f, 2, grid3)
        report = check_mi(f, 2, grid3, scan=EigenSumScan(f, grid3))
        monkeypatch.setattr(experiments, "check_mi", None)  # a second scan would fail
        b = monotonicity_counterexample(f, 2, grid3, report=report)
        assert (a.drop, a.threshold, a.kappa, a.s) == (b.drop, b.threshold, b.kappa, b.s)
        np.testing.assert_array_equal(a.u_star, b.u_star)
        with pytest.raises(DomainError, match="report is for order 2"):
            monotonicity_counterexample(f, 1, grid3, report=report)

    def test_requires_decisive_violation(self, grid3):
        with pytest.raises(SearchError):
            monotonicity_counterexample(constant(3, 1.0), 2, grid3)

    def test_one_sweep_and_one_certification_per_reached_bump(self, by_label, grid3, monkeypatch):
        # the first, widest bump clears the margin target at once: the other
        # three bumps are never swept, and the one probed bump is certified once
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return largest_certified_strength(*args, **kwargs)

        monkeypatch.setattr(experiments, "largest_certified_strength", counting)
        rep = monotonicity_counterexample(by_label["saddle3-0.45"].f, 2, grid3)
        stages = [d["stage"] for d in rep.diagnostics]
        assert stages.count("bump") == 1 and stages.count("certify") == 1
        assert len(calls) == 1
        (cert,) = [d for d in rep.diagnostics if d["stage"] == "certify"]
        assert rep.s <= cert["s_max"] and rep.kappa == cert["kappa"]


class TestSegmentProbes:
    def test_power_form_consistent_for_smooth_weight(self, grid3):
        probe = bm_segment_test(
            constant(3, 1.0), 2, ball(3), ellipsoid([1.3, 1.0, 0.8]), grid3
        )
        assert probe.form == "power"
        assert probe.consistent_with_concavity
        assert not probe.violates_concavity

    def test_min_form_when_functional_not_positive(self, grid3):
        f = constant(3, -1.0)
        probe = bm_segment_test(f, 2, ball(3), ball(3, 1.5), grid3)
        assert probe.form == "min"
        assert math.isnan(probe.chord_gap)
        assert probe.consistent_with_concavity

    def test_needs_three_samples(self, grid3):
        with pytest.raises(DomainError, match="t_count >= 3"):
            bm_segment_test(constant(3, 1.0), 2, ball(3), ball(3, 1.5), grid3, t_count=2)

    def test_order_one_segment_affine(self, grid3, by_label):
        gap, consistent = linearity_probe(
            by_label["poly2-0"].f, ball(3), ellipsoid([1.4, 0.9, 0.7]), grid3
        )
        assert consistent, gap


class TestViolationHunt:
    def test_saddle3_found_and_confirmed(self, by_label, grid3):
        rep = bm_violation_hunt(by_label["saddle3-0.45"].f, 2, grid3)
        assert rep.found and rep.confirmed
        assert rep.criterion_value > rep.criterion_tol
        assert rep.segment_gap > 0
        assert rep.s > 0 and rep.body is not None and rep.phi is not None

    def test_direction_near_frame_axis(self, grid3):
        # at c = 0.39 the hunt direction lies nearly along a tangent-frame
        # axis at the worst node, where the oscillation frame once lost rank
        f = polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.39, (0, 2, 0): -0.39})
        rep = bm_violation_hunt(f, 2, grid3)
        assert rep.found and rep.confirmed

    def test_precondition_and_order_guard(self, grid3):
        with pytest.raises(SearchError):
            bm_violation_hunt(constant(3, 1.0), 2, grid3)
        with pytest.raises(DomainError):
            bm_violation_hunt(constant(3, 1.0), 1, grid3)


def _segment_probe_arrays(f, body, phi, i, s, ts, grid):
    """Reference for _pencil_segment: the sampled segment probe it replaced.
    Each node's row holds the density change at every ts, and the second
    differences are formed row by row before integration."""
    ts = np.asarray(ts, dtype=float)
    steps = [2**k for k in range(len(ts)) if 2 ** (k + 1) < len(ts)]

    def integral(g):
        Q0 = body.q_stack(g)

        def pencil(b):
            base, Qp = elem_sym_batch(Q0[b], i), q_batch(phi, g.nodes[b])
            return [elem_sym_batch(Q0[b] + (t * s) * Qp, i) - base for t in ts]

        fv = f.value(g.nodes)
        rows = np.hstack([np.vstack(pencil(b)) for b in node_blocks(len(g))]) * fv
        sums = [g.weighted_sum(rows)]
        for h in steps:
            sums.append(g.weighted_sum(rows[2 * h :] - 2.0 * rows[h:-h] + rows[: -2 * h]))
        return np.concatenate(sums)

    split = np.cumsum([len(ts)] + [len(ts) - 2 * h for h in steps[:-1]])
    value, est = (np.split(a, split) for a in grid.paired(integral))
    return value[0], est[0], dict(zip(steps, value[1:])), dict(zip(steps, est[1:]))


def _hunt_setting(f, i, eps, eta=0.25):
    """The hunt's body and oscillation at the saddle's worst node e1."""
    u = np.eye(f.n)[0]
    A, Qf, E = _violating_form(f, i, u, 1e-3)
    w, W = np.linalg.eigh(contract2(A, i, Qf))
    return realize_q(A, u), oscillating_phi(u, E @ W[:, 0], 0.25, eps, f.n, eta=eta)


class TestPatchSweep:
    @pytest.mark.parametrize(
        "label, i, eps, order", [("saddle3-0.45", 2, 0.02, 6), ("saddle4-0.55", 3, 0.08, 3)]
    )
    def test_matches_the_stage_references(self, by_label, label, i, eps, order):
        f = by_label[label].f
        K, phi = _hunt_setting(f, i, eps)
        patch = _oscillation_panel_grid(phi, order=order)
        assert len(patch) > sphere.NODE_BLOCK
        fine, worst = _sweep(f, K, phi, i, patch, _HUNT_ROWS, margin=1e-6)
        coarse, none = _sweep(f, K, phi, i, patch.coarse(), _HUNT_ROWS)
        assert none is None
        refs = [
            first_variation(f, K, phi, i, patch, form="adjoint"),
            second_variation(f, K, phi, i, patch, form="gradient"),
        ]
        for k, (value, est) in enumerate(refs):
            assert fine[k] == pytest.approx(value, rel=1e-13, abs=0)
            assert abs(fine[k] - coarse[k]) == pytest.approx(est, rel=1e-13, abs=1e-300)
        s_max = largest_certified_strength(K, phi, patch)
        assert certified_strength(worst) == s_max and 0 < s_max < math.inf
        s, ts = 0.8 * min(s_max, 1.0), np.linspace(0.0, 1.0, 9)
        delta, _, d2, _ = _pencil_segment(fine[2:], coarse[2:], s, ts)
        ref_delta, _, ref_d2, ref_d2_est = _segment_probe_arrays(f, K, phi, i, s, ts, patch)
        # the reference subtracts e_i(Q_K) node by node, so it resolves delta
        # only to the rounding of the integral of |f e_i(Q_K)| (about 1e-16
        # of it, some 1e-9 of delta on the n=3 patch)
        dens = elem_sym_batch(K.q_stack(patch), i)
        rounding = patch.weighted_sum(np.abs(f.value(patch.nodes) * dens))
        assert np.all(np.abs(delta - ref_delta) <= 1e-10 * np.abs(ref_delta) + 1e-15 * rounding)
        assert sorted(d2) == sorted(ref_d2) == [1, 2, 4]
        for h in d2:
            assert np.all(np.abs(d2[h] - ref_d2[h]) <= ref_d2_est[h]), h

    @pytest.mark.parametrize("slot", ["body", "weight", "phi"])
    def test_nonfinite_form_names_global_node(self, slot):
        grid = make_grid(3, sphere.NODE_BLOCK + 100)
        bad = sphere.NODE_BLOCK + 37  # in the second block

        def jet(Y, order):
            H = np.zeros((len(Y), 3, 3))
            H[np.abs(Y - grid.nodes[bad]).max(axis=1) < 1e-12, 0, 1] = np.nan
            return (np.ones(len(Y)), np.zeros_like(Y), H)[: order + 1]

        nan = sphere.SphericalFunction(3, jet, "nan-late")
        fs = {"body": constant(3, 1.0), "weight": constant(3, 1.0), "phi": constant(3, 0.5)}
        fs[slot] = nan
        with pytest.raises(EvaluationError, match=f"nan-late at node {bad}: "):
            _sweep(
                fs["weight"], SupportBody(fs["body"]), fs["phi"], 2, grid, _HUNT_ROWS, margin=1e-6
            )

    def test_sweep_memory_follows_the_block(self, by_label):
        # one hunt sweep with its panel grid built inside the traced region,
        # on two grids four times apart: the peak grows with the node count
        # by the stored weights (8 bytes a node), not by a node array or a
        # (rows, m) array of values
        f = by_label["saddle3-0.45"].f
        peaks = {}
        for eps in (0.002, 0.0005):
            K, phi = _hunt_setting(f, 2, eps, eta=0.0)
            tracemalloc.start()
            try:
                patch = _oscillation_panel_grid(phi)
                _sweep(f, K, phi, 2, patch, _HUNT_ROWS, margin=1e-6)
                peaks[len(patch)] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        (m1, p1), (m2, p2) = sorted(peaks.items())
        assert (m1, m2) == (110_592, 440_640)
        assert (p2 - p1) / (m2 - m1) <= 16.0, peaks

    def test_one_setting_holds_no_form_stack(self, by_label):
        # the n=4 benchmark setting: two sweeps and the segment arrays, and
        # F and the first variation on the patch, stay below one (m, N, N)
        # stack of the patch and leave its caches empty
        f = by_label["saddle4-0.55"].f
        K, phi = _hunt_setting(f, 3, 0.08)
        patch = _oscillation_panel_grid(phi)
        coarse = patch.coarse()
        m, N = len(patch), f.n - 1
        assert m >= 500_000
        tracemalloc.start()
        try:
            fine, worst = _sweep(f, K, phi, 3, patch, _HUNT_ROWS, margin=1e-6)
            rough, _ = _sweep(f, K, phi, 3, coarse, _HUNT_ROWS)
            s = 0.8 * min(certified_strength(worst), 1.0)
            _pencil_segment(fine[2:], rough[2:], s, np.linspace(0.0, 1.0, 9))
            functional_value(f, K, 3, patch)
            first_variation(f, K, phi, 3, patch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * N * N * 8, peak
        for g in (patch, coarse):
            assert len(g._q) == 0


class TestRoundtrip:
    def test_smoke_on_dimension_three_slice(self, entries, grid3):
        keep = {"const-1", "support-ell-1", "saddle3-0.45"}
        subset = [e for e in entries if e.label in keep]
        rows, summary = theorem_roundtrip(
            entries=subset, grids={3: grid3}, pairs_per_dim=4
        )
        assert summary["checked"] == len(subset) * 2  # orders 1 and 2
        assert summary["checked"] == summary["satisfied"] + summary["marginal"] + summary["violated"]
        assert summary["empirical_violations"] == 0
        assert summary["counterexamples_found"] >= 1
        assert summary["counterexamples_failed"] == 0
        saddle_row = next(r for r in rows if r["label"] == "saddle3-0.45" and r["i"] == 2)
        assert saddle_row["verdict"] == "violated"
        assert saddle_row["counterexample"] is True
