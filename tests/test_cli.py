"""Spec-language parsing, report emission, and exit codes."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from areafun.bodies import ellipsoid
from areafun.cli import (
    COMMANDS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    Settings,
    _parse_poly,
    load_config,
    main,
    parse_body,
    parse_flat,
    parse_function,
)
from areafun.errors import DomainError
from areafun.functionals import functional_value
from areafun.mollify import MollifierKernel
from areafun.sphere import make_grid

SADDLE = 'const:1 + 0.45*poly:"x1^2 - x2^2"'


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestFunctionSpecs:
    def test_poly_caret_and_power(self):
        f = parse_function('poly:"x1^2 - x2^2"', 3)
        g = parse_function('poly:"x1**2 - x2**2"', 3)
        U = make_grid(3, 64).nodes
        want = U[:, 0] ** 2 - U[:, 1] ** 2
        assert np.allclose(f.value(U), want, atol=1e-12)
        assert np.allclose(g.value(U), want, atol=1e-12)

    def test_const_linear_bump(self):
        U = make_grid(3, 64).nodes
        assert np.allclose(parse_function("const:2.5", 3).value(U), 2.5)
        f = parse_function("linear:0,0,1", 3)
        assert np.allclose(f.value(U), U[:, 2], atol=1e-12)
        # bump centers are normalized for convenience
        b = parse_function("bump:0,0,2,30", 3)
        assert b.value([0.0, 0.0, 1.0]) == pytest.approx(1.0)

    def test_support_and_weighted_sum(self):
        f = parse_function("support:ellipsoid:1,2,3", 3)
        assert f.value([0.0, 0.0, 1.0]) == pytest.approx(3.0)
        g = parse_function('2*const:1 + 0.5*poly:"x1*x2"', 3)
        U = make_grid(3, 64).nodes
        assert np.allclose(g.value(U), 2.0 + 0.5 * U[:, 0] * U[:, 1], atol=1e-12)

    def test_rejects_malformed(self):
        for bad in (
            "mystery:1",
            "const",
            "linear:1,2",  # wrong arity for n=3
            "bump:0,0,1",  # missing kappa
            'poly:"x1 + x9"',  # unknown variable
            'poly:"sin(x1)"',  # not a polynomial
            'poly:"x1^2" + ',  # dangling sum
        ):
            with pytest.raises(DomainError):
                parse_function(bad, 3)


class TestPolyParser:
    @pytest.mark.parametrize(
        "expr, terms",
        [
            ("x1^2 - x2^2", {(2, 0, 0): 1.0, (0, 2, 0): -1.0}),
            ("x1**2", {(2, 0, 0): 1.0}),
            ("(x1 + x2)^2/4", {(2, 0, 0): 0.25, (1, 1, 0): 0.5, (0, 2, 0): 0.25}),
            ("-x3", {(0, 0, 1): -1.0}),
            ("2*x1*(x2 + 1)^2", {(1, 2, 0): 2.0, (1, 1, 0): 4.0, (1, 0, 0): 2.0}),
            ("1e-3*x1", {(1, 0, 0): 0.001}),
            ("x1^(1+1)", {(2, 0, 0): 1.0}),
            # the shape of the benchmark's eval-poly weight
            (
                "0.7 + 0.25*x1^2 + -0.3*x2*x3 + 0.15*x3",
                {(0, 0, 0): 0.7, (2, 0, 0): 0.25, (0, 1, 1): -0.3, (0, 0, 1): 0.15},
            ),
            ("x1*x2 - x2*x1 + 3/6*x3", {(0, 0, 1): 0.5}),
        ],
    )
    def test_term_dicts(self, expr, terms):
        assert _parse_poly(expr, 3) == terms

    @pytest.mark.parametrize(
        "expr",
        [
            "x4", "x0", "y", "sin(x1)", "pi*x1", "E", "sqrt(2)", "x1/x2", "x1/0",
            "x1^0.5", "x1^-1", "x1^x2", "", "x1^", "I*x1", "zoo*x1", "oo",
            "x1==1", "lambda: 1", "1e999*x1", "True", "1j", "x1 % 2", "2^2000",
            "x1^(2^70)", "-" * 5000 + "x1", "9^9^9", "(x1+x2+x3+1)^60",
            "(((2^256)^256)^256)^256",
        ],
    )
    def test_rejects(self, expr):
        with pytest.raises(DomainError):
            parse_function(f'poly:"{expr}"', 3)

    @pytest.mark.parametrize(
        "spec",
        [
            "const:abc", "const:nan", "const:inf", "const:", "nan*const:1",
            'poly:"I*x1"', 'poly:"zoo*x1"', 'poly:"x1==1"', 'poly:"lambda: 1"',
            'poly:"oo"', "linear:0,nan,1", "support:ball:x",
        ],
    )
    def test_bad_specs_exit_2(self, capsys, spec):
        code, doc = run_cli(capsys, ["eval", "--f", spec, "--n", "3", "--i", "1", "--grid", "64"])
        assert code == EXIT_USAGE and doc is None

    def test_bad_body_numbers(self):
        for bad in ("ball:abc", "ball:inf", "ellipsoid:1,nan,1", "ellipsoid:1e300,1,1"):
            with pytest.raises(DomainError):
                parse_body(bad, 3)
        for bad in ("disc:abc", "disc:-inf", "ellipse:1,inf", "disc:1e300"):
            with pytest.raises(DomainError):
                parse_flat(bad, 0.05)

    def test_no_sympy_or_scipy_is_imported(self):
        # mi-check runs the Nelder-Mead refinement of check_mi
        code = (
            "import sys\n"
            "import areafun\n"
            "from areafun.cli import main, parse_function\n"
            "parse_function('poly:\"x1^2 - x2*x3\"', 3)\n"
            "assert main(['eval', '--f', 'poly:\"x1^2\"', '--n', '3', '--i', '1',"
            " '--grid', '256']) == 0\n"
            "assert main(['mi-check', '--f', 'poly:\"1 + 0.3*x1^2\"', '--n', '3',"
            " '--i', '2', '--grid', '256']) == 0\n"
            "bad = [m for m in sys.modules if m == 'sympy' or m.startswith('scipy')]\n"
            "assert not bad, bad\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["", "nan", "-inf", "1e400", "abc", "1_0", "0x10", " 2 "]),
)
# constants stay at most 2 so that nested powers stay small
POLY_TEXT = st.recursive(
    st.sampled_from(
        ["x1", "x2", "x3", "x4", "x0", "pi", "I", "1", "2", "0", "0.5", "1e999",
         "True", "1j", "sin(x1)", ""]
    ),
    lambda inner: st.one_of(
        st.tuples(
            inner, st.sampled_from(["+", "-", "*", "/", "^", "**", "==", "%", ","]), inner
        ).map(" ".join),
        inner.map("({})".format),
        inner.map("-{}".format),
    ),
    max_leaves=5,
)
TERM_TEXT = st.one_of(
    POLY_TEXT.map('poly:"{}"'.format),
    st.tuples(
        st.sampled_from(
            ["const", "linear", "bump", "support:ball", "support:ellipsoid", "ball",
             "ellipsoid", "disc", "ellipse", "mystery", ""]
        ),
        st.sampled_from([":", ""]),
        st.lists(NUMBER_TEXT, max_size=5).map(",".join),
    ).map("".join),
)
SPEC_TEXT = st.lists(
    st.tuples(st.sampled_from(["", "2*", "0.5*", "-1*", "nan*", "x*"]), TERM_TEXT).map("".join),
    min_size=1,
    max_size=3,
).map(" + ".join)
FUZZ = settings(max_examples=200, deadline=None)


def returns_or_domain_error(fn, *args):
    try:
        fn(*args)
    except DomainError:
        pass


class TestSpecFuzz:
    """Spec and config parsers return or raise DomainError, never anything else."""

    @FUZZ
    @given(st.one_of(st.text(), SPEC_TEXT))
    def test_parse_function(self, spec):
        returns_or_domain_error(parse_function, spec, 3)

    @FUZZ
    @given(st.one_of(st.text(), SPEC_TEXT))
    def test_parse_body(self, spec):
        returns_or_domain_error(parse_body, spec, 3)

    @FUZZ
    @given(st.one_of(st.text(), SPEC_TEXT))
    def test_parse_flat(self, spec):
        returns_or_domain_error(parse_flat, spec, 0.05)

    @FUZZ
    @given(
        st.one_of(
            st.binary(),
            st.lists(
                st.tuples(st.text(), st.sampled_from(["=", " = ", "", "#"]), st.text()).map(
                    "".join
                )
            ).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")),
        )
    )
    def test_load_config(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("cfg") / "cfg.txt"
        path.write_bytes(data)
        returns_or_domain_error(load_config, str(path))


class TestBodySpecs:
    def test_ball_and_ellipsoid(self):
        assert parse_body("ball:2", 3).support([1.0, 0.0, 0.0]) == pytest.approx(2.0)
        assert parse_body("ball", 3).support([1.0, 0.0, 0.0]) == pytest.approx(1.0)
        b = parse_body("ellipsoid:1,2,3", 3)
        assert b.support([0.0, 1.0, 0.0]) == pytest.approx(2.0)

    def test_minkowski_sum(self):
        b = parse_body("0.5*ball:1 + 0.5*ellipsoid:1,1,3", 3)
        assert b.support([0.0, 0.0, 1.0]) == pytest.approx(2.0)

    def test_flat_specs(self):
        K = parse_flat("disc:1.5", 0.02)
        assert K.a == K.b == 1.5 and K.delta == 0.02
        K = parse_flat("ellipse:1.2,0.7", 0.05)
        assert (K.a, K.b) == (1.2, 0.7)
        with pytest.raises(DomainError):
            parse_flat("square:1", 0.05)
        with pytest.raises(DomainError):
            parse_body("ellipsoid:1,2", 3)


class TestConfig:
    def test_load_and_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\ngrid = 4096\nseed = 0x10\n\npairs=7\n")
        loaded = load_config(str(cfg))
        assert loaded == {"grid": "4096", "seed": "0x10", "pairs": "7"}

        class Args:
            grid = "1024"  # flag beats config
            seed = None  # config beats default
            pairs = None

        st = Settings(Args(), loaded)
        assert st.get_int("grid") == 1024
        assert st.get_int("seed") == 16
        assert st.get_int("pairs", 3) == 7
        assert st.get_int("missing", 3) == 3

    def test_bad_lines(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid 4096\n")
        with pytest.raises(DomainError):
            load_config(str(cfg))
        with pytest.raises(DomainError):
            load_config(str(tmp_path / "missing.txt"))

    def test_config_presets_f_and_i(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("f = const:1\ni = 1\ngrid = 512\n")
        code, doc = run_cli(capsys, ["eval", "--config", str(cfg)])
        assert code == EXIT_OK
        assert doc["value"] == pytest.approx(8.0 * math.pi, rel=1e-9)
        cfg.write_text("i = 1\n")
        code, doc = run_cli(capsys, ["eval", "--config", str(cfg)])
        assert code == EXIT_USAGE and doc is None

    def test_config_presets_out_and_csv(self, capsys, tmp_path):
        out, det, cfg = tmp_path / "r.json", tmp_path / "r.csv", tmp_path / "cfg.txt"
        cfg.write_text(f"f = const:1\ni = 1\ngrid = 512\nout = {out}\ncsv = {det}\n")
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["value"] == pytest.approx(8.0 * math.pi, rel=1e-9)
        assert det.read_text().splitlines()[0] == "value,estimate"

    def test_unknown_key_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("f = const:1\ni = 1\ngird = 64\n")
        assert main(["eval", "--config", str(cfg)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        with pytest.raises(DomainError) as exc:
            load_config(str(cfg))
        for text in (err, str(exc.value)):
            assert "'gird'" in text and str(cfg) in text
        # a key that is a flag of another subcommand is accepted
        cfg.write_text("f = const:1\ni = 1\ngrid = 512\nlabels = const-1\n")
        assert run_cli(capsys, ["eval", "--config", str(cfg)])[0] == EXIT_OK


class TestCommands:
    def test_mi_check_verdicts_and_exit_codes(self, capsys):
        code, doc = run_cli(
            capsys, ["mi-check", "--f", "const:1", "--n", "3", "--i", "1", "--grid", "512"]
        )
        assert code == EXIT_OK
        assert doc["command"] == "mi-check"
        assert doc["report"]["verdict"] == "satisfied"
        code, doc = run_cli(
            capsys,
            ["mi-check", "--f", SADDLE, "--n", "3", "--i", "2", "--grid", "2048"],
        )
        assert code == EXIT_VIOLATION
        assert doc["report"]["verdict"] == "violated"

    def test_eval_matches_library(self, capsys):
        code, doc = run_cli(
            capsys,
            ["eval", "--f", "const:1", "--n", "3", "--i", "2",
             "--body", "ellipsoid:1,1,2", "--grid", "2048"],
        )
        assert code == EXIT_OK
        grid = make_grid(3, 2048)
        want, _ = functional_value(
            parse_function("const:1", 3), ellipsoid([1, 1, 2]), 2, grid
        )
        assert doc["value"] == pytest.approx(want, rel=1e-12)

    def test_mono_test_and_hunt(self, capsys):
        code, doc = run_cli(
            capsys,
            ["mono-test", "--f", "const:1", "--n", "3", "--i", "1",
             "--pairs", "4", "--grid", "1024"],
        )
        assert code == EXIT_OK and doc["consistent"] is True
        code, doc = run_cli(
            capsys,
            ["mono-hunt", "--f", SADDLE, "--n", "3", "--i", "2", "--grid", "8192"],
        )
        assert code == EXIT_OK and doc["found"] and doc["decisive"]
        code, doc = run_cli(
            capsys,
            ["mono-hunt", "--f", "const:1", "--n", "3", "--i", "2", "--grid", "1024"],
        )
        assert code == EXIT_VIOLATION and doc["found"] is False

    def test_bm_commands(self, capsys):
        code, doc = run_cli(
            capsys,
            ["bm-test", "--f", "support:ellipsoid:1,2,3", "--n", "3", "--i", "2",
             "--K", "ball:1", "--L", "ellipsoid:1,1,4", "--t", "9", "--grid", "2048"],
        )
        assert code == EXIT_OK and doc["consistent_with_concavity"] is True
        code, doc = run_cli(
            capsys,
            ["bm2-test", "--f", "const:1", "--n", "3", "--i", "2", "--grid", "2048"],
        )
        assert code == EXIT_OK and doc["consistent_with_concavity"] is True
        code, doc = run_cli(
            capsys,
            ["bm-hunt", "--f", SADDLE, "--n", "3", "--i", "2", "--grid", "8192"],
        )
        assert code == EXIT_OK and doc["confirmed"] is True
        assert doc["report"]["segment_gap"] > 0

    def test_ibp_check(self, capsys):
        code, doc = run_cli(
            capsys,
            ["ibp-check", "--f", 'poly:"x1^2"', "--n", "3", "--i", "2",
             "--body", "ellipsoid:1,1.3,0.8", "--grid", "8192"],
        )
        assert code == EXIT_OK and doc["within_tolerance"] is True

    def test_mollify_preservation_gating(self, capsys):
        # violating input: preservation is not a claim, distances still shrink
        code, doc = run_cli(
            capsys,
            ["mollify", "--f", "bump:0,0,1,40", "--n", "3", "--k", "4,8",
             "--samples", "120", "--grid", "1024", "--i", "1"],
        )
        assert code == EXIT_OK
        assert doc["input_verdict"] == "violated"
        assert doc["condition_preserved"] is None
        assert doc["sup_distances_decreasing"] is True
        # satisfying input: preservation must hold
        code, doc = run_cli(
            capsys,
            ["mollify", "--f", 'const:1 + 0.2*poly:"x1^2 - x2^2"', "--n", "3",
             "--k", "4,8", "--samples", "120", "--grid", "1024", "--i", "2"],
        )
        assert code == EXIT_OK and doc["condition_preserved"] is True

    def test_mollify_builds_each_kernel_once(self, capsys, monkeypatch):
        built = []
        original = MollifierKernel.build.__func__

        def counting(cls, *args, **kwargs):
            built.append(args[1])
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(MollifierKernel, "build", classmethod(counting))
        code, doc = run_cli(
            capsys,
            ["mollify", "--f", 'const:1 + 0.2*poly:"x1^2 - x2^2"', "--n", "3",
             "--k", "4,8", "--samples", "120", "--grid", "512", "--i", "2"],
        )
        assert code == EXIT_OK and doc["condition_preserved"] is True
        assert built == [4, 8]

    def test_cylinder_and_dimred(self, capsys):
        code, doc = run_cli(
            capsys,
            ["cylinder-check", "--K1", "disc:1", "--R", "1", "--L", "ball:1"],
        )
        assert code == EXIT_OK
        assert doc["report"]["rhs"] == pytest.approx(3.0 * math.pi, rel=1e-9)
        assert doc["within_tolerance"] and doc["segment_within_tolerance"]
        code, doc = run_cli(capsys, ["dimred", "--R", "2,8,32"])
        assert code == EXIT_OK
        assert doc["raw_errors_decay"] is True
        assert doc["report"]["corrected_errors"][-1] <= 0.02

    def test_corpus_slice(self, capsys):
        code, doc = run_cli(
            capsys,
            ["corpus", "--labels", "const-1,saddle3-0.45", "--pairs", "3",
             "--grid3", "4096"],
        )
        assert code == EXIT_OK
        assert doc["summary"]["checked"] == 4
        assert doc["summary"]["counterexamples_found"] >= 1
        assert doc["all_clear"] is True
        code, _ = run_cli(capsys, ["corpus", "--labels", "no-such-entry"])
        assert code == EXIT_USAGE


class TestEmission:
    def test_out_and_csv_files(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        det = tmp_path / "r.csv"
        code = main(
            ["mono-test", "--f", "const:1", "--n", "3", "--i", "1", "--pairs", "3",
             "--grid", "1024", "--out", str(out), "--csv", str(det)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["command"] == "mono-test" and "generated_at" in doc
        lines = det.read_text().strip().splitlines()
        assert lines[0] == "pair,drop,estimate,threshold,violation"
        assert len(lines) == 4

    def test_deterministic_modulo_timestamp(self, capsys):
        argv = ["eval", "--f", 'poly:"x1^2"', "--n", "3", "--i", "1", "--grid", "1024"]
        _, a = run_cli(capsys, argv)
        _, b = run_cli(capsys, argv)
        a.pop("generated_at"), b.pop("generated_at")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_config_file_applies(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid = 2048\npairs = 5\n")
        code, doc = run_cli(
            capsys,
            ["mono-test", "--f", "const:1", "--n", "3", "--i", "1",
             "--config", str(cfg)],
        )
        assert code == EXIT_OK
        assert doc["report"]["checked"] == 5
        assert "m2048" in doc["grid_id"]


class TestExitCodes:
    def test_usage_errors(self, capsys):
        code, _ = run_cli(
            capsys,
            ["mi-check", "--f", 'poly:"x1^"', "--n", "3", "--i", "1", "--grid", "512"],
        )
        assert code == EXIT_USAGE
        code, _ = run_cli(
            capsys,
            ["mi-check", "--f", "const:1", "--n", "3", "--i", "9", "--grid", "512"],
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["mi-check", "--f", "const:1", "--n", "3", "--i", "1", "--tol", "nan", "--grid", "256"],
            ["mi-check", "--f", 'poly:"x1^2-x2^2"', "--n", "3", "--i", "2", "--tol", "inf",
             "--grid", "256"],
            ["ibp-check", "--f", 'poly:"x1^2"', "--n", "3", "--i", "2", "--factor", "nan",
             "--grid", "256"],
            # a negative flag or too few segment samples is a usage error,
            # not a verdict (exit 1 means a violation was found)
            ["mi-check", "--f", "const:0.3", "--n", "3", "--i", "2", "--tol", "-1",
             "--grid", "256"],
            ["bm-test", "--f", "const:1", "--i", "2", "--tol-factor=-1e9", "--grid", "256"],
            ["bm-test", "--f", "const:1", "--i", "2", "--t", "2", "--grid", "256"],
            ["ibp-check", "--f", 'poly:"x1^2"', "--n", "3", "--i", "2", "--factor", "-1",
             "--grid", "256"],
            ["mono-hunt", "--f", "const:1", "--n", "3", "--i", "2", "--kappas", "10,-3",
             "--grid", "256"],
            ["cylinder-check", "--f", "const:1", "--tol", "-1"],
            ["dimred", "--f", "const:1", "--tol", "-1"],
            # a list flag needs at least one value: an empty sweep tests nothing
            ["cylinder-check", "--deltas", ","],
            ["dimred", "--deltas", ","],
            ["dimred", "--R", ","],
            ["mono-hunt", "--f", "const:1", "--n", "3", "--i", "2", "--kappas", ",",
             "--grid", "256"],
            ["bm-hunt", "--f", "const:1", "--n", "3", "--i", "2", "--rho", ",", "--grid", "256"],
        ],
    )
    def test_non_finite_float_flags_exit_2(self, capsys, argv):
        code, doc = run_cli(capsys, argv)
        assert code == EXIT_USAGE and doc is None

    @pytest.mark.parametrize(
        "argv",
        [
            # every integer flag is a count, order, dimension, resolution or
            # seed, and a monotonicity test over no pair tests nothing
            ["mono-test", "--f", "const:1", "--n", "3", "--i", "1", "--pairs", "-3",
             "--grid", "256"],
            ["mono-test", "--f", "const:1", "--n", "3", "--i", "1", "--pairs", "0",
             "--grid", "256"],
            ["corpus", "--labels", "const-1", "--pairs", "-1", "--grid3", "256"],
            ["mono-test", "--f", "const:1", "--n", "3", "--i", "1", "--pairs", "2",
             "--seed", "-1", "--grid", "256"],
            ["eval", "--f", "const:1", "--n", "4", "--i", "1", "--grid-seed", "-2",
             "--grid", "256"],
            # kernel scales are integers, and list flags are never empty
            ["mollify", "--f", "const:1", "--n", "3", "--k", "4.5", "--samples", "100",
             "--grid", "256"],
            ["mollify", "--f", "const:1", "--n", "3", "--k", ",", "--grid", "256"],
            ["corpus", "--labels", ","],
            # sizes no array can hold, rejected before anything is allocated
            ["eval", "--f", "const:1", "--i", "1", "--grid", "99999999999999999999999"],
            ["eval", "--f", "const:1", "--i", "1", "--n", "99999999999999999999"],
        ],
    )
    def test_negative_or_empty_integer_flags_exit_2(self, capsys, argv):
        code, doc = run_cli(capsys, argv)
        assert code == EXIT_USAGE and doc is None

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, flag):
        # exit 1 would mean a violation was found
        path = tmp_path / "missing" / "x"
        code = main(["eval", "--f", "const:1", "--i", "1", "--grid", "512", flag, str(path)])
        assert code == EXIT_USAGE
        assert f"cannot write {path}" in capsys.readouterr().err

    def test_argparse_rejections_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["mi-check", "--f", "const:1", "--i", "1", "--bogus"])
        assert exc.value.code == 2

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "areafun.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("areafun ")


def _rendered(value):
    """A resolved flag value as --help writes it."""
    if isinstance(value, tuple):
        return ",".join(map(_rendered, value))
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:g}" if isinstance(value, float) else str(value)


class TestHelp:
    @pytest.mark.parametrize(
        "name, n",
        [(name, n) for name, cmd in COMMANDS.items()
         for n in ((3, 4) if cmd.get("common") else (3,))],
    )
    def test_help_names_every_default(self, capsys, monkeypatch, name, n):
        # n = 4 checks the defaults that depend on the dimension
        common = COMMANDS[name].get("common")
        given = ["--f", "const:1", "--i", "1", "--n", str(n)] if common else []
        seen = {}

        def spy(settings, common):
            seen.update(vars(settings))
            return {}, True

        monkeypatch.setitem(COMMANDS[name], "run", spy)
        assert main([name, *given]) == EXIT_OK
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([name, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        helps = dict(re.findall(r"--([\w-]+) [A-Z0-9_]+ (.*?)(?= --[\w-]+ [A-Z0-9_]+ |$)", text))
        assert set(helps) == {key.replace("_", "-") for key in seen}
        for key, value in seen.items():
            flag = key.replace("_", "-")
            if value is None or f"--{flag}" in given:
                continue
            shown = rf"\(default [^)]*(?<![\w.,:]){re.escape(_rendered(value))}(?![\w.,:])"
            assert re.search(shown, helps[flag]), (flag, value, helps[flag])


class TestSchema:
    """Exit code, top-level JSON keys and CSV header of every subcommand."""

    @pytest.mark.parametrize(
        "argv, code, keys, header",
        [
            (
                ["mi-check", "--f", "const:1", "--n", "3", "--i", "1", "--grid", "512"],
                EXIT_OK,
                ["report"],
                "order,verdict,worst_value,tolerance,worst_node_1,worst_node_2,worst_node_3",
            ),
            (
                ["mono-test", "--f", "const:1", "--n", "3", "--i", "1", "--pairs", "4",
                 "--grid", "1024"],
                EXIT_OK,
                ["consistent", "report"],
                "pair,drop,estimate,threshold,violation",
            ),
            (
                ["mono-hunt", "--f", SADDLE, "--n", "3", "--i", "2", "--grid", "8192"],
                EXIT_OK,
                ["decisive", "found", "report"],
                "order,kappa,s,drop,threshold,value_inner,value_outer",
            ),
            (  # a hunt that finds nothing writes no CSV
                ["mono-hunt", "--f", "const:1", "--n", "3", "--i", "2", "--grid", "1024"],
                EXIT_VIOLATION,
                ["found", "reason"],
                None,
            ),
            (
                ["bm-test", "--f", "support:ellipsoid:1,2,3", "--n", "3", "--i", "2",
                 "--K", "ball:1", "--L", "ellipsoid:1,1,4", "--t", "9", "--grid", "2048"],
                EXIT_OK,
                ["K", "L", "consistent_with_concavity", "report"],
                "t,value,estimate",
            ),
            (
                ["bm2-test", "--f", "const:1", "--n", "3", "--i", "2", "--grid", "2048"],
                EXIT_OK,
                ["body", "consistent_with_concavity", "phi", "report"],
                "order,criterion,tolerance,functional,first,second",
            ),
            (
                ["bm-hunt", "--f", SADDLE, "--n", "3", "--i", "2", "--grid", "8192"],
                EXIT_OK,
                ["confirmed", "found", "report"],
                "order,rho,eps,s,criterion_value,criterion_tol,segment_gap",
            ),
            (
                ["eval", "--f", "const:1", "--n", "3", "--i", "2", "--body", "ellipsoid:1,1,2",
                 "--grid", "2048"],
                EXIT_OK,
                ["body", "estimate", "value"],
                "value,estimate",
            ),
            (
                ["mollify", "--f", "bump:0,0,1,40", "--n", "3", "--k", "4,8", "--samples", "120",
                 "--grid", "1024", "--i", "1"],
                EXIT_OK,
                ["condition_preserved", "input_verdict", "k", "rows", "sup_distances_decreasing"],
                "k,sup_distance,verdict,worst_value",
            ),
            (
                ["ibp-check", "--f", 'poly:"x1^2"', "--n", "3", "--i", "2",
                 "--body", "ellipsoid:1,1.3,0.8", "--grid", "8192"],
                EXIT_OK,
                ["body", "combined_estimate", "phi", "report", "residual", "within_tolerance"],
                "lhs,rhs,residual,lhs_estimate,rhs_estimate",
            ),
            (
                ["cylinder-check", "--K1", "disc:1", "--R", "1", "--L", "ball:1"],
                EXIT_OK,
                ["K1", "R", "f", "relative_residual", "report", "segment_identity",
                 "segment_within_tolerance", "tol", "within_tolerance"],
                "series,delta,value,estimate",
            ),
            (
                ["dimred", "--R", "2,8,32"],
                EXIT_OK,
                ["K1", "f", "raw_errors_decay", "report", "tol", "within_tolerance"],
                "R,scaled_value,corrected_value,raw_error,corrected_error",
            ),
            (
                ["corpus", "--labels", "const-1,saddle3-0.45", "--pairs", "3", "--grid3", "4096"],
                EXIT_OK,
                ["all_clear", "entries", "rows", "summary"],
                "label,n,i,verdict,worst_value,tolerance,empirical_violations,counterexample,"
                "drop,threshold",
            ),
        ],
    )
    def test_keys_and_csv_header(self, tmp_path, argv, code, keys, header):
        out, det = tmp_path / "r.json", tmp_path / "r.csv"
        assert main([*argv, "--out", str(out), "--csv", str(det)]) == code
        keys = ["command", "generated_at", "version", *keys]
        if COMMANDS[argv[0]].get("common"):
            keys += ["f", "grid_id", "i", "n"]
        assert sorted(json.loads(out.read_text())) == sorted(keys)
        if header is None:
            assert not det.exists()
        else:
            assert det.read_text().splitlines()[0] == header
