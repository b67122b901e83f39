import json
import math
from fractions import Fraction

import pytest

from barneszeta import BarnesParams, log_gamma_B, log_rho
from barneszeta.barnes_functions import ROUTES
from barneszeta.cli import build_parser, canonical_json, main


@pytest.fixture
def run(capsys):
    def _run(argv, env=None, monkeypatch=None):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestEval:
    def test_direct_value(self, run):
        code, out, err = run(["eval", "--alpha", "5", "--a", "1", "--w", "1,1",
                              "--method", "direct"])
        assert code == 0
        assert "1.0823232" in out

    def test_pole_exit_with_residue_hint(self, run):
        code, out, err = run(["eval", "--alpha", "1", "--a", "1", "--w", "1",
                              "--method", "series"])
        assert code == 4
        assert "residue" in err
        assert "1" in err

    def test_json_output_and_roundtrip(self, run):
        code, out, err = run(["eval", "--alpha", "0.5", "--a", "1", "--w", "1,1",
                              "--method", "integral", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"][0] == pytest.approx(-0.20788622497735468, abs=1e-9)
        assert payload["method"] == "integral"
        # byte-identical round trip
        assert canonical_json(payload) + "\n" == out

    @pytest.mark.parametrize("bad", [{1, 2}, object(), b"1", Fraction(1, 2)])
    def test_canonical_json_rejects_other_types(self, bad):
        # complex values are written [re, im] at any depth; any other type
        # JSON has no form for is a TypeError
        assert canonical_json({"z": (1 + 2j, [3j])}) == '{"z": [[1.0,2.0],[[0.0,3.0]]]}'
        with pytest.raises(TypeError):
            canonical_json({"value": [bad]})

    def test_homogeneous(self, run):
        code, out, err = run(["eval", "--alpha", "5", "--w", "1,1",
                              "--method", "series", "--homogeneous", "--json"])
        assert code == 0
        assert json.loads(out)["value"][0] == pytest.approx(2.1192509888, abs=1e-8)

    def test_reduction_route(self, run):
        code, out, err = run(["eval", "--alpha", "5", "--a", "1", "--w", "1,2",
                              "--method", "reduction", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "reduction"

    def test_best_route(self, run):
        code, out, err = run(["eval", "--alpha", "0.5", "--a", "1", "--w", "1,1",
                              "--method", "best", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnostics"]["best_route"] in ("series", "integral")
        assert payload["method"] == payload["diagnostics"]["best_route"]

    def test_usage_error(self, run):
        code, out, err = run(["eval", "--alpha", "5", "--a", "1", "--w", "oops"])
        assert code == 2

    def test_missing_a_is_usage_error(self, run):
        code, out, err = run(["eval", "--alpha", "5", "--w", "1,1", "--method", "series"])
        assert code == 2

    @pytest.mark.parametrize("extra", [["--a", "1"], ["--homogeneous"]])
    def test_table_cap_is_convergence_error(self, run, extra):
        # alpha = -110.5 needs a Bernoulli table beyond N = 170: a valid
        # input past the route's cap, not a usage error
        code, out, err = run(["eval", "--alpha=-110.5", "--w", "1,1",
                              "--method", "integral", *extra])
        assert code == 3
        assert "capped at N = 170" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha, message", [("-150", "prefactor"),
                                                ("-150.5", "capped at N = 170")])
    def test_strongly_negative_alpha_is_convergence_error(self, run, alpha, message):
        # At alpha = -150 the homogeneous value on w = (1, 50), -1.9e398,
        # overflows a double; at -150.5 the line integral's table is past its
        # cap, which the route finds before it sums the prefactor.  Both exit
        # 3 without a warning.
        code, out, err = run(["eval", f"--alpha={alpha}", "--w", "1,50", "--homogeneous",
                              "--method", "integral"])
        assert code == 3
        assert message in err and "Warning" not in err and out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["eval", "--alpha=-60", "--a", "100000", "--w", "1,1", "--method", "series"],
         "closed term"),
        (["eval", "--alpha=-150", "--a", "0.7", "--w", "1,50", "--method", "reduction"],
         "reduction"),
        *[([cmd, *at, "--a", "1e200", "--w", w, "--method", method], "closed term")
          for cmd, at, w in (("deriv0", [], "1,1"), ("fp", ["--q", "1"], "1,1,1"))
          for method in ("series", "integral", "limit")],
        *[(["eval", f"--alpha={alpha}", "--a", "1", "--w", "1,1", "--method", "integral"],
           "1/Gamma") for alpha in ("-175.5", "0.5,800")],
        (["eval", "--alpha=-400", "--a", "1", "--w", "1,1", "--method", "reduction"],
         "reduction"),
    ])
    def test_overflow_is_convergence_error(self, run, argv, message):
        # At alpha = -60 the series' closed term a^(d - alpha - m) at a = 1e5
        # is past the largest double, and so is the reduction's value at
        # alpha = -150 on w = (1, 50); the closed term a^(d - q - m) of the
        # derivative at zero and of the finite parts, which every route of
        # theirs shares, is past it at a = 1e200 once d - q >= 2.  So is the
        # integral route's 1/Gamma(alpha) at -175.5 and at 0.5+800i, and a
        # Hurwitz term of the reduction at -400 on w = (1, 1).  All exit 3,
        # without a traceback or a warning; a closed term raises before its
        # route sums over the lattice.
        code, out, err = run(argv)
        assert code == 3
        assert message in err and "Traceback" not in err and out == ""

    # Each route returns a value whose own estimate is past the cap of
    # 1e-3 (1 + |value|): the series at 2.5 on w = (1, 50) (1476 for a true
    # 2.9078), at strongly negative alpha and at 0.5+100i, and the line
    # integral at 0.5+40i, where "best" has no route left within the cap.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha, a, w, method", [
        ("2.5", "0.7", "1,50", "series"),
        ("-20.5", "1", "1,1", "series"),
        ("-150.5", "1", "1,1", "series"),
        ("0.5,100", "1", "1,1", "series"),
        ("0.5,40", "1", "1,1", "integral"),
        ("0.5,40", "1", "1,1", "best"),
    ])
    def test_estimate_past_the_cap_is_convergence_error(self, run, alpha, a, w, method):
        code, out, err = run(["eval", f"--alpha={alpha}", "--a", a, "--w", w,
                              "--method", method])
        assert code == 3
        assert "past the cap" in err and "Traceback" not in err and out == ""
        if method == "best":    # both routes are past the cap, and both are named
            assert "series" in err and "integral" in err

    def test_limit_without_rung_is_convergence_error(self, run):
        # from d = 11 on no M of the limit schedule has a cube that fits
        code, out, err = run(["deriv0", "--a", "1", "--w", ",".join(["1"] * 11),
                              "--method", "limit"])
        assert code == 3
        assert "d = 11" in err and "Traceback" not in err
        assert out == ""

    def test_limit_disagreement_is_convergence_error(self, run):
        # at d = 6 the rungs that fit do not agree within the limit's floor
        code, out, err = run(["fp", "--q", "1", "--a", "0.8", "--w", "1,1.3,1.7,2.1,2.6,3.1",
                              "--method", "limit"])
        assert code == 3
        assert "limit extrapolants disagree" in err and "Traceback" not in err
        assert out == ""


class TestNonFinite:
    @pytest.mark.parametrize("argv", [
        ["eval", "--a", "inf", "--w", "1,1", "--alpha", "0.5"],
        ["eval", "--alpha", "inf", "--a", "1", "--w", "1,1", "--method", "integral"],
        ["eval", "--w", "1,inf", "--a", "1", "--alpha", "0.5"],
        ["eval", "--alpha", "0.5,inf", "--a", "1", "--w", "1,1", "--method", "series"],
        ["eval", "--alpha", "nan", "--a", "1", "--w", "1,1"],
        ["eval", "--alpha", "inf", "--a", "1", "--w", "1,1", "--method", "direct"],
        ["eval", "--alpha", "nan", "--a", "1", "--w", "1,1", "--method", "reduction"],
        ["deriv0", "--a", "1", "--w", "1,nan", "--method", "series"],
        ["compare", "--a", "1", "--w", "1", "--tol", "-1"],
        ["compare", "--a", "1", "--w", "1", "--tol", "nan"],
    ])
    def test_input_is_usage_error(self, run, argv):
        code, out, err = run(argv)
        assert code == 2
        assert err.startswith("error:") and "finite" in err

    def test_nan_shell_is_convergence_error(self, run):
        code, out, err = run(["eval", "--alpha", "0.5,1e300", "--a", "1", "--w", "1,1",
                              "--method", "series"])
        assert code == 3
        assert "shell 0" in err and out == ""


class TestFpDerivGamma:
    def test_fp_series_euler(self, run):
        code, out, err = run(["fp", "--q", "1", "--a", "1", "--w", "1",
                              "--method", "series", "--json"])
        assert code == 0
        assert json.loads(out)["value"][0] == pytest.approx(0.5772156649, abs=1e-9)

    def test_deriv0_limit(self, run):
        code, out, err = run(["deriv0", "--a", "1", "--w", "1", "--method", "limit", "--json"])
        assert code == 0
        assert json.loads(out)["value"][0] == pytest.approx(-0.9189385, abs=1e-6)

    def test_gamma_dq(self, run):
        code, out, err = run(["gamma", "--fn", "gammadq", "--q", "1", "--w", "1", "--json"])
        assert code == 0
        assert json.loads(out)["value"][0] == pytest.approx(0.5772157, abs=1e-6)

    @pytest.mark.parametrize("method", ["series", "integral", "limit", "best"])
    def test_fp_at_zero_is_a_usage_error(self, run, method):
        # q = 0 is not a pole: no finite part, and no derivative at zero either
        code, out, err = run(["fp", "--q", "0", "--a", "1", "--w", "1,1", "--method", method])
        assert code == 2
        assert "poles sit at q = 1..2, got 0" in err and out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--fn", "multigamma", "--a", "3"], "multigamma needs --a and --d"),
        (["--fn", "multigamma", "--d", "2"], "multigamma needs --a and --d"),
        (["--fn", "gammadq", "--w", "1,2"], "gammadq needs --q"),
        (["--fn", "loggammaB", "--w", "1,2"], "loggammaB needs --a"),
        (["--fn", "psiB", "--q", "1", "--w", "1,2"], "psiB needs --a and --q"),
        (["--fn", "psiB", "--a", "1", "--w", "1,2"], "psiB needs --a and --q"),
    ])
    def test_gamma_missing_flag_is_usage_error(self, run, argv, message):
        code, out, err = run(["gamma", *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["eval", "--alpha", "0.5"], ["fp", "--q", "1"], ["deriv0"],
        ["table", "--alpha-grid", "1:3:3"], ["compare"],
        ["gamma", "--fn", "loggammaB"], ["gamma", "--fn", "psiB", "--q", "1"],
    ])
    def test_bad_weight_is_named_before_bad_offset(self, run, argv):
        code, out, err = run([*argv, "--a=-1", "--w=1,-2"])
        assert code == 2 and out == ""
        assert err.startswith("error: weight w_2 = (-2+0j) must be finite")

    def test_bad_offset_is_named_before_the_pole(self, run):
        code, out, err = run(["eval", "--alpha", "1", "--a=-1", "--w", "1"])
        assert code == 2 and out == ""
        assert err.startswith("error: parameter a = (-1+0j) must be finite")

    @pytest.mark.parametrize("argv, want", [
        (["--fn", "logrho", "--w", "1,2"], lambda: log_rho((1.0, 2.0), "series")),
        (["--fn", "loggammaB", "--a", "0.7", "--w", "1,2"],
         lambda: log_gamma_B(BarnesParams(0.7, (1.0, 2.0)), "series")),
    ])
    def test_gamma_matches_the_library(self, run, argv, want):
        # the CLI's default method is the series: the same bits as the call
        code, out, err = run(["gamma", *argv, "--json"])
        assert code == 0 and err == ""
        res = want()
        payload = json.loads(out)
        assert [x.hex() for x in payload["value"]] == [res.value.real.hex(), res.value.imag.hex()]
        assert payload["est_error"] == res.abs_error_estimate and payload["method"] == "series"

    def test_multigamma(self, run):
        code, out, err = run(["gamma", "--fn", "multigamma", "--a", "3", "--d", "1", "--json"])
        assert code == 0
        assert json.loads(out)["value"][0] == pytest.approx(math.log(2), abs=1e-9)


class TestCompare:
    def test_d1_canonical_passes_tight(self, run):
        # must pass with tolerances 10x tighter than the defaults
        code, out, err = run(["compare", "--a", "1", "--w", "1", "--tol", "1e-6"])
        assert code == 0
        payload = json.loads(out.splitlines()[0])
        assert payload["pass"] is True

    def test_report_files(self, run, tmp_path):
        stem = str(tmp_path / "report")
        code, out, err = run(["compare", "--a", "1", "--w", "1", "--out", stem])
        assert code == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["pass"] is True
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.startswith("quantity,series_re")
        assert "\r" not in csv_text

    def test_report_files_hold_the_stdout_bytes(self, run, tmp_path):
        argv = ["compare", "--a", "0.7", "--w", "1,1.5"]
        _, out, _ = run(argv)
        code, _, _ = run([*argv, "--out", str(tmp_path / "report.json")])
        assert code == 0
        files = [(tmp_path / f"report.{ext}").read_bytes() for ext in ("json", "csv")]
        assert b"".join(files) == out.encode()

    def test_failure_exit_code(self, run):
        code, out, err = run(["compare", "--a", "1", "--w", "1", "--tol", "1e-30"])
        assert code == 1
        payload = json.loads(out.splitlines()[0])
        assert payload["pass"] is False


class TestTable:
    def test_five_rows(self, run):
        code, out, err = run(["table", "--alpha-grid", "3:5:5", "--a", "1", "--w", "1,1",
                              "--method", "series"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha_re,alpha_im,value_re,value_im,est_error,method"
        assert len(lines) == 6

    def test_series_matches_direct(self, run):
        # the direct tail bound converges fast enough for 1e-10 only well
        # above the abscissa, so the match is checked on alpha in [5, 6]
        code_s, out_s, _ = run(["table", "--alpha-grid", "5:6:3", "--a", "1", "--w", "1,1",
                                "--method", "series"])
        code_d, out_d, _ = run(["table", "--alpha-grid", "5:6:3", "--a", "1", "--w", "1,1",
                                "--method", "direct", "--tol", "1e-12"])
        for ls, ld in zip(out_s.splitlines()[1:], out_d.splitlines()[1:]):
            vs = float(ls.split(",")[2])
            vd = float(ld.split(",")[2])
            assert abs(vs - vd) <= 1e-10 * (1 + abs(vd))

    def test_pole_row_is_nan_and_exit_nonzero(self, run):
        code, out, err = run(["table", "--alpha-grid", "1.5:2.5:3", "--a", "1", "--w", "1,1",
                              "--method", "series"])
        assert code == 4
        rows = out.strip().splitlines()
        assert len(rows) == 4
        assert "nan" in rows[2]

    def test_capped_rows_are_nan_and_the_rest_computed(self, run):
        # below alpha ~ d - 109 the integral route needs a Bernoulli table
        # past its cap, and below about -171 1/Gamma(alpha) is past the
        # largest double: those rows read nan, the last row is still computed
        _, single, _ = run(["eval", "--alpha=-0.5", "--a", "1", "--w", "1,1",
                            "--method", "integral", "--json"])
        for grid, alphas in (("-160.5:-0.5:3", ["-160.5", "-80.5", "-0.5"]),
                             ("-200.5:-0.5:3", ["-200.5", "-100.5", "-0.5"])):
            code, out, err = run(["table", f"--alpha-grid={grid}", "--a", "1", "--w", "1,1",
                                  "--method", "integral"])
            assert code == 3 and err == ""
            rows = [row.split(",") for row in out.splitlines()[1:]]
            assert [row[0] for row in rows] == alphas
            assert all(row[2:5] == ["nan"] * 3 for row in rows[:2])
            assert float(rows[2][2]) == json.loads(single)["value"][0]

    def test_homogeneous_reduction(self, run):
        argv = ["table", "--alpha-grid", "3:5:3", "--w", "1,1", "--homogeneous"]
        code, out, err = run([*argv, "--method", "reduction"])
        _, out_s, _ = run([*argv, "--method", "series"])
        assert code == 0 and err == ""
        rows, rows_s = out.splitlines()[1:], out_s.splitlines()[1:]
        assert len(rows) == len(rows_s) == 3
        for lr, ls in zip(rows, rows_s):
            assert lr.endswith(",reduction")
            assert abs(float(lr.split(",")[2]) - float(ls.split(",")[2])) <= 1e-10

    def test_missing_a_is_usage_error(self, run):
        code, out, err = run(["table", "--alpha-grid", "3:5:3", "--w", "1,1",
                              "--method", "series"])
        assert code == 2
        assert err.startswith("error:") and "--a" in err
        assert out == ""

    def test_json_is_rejected(self, run):
        code, out, err = run(["table", "--alpha-grid", "3:4:2", "--a", "1", "--w", "1,1",
                              "--method", "series", "--json"])
        assert code == 2
        assert out == ""

    def test_out_file_holds_the_stdout_bytes(self, run, tmp_path):
        argv = ["table", "--alpha-grid", "1.5:2.5:3", "--a", "1", "--w", "1,1"]
        _, out, _ = run(argv)
        code, printed, _ = run([*argv, "--out", str(tmp_path / "t.csv")])
        assert code == 4 and printed == ""
        assert (tmp_path / "t.csv").read_bytes() == out.encode()

    def test_float_formatting_17_digits(self, run):
        code, out, err = run(["table", "--alpha-grid", "5:5:1", "--a", "1", "--w", "1,1",
                              "--method", "series"])
        value = out.strip().splitlines()[1].split(",")[2]
        assert value == format(float(value), ".17g")


class TestEnvironment:
    def test_env_tolerance_respected(self, run, monkeypatch):
        monkeypatch.setenv("BARNES_ZETA_TOL", "1e-4")
        code, out, err = run(["eval", "--alpha", "4", "--a", "1", "--w", "1,1",
                              "--method", "direct", "--json"])
        assert code == 0
        loose = json.loads(out)["diagnostics"]["shells"]
        monkeypatch.setenv("BARNES_ZETA_TOL", "1e-9")
        code, out, err = run(["eval", "--alpha", "4", "--a", "1", "--w", "1,1",
                              "--method", "direct", "--json"])
        tight = json.loads(out)["diagnostics"]["shells"]
        assert loose < tight

    def test_env_tolerance_reaches_series(self, run, monkeypatch):
        argv = ["eval", "--alpha", "0.5", "--a", "1", "--w", "1,1", "--method", "series", "--json"]
        monkeypatch.setenv("BARNES_ZETA_TOL", "1e-3")
        code, out, err = run(argv)
        assert code == 0
        loose = json.loads(out)["diagnostics"]["shells"]
        monkeypatch.setenv("BARNES_ZETA_TOL", "1e-12")
        code, out, err = run(argv)
        tight = json.loads(out)["diagnostics"]["shells"]
        assert loose < tight

    def test_table_series_honours_tol(self, run):
        argv = ["table", "--alpha-grid", "0.5:0.7:2", "--a", "1", "--w", "1,1",
                "--method", "series"]
        code, loose, _ = run(argv + ["--tol", "1e-3"])
        assert code == 0
        code, tight, _ = run(argv + ["--tol", "1e-12"])
        assert code == 0
        est = [[float(row.split(",")[4]) for row in out.splitlines()[1:]] for out in (loose, tight)]
        assert all(t < l for l, t in zip(*est))

    def test_bad_env_tolerance_names_itself(self, run, monkeypatch):
        monkeypatch.setenv("BARNES_ZETA_TOL", "bad")
        code, out, err = run(["eval", "--alpha", "4", "--a", "1", "--w", "1,1"])
        assert (code, out, err) == (2, "", "error: BARNES_ZETA_TOL = 'bad' is not a number\n")

    @pytest.mark.parametrize("tol", ["-1", "inf", "0"])
    def test_bad_flag_tolerance_names_itself(self, run, tol):
        code, out, err = run(["eval", "--alpha", "5", "--a", "1", "--w", "1,1", f"--tol={tol}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: --tol = ") and "finite positive" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
    def test_bad_env_tolerance_value_names_itself(self, run, monkeypatch, tol):
        monkeypatch.setenv("BARNES_ZETA_TOL", tol)
        code, out, err = run(["eval", "--alpha", "5", "--a", "1", "--w", "1,1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: BARNES_ZETA_TOL = ") and "finite positive" in err

    def test_flag_overrides_env(self, run, monkeypatch):
        monkeypatch.setenv("BARNES_ZETA_TOL", "1e-3")
        code, out, err = run(["eval", "--alpha", "4", "--a", "1", "--w", "1,1",
                              "--method", "direct", "--tol", "1e-9", "--json"])
        shells = json.loads(out)["diagnostics"]["shells"]
        assert shells > 100


class TestMethodChoices:
    @staticmethod
    def _choices(command):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        action = next(a for a in sub._actions if a.dest == "method")
        return action.choices, action.default

    @staticmethod
    def _routes(*quantities):
        out = []
        for q in quantities:
            out += [r for r in ROUTES[q] if r not in out]
        return out

    @pytest.mark.parametrize("command, quantity", [
        ("eval", "zeta"), ("table", "zeta"), ("fp", "fp"), ("deriv0", "deriv0"),
    ])
    def test_choices_are_registry_routes(self, command, quantity):
        choices, default = self._choices(command)
        assert choices == self._routes(quantity) + ["best"]
        assert default == "series"

    @pytest.mark.parametrize("command", ["eval", "fp", "deriv0", "gamma", "compare", "table"])
    def test_tol_has_help(self, command):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        assert next(a for a in sub._actions if "--tol" in a.option_strings).help

    def test_gamma_choices(self):
        choices, default = self._choices("gamma")
        assert choices == self._routes("fp", "deriv0") + ["best"]
        assert default == "series"
