"""End-to-end tests of the command-line surface.

Every test drives ``main`` with an argv list and captures stdout/stderr,
so the whole argument-parsing / validation / serialization path is
exercised exactly as a shell user would hit it.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

import eikamp.besselprod
import eikamp.cli
import eikamp.eikonal
import eikamp.quadrature
import eikamp.special
from eikamp.besselprod import f4_classify, f4_eval, f5_eval
from eikamp.cli import main
from eikamp.eikonal import (assemble_amplitude, build_profile, compute_terms,
                            diff_cross_section, eikonal_chi)
from eikamp.exceptions import ChiGateError, NonConvergenceError
from eikamp.models import Kinematics, load_model
from eikamp.quadrature import QuadratureConfig, _InheritedError

# chi0 = g lambda^2 / (4 pi) = 0.2: comfortably inside the gate
GAUSS_INI = """\
[model]
kind = gaussian
g = 2.5132741228718345
lambda = 1.0
"""
# the test suite's five-node real table
TABLE_INI = """\
[model]
kind = tabulated
points =
    0.0 1.0 0.0
    0.5 0.87 0.0
    1.0 0.55 0.0
    1.5 0.28 0.0
    2.0 0.12 0.0
[envelope]
m = 2.1
kappa = 1.2
"""
# a seven-node real table whose amplitude changes sign
SIGN_CHANGING_INI = """\
[model]
kind = tabulated
points =
    0.0 1.0 0.0
    0.5 0.7 0.0
    1.0 0.25 0.0
    1.5 -0.1 0.0
    2.0 -0.15 0.0
    2.5 -0.08 0.0
    3.0 -0.03 0.0
[envelope]
m = 1.1
kappa = 0.9
"""
# a seven-knot real table whose amplitude changes sign, on which A3's row
# at s = 50, t = -1 and default tolerance stops once on inherited error
LADDER_INI = """\
[model]
kind = tabulated
points =
    0.0 0.2475 0.0
    0.3 0.1686 0.0
    0.84 -0.0371 0.0
    2.02 -0.0311 0.0
    2.32 0.0192 0.0
    3.14 0.0419 0.0
    3.48 0.0144 0.0
[envelope]
m = 0.25
kappa = 0.41
"""
# chi0 = 1.5: refused by the smallness gate unless overridden
STRONG_INI = """\
[model]
kind = gaussian
g = 18.849555921538759
lambda = 1.0
"""


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def gauss_model(tmp_path):
    path = tmp_path / "gauss.ini"
    path.write_text(GAUSS_INI)
    return str(path)


@pytest.fixture
def table_model(tmp_path):
    path = tmp_path / "table.ini"
    path.write_text(TABLE_INI)
    return str(path)


@pytest.fixture
def sign_changing_model(tmp_path):
    path = tmp_path / "sign_changing.ini"
    path.write_text(SIGN_CHANGING_INI)
    return str(path)


@pytest.fixture
def ladder_model(tmp_path):
    path = tmp_path / "ladder.ini"
    path.write_text(LADDER_INI)
    return str(path)


def counting_builds(monkeypatch, fail=False):
    """Route the CLI's builds of the A2 / s interpolant, its own and the
    gated build's, through a counter; with ``fail`` each build raises
    NonConvergenceError."""
    builds = []
    original = eikamp.eikonal._A2Hat

    def build(*args):
        builds.append(args)
        if fail:
            raise NonConvergenceError("A2 interpolant did not converge")
        return original(*args)

    monkeypatch.setattr(eikamp.cli, "_A2Hat", build)
    monkeypatch.setattr(eikamp.eikonal, "_A2Hat", build)
    return builds


def counting_scans(monkeypatch):
    """Route the gate's J0 scans, its eikonal_chi calls, through a
    counter."""
    scans = []

    def counted(*args, **kwargs):
        scans.append(args)
        return eikonal_chi(*args, **kwargs)

    monkeypatch.setattr(eikamp.eikonal, "eikonal_chi", counted)
    return scans


@pytest.fixture
def warned_model(tmp_path):
    # chi0 = 0.6: in the gate's warning window
    path = tmp_path / "warned.ini"
    path.write_text(STRONG_INI.replace("18.849555921538759",
                                       "7.5398223686155035"))
    return str(path)


def scaled_sign_changing_model(tmp_path, factor):
    """The sign-changing table with its amplitudes and envelope scaled
    by ``factor``, as a model file."""
    lines = []
    for line in SIGN_CHANGING_INI.splitlines():
        parts = line.split()
        if len(parts) == 3 and line.startswith("    "):
            q, real, imag = map(float, parts)
            line = f"    {q} {factor * real} {imag}"
        elif line.startswith("m = "):
            line = f"m = {factor * float(line[4:])}"
        lines.append(line)
    path = tmp_path / f"sign_changing_x{factor}.ini"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def strong_model(tmp_path):
    path = tmp_path / "strong.ini"
    path.write_text(STRONG_INI)
    return str(path)


class TestBesselprodCommand:
    def test_triangle_value(self, capsys):
        code, out, err = run_cli(["besselprod", "3", "4", "5"], capsys)
        assert code == 0
        value = float(out.splitlines()[0].split(" = ")[1])
        assert value == pytest.approx(1.0 / (12.0 * math.pi), rel=1e-12)
        assert "closed form" in out

    def test_vanishing_triangle(self, capsys):
        # 3 > 1 + 1: no triangle closes, and F3 is 0 in closed form
        code, out, err = run_cli(["besselprod", "1", "1", "3"], capsys)
        assert (code, err) == (0, "")
        value, branch, error = out.splitlines()
        assert value == "F3(1, 1, 3) = 0"
        assert branch.startswith("branch: vanishing (no closing triangle); ")
        assert error == "error estimate: 0 (closed form)"

    def test_four_parameters_print_the_branch(self, capsys):
        code, out, err = run_cli(["besselprod", "1", "0.9", "1.1", "1.4"],
                                 capsys)
        assert (code, err) == (0, "")
        value, branch, error = out.splitlines()
        rep = f4_classify(1.0, 0.9, 1.1, 1.4)
        want = f4_eval(1.0, 0.9, 1.1, 1.4)
        assert value == f"F4(1, 0.9, 1.1, 1.4) = {want:.12g}"
        assert branch == (f"branch: {rep.branch.value}; "
                          f"Delta4^2 = {rep.delta_sq:.12g}; "
                          f"abcd = {rep.product_abcd:.12g}")
        assert error == "error estimate: 0 (closed form)"

    def test_two_parameters_refused(self, capsys):
        code, out, err = run_cli(["besselprod", "1", "1"], capsys)
        assert code == 64
        assert "delta distribution" in err

    def test_degenerate_triangle_boundary_exit(self, capsys):
        code, out, err = run_cli(["besselprod", "1", "1", "2"], capsys)
        assert code == 2
        assert "boundary case" in err

    def test_modulus_one_boundary_exit(self, capsys):
        # arithmetic progression: exactly on the elliptic modulus-1 line
        code, out, err = run_cli(
            ["besselprod", "1", "1.1", "1.2", "1.3"], capsys)
        assert code == 2
        assert "modulus 1" in err

    def test_five_parameters_report_error_estimate(self, capsys):
        code, out, err = run_cli(
            ["besselprod", "1", "1", "0.5", "0.5", "0.5",
             "--rel-tol", "1e-6", "--abs-tol", "1e-12"], capsys)
        assert code == 0
        printed = float(out.splitlines()[0].split(" = ")[1])
        ref = f5_eval(1.0, 1.0, 0.5, 0.5, 0.5,
                      QuadratureConfig(rel_tol=1e-6, abs_tol=1e-12))
        assert printed == pytest.approx(ref.value, rel=1e-11)
        assert "error estimate" in out
        assert "evaluations" in out

    def test_nonpositive_parameter_refused(self, capsys):
        code, out, err = run_cli(["besselprod", "1", "-1", "2"], capsys)
        assert code == 64
        assert "positive" in err

    def test_seven_parameters_refused(self, capsys):
        code, out, err = run_cli(["besselprod"] + ["1"] * 7, capsys)
        assert code == 64
        assert "2 to 6" in err

    @pytest.mark.parametrize("flag, value", [("--rel-tol", "0"),
                                             ("--rel-tol", "nan"),
                                             ("--abs-tol", "-1"),
                                             ("--rel-tol", "inf"),
                                             ("--rel-tol", "5"),
                                             ("--abs-tol", "inf")])
    def test_bad_tolerance_refused(self, flag, value, capsys):
        code, out, err = run_cli(["besselprod", "1", "1", "1", "1", "1",
                                  f"{flag}={value}"], capsys)
        assert code == 64
        assert err.startswith("eikamp besselprod: ")
        assert "tolerances" in err

    def test_non_convergence_exits_one(self, capsys, monkeypatch):
        def fail(*args):
            raise NonConvergenceError("F5 did not converge")

        monkeypatch.setattr(eikamp.cli, "f5_eval", fail)
        code, out, err = run_cli(["besselprod", "1", "1", "0.5", "0.5",
                                  "0.5"], capsys)
        assert code == 1
        assert out == ""
        assert err == "eikamp besselprod: F5 did not converge\n"


class TestTableCommand:
    def test_csv_structure_and_positivity(self, gauss_model, capsys):
        code, out, err = run_cli(
            ["table", "--model", gauss_model, "--s", "50",
             "--t-min", "-2", "--t-max", "-0.25", "--points", "5",
             "--rel-tol", "1e-4", "--abs-tol", "1e-8"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# eikamp-table schema 1")
        assert lines[1].startswith("t,re_a1,")
        assert lines[1].endswith(",status")
        assert len(lines) == 2 + 5
        for row in lines[2:]:
            cells = row.split(",")
            assert cells[-1] == "ok"
            dsig = float(cells[9])
            assert dsig > 0.0
            assert float(cells[10]) < 1e-3   # a2 error
            assert float(cells[11]) < 1e-3   # a3 error

    def test_single_point_matches_api(self, gauss_model, capsys):
        code, out, err = run_cli(
            ["table", "--model", gauss_model, "--s", "50",
             "--t-min", "-1", "--t-max", "-1", "--points", "1",
             "--rel-tol", "1e-5", "--abs-tol", "1e-9"], capsys)
        assert code == 0
        cells = out.strip().splitlines()[2].split(",")

        model = load_model(gauss_model)
        kin = Kinematics(50.0, -1.0)
        cfg = QuadratureConfig(rel_tol=1e-5, abs_tol=1e-9)
        terms = compute_terms(model, kin, cfg)
        amp = assemble_amplitude(terms)
        dsig = diff_cross_section(terms, kin)
        want = [kin.t, terms.a1.real, terms.a1.imag, terms.a2.real,
                terms.a2.imag, terms.a3.real, terms.a3.imag, amp.real,
                amp.imag, dsig, terms.a2_error, terms.a3_error]
        for cell, ref in zip(cells[:-1], want):
            assert math.isclose(float(cell), ref, rel_tol=1e-13,
                                abs_tol=1e-300)

    def test_json_matches_csv_numbers(self, gauss_model, tmp_path, capsys):
        args = ["--model", gauss_model, "--s", "50", "--t-min", "-1.5",
                "--t-max", "-0.5", "--points", "2",
                "--rel-tol", "1e-4", "--abs-tol", "1e-8"]
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        code, _, _ = run_cli(["table"] + args + ["--format", "csv",
                                                 "--out", str(csv_path)],
                             capsys)
        assert code == 0
        code, _, _ = run_cli(["table"] + args + ["--format", "json",
                                                 "--out", str(json_path)],
                             capsys)
        assert code == 0

        csv_lines = csv_path.read_text().strip().splitlines()
        columns = csv_lines[1].split(",")
        payload = json.loads(json_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "table"
        assert len(payload["rows"]) == 2
        for csv_row, json_row in zip(csv_lines[2:], payload["rows"]):
            for name, cell in zip(columns, csv_row.split(",")):
                if name == "status":
                    assert json_row[name] == cell
                else:
                    # %.17g round-trips float64, so both formats carry
                    # the identical number
                    assert float(cell) == json_row[name]

    def test_output_is_deterministic(self, gauss_model, tmp_path, capsys):
        args = ["table", "--model", gauss_model, "--s", "50",
                "--t-min", "-1", "--t-max", "-0.5", "--points", "2",
                "--rel-tol", "1e-4", "--abs-tol", "1e-8", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("which, profiles", [("gauss_model", 0),
                                                 ("warned_model", 1)])
    def test_gates_once_per_command(self, which, profiles, request, capsys,
                                    monkeypatch):
        # the gate depends on s alone: one build_profile stands for all
        # rows, and none where the build's norm bounds max|chi| below 0.5
        # (chi0 = 0.2; 0.6 warns)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_profile(*args, **kwargs)

        monkeypatch.setattr(eikamp.cli, "build_profile", counted)
        monkeypatch.setattr(eikamp.eikonal, "build_profile", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, err = run_cli(
                ["table", "--model", request.getfixturevalue(which),
                 "--s", "50", "--t-min", "-2", "--t-max", "-0.25",
                 "--points", "3", "--rel-tol", "1e-3", "--abs-tol", "1e-8"],
                capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 2 + 3
        assert len(calls) == profiles

    def test_gate_warning_names_the_caller(self, warned_model, capsys):
        # the warning points at the first frame outside eikamp: here
        # run_cli's call of main
        with pytest.warns(UserWarning, match="truncation") as caught:
            code, _out, _err = run_cli(
                ["table", "--model", warned_model, "--s", "50", "--t-min",
                 "-1", "--t-max", "-1", "--points", "1", "--rel-tol", "1e-3",
                 "--abs-tol", "1e-8"], capsys)
        assert code == 0
        assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("which", ["gauss_model", "table_model"])
    def test_table_calls_no_elliptic_kernel(self, which, request,
                                            monkeypatch, capsys):
        # A3 is the convolution of a with A2: no row evaluates the kernel
        # G or elliptic K, which only the G route and F5/F6 call
        def refuse(*args):
            raise AssertionError("elliptic kernel called")

        for module in (eikamp.eikonal, eikamp.besselprod, eikamp.special):
            for name in ("_g_values", "_elliptic_k_core"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        code = main(["table", "--model", request.getfixturevalue(which),
                     "--s", "50", "--t-min", "-2", "--t-max", "-0.25",
                     "--points", "2", "--rel-tol", "1e-3",
                     "--abs-tol", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count(",ok") == 2

    @pytest.mark.parametrize("fail", [False, True], ids=["built", "failed"])
    def test_builds_the_interpolant_once(self, gauss_model, capsys,
                                         monkeypatch, fail):
        # a failed build fails every row with its message and the table
        # still exits 0
        builds = counting_builds(monkeypatch, fail)
        code, out, err = run_cli(
            ["table", "--model", gauss_model, "--s", "50",
             "--t-min", "-2", "--t-max", "-0.5", "--points", "4",
             "--rel-tol", "1e-3", "--abs-tol", "1e-8"], capsys)
        assert code == 0
        assert len(builds) == 1
        status = [r.split(",")[-1] for r in out.strip().splitlines()[2:]]
        want = "failed: A2 interpolant did not converge" if fail else "ok"
        assert status == [want] * 4

    def test_json_writes_a_failed_row_as_null(self, gauss_model, capsys,
                                              monkeypatch):
        # JSON has no NaN: a failed row's numbers are null, and the text
        # parses with every non-standard constant refused
        counting_builds(monkeypatch, fail=True)
        code, out, err = run_cli(
            ["table", "--model", gauss_model, "--s", "50",
             "--t-min", "-1", "--t-max", "-1", "--points", "1",
             "--format", "json"], capsys)
        assert code == 0

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        (row,) = json.loads(out, parse_constant=refuse)["rows"]
        assert row.pop("t") == -1.0
        assert row.pop("status") == "failed: A2 interpolant did not converge"
        assert set(row.values()) == {None}

    def test_sign_changing_table_at_default_tolerance(self,
                                                      sign_changing_model,
                                                      capsys):
        # the table whose A2 / s crosses zero finishes every row at the
        # default tolerance, A2 at t = -2 among them
        code, out, err = run_cli(
            ["table", "--model", sign_changing_model, "--s", "50",
             "--t-min", "-2", "--t-max", "-0.5", "--points", "4"], capsys)
        assert code == 0
        status = [r.split(",")[-1] for r in out.strip().splitlines()[2:]]
        assert status == ["ok"] * 4

    def test_a_row_fails_alone(self, gauss_model, capsys, monkeypatch):
        # A3's solve of every row raises while the row at t = -1.25 is in
        # it: that row reads failed: with its message, and the other rows,
        # each then solved on its own, are byte for byte those of an
        # unpatched table
        argv = ["table", "--model", gauss_model, "--s", "50",
                "--t-min", "-2", "--t-max", "-0.5", "--points", "3",
                "--rel-tol", "1e-3", "--abs-tol", "1e-8"]
        code, want, _ = run_cli(argv, capsys)
        assert code == 0
        real = eikamp.eikonal._a3_with_error
        solves = []

        def flaky(model, kins, *args):
            solves.append([kin.t for kin in kins])
            if any(kin.t == -1.25 for kin in kins):
                raise NonConvergenceError("A3 row did not converge")
            return real(model, kins, *args)

        monkeypatch.setattr(eikamp.eikonal, "_a3_with_error", flaky)
        code, got, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert solves == [[-2.0, -1.25, -0.5], [-2.0], [-1.25], [-0.5]]
        want, got = want.splitlines(), got.splitlines()
        assert got[3] == ",".join(["-1.25"] + ["nan"] * 11
                                  + ["failed: A3 row did not converge"])
        assert got[:3] + got[4:] == want[:3] + want[4:]

    def test_every_row_has_the_bits_of_a_one_row_call(self, ladder_model,
                                                      capsys, monkeypatch):
        # A2 and A3 of a table are one solve each over all its rows, and
        # each row is a task refined as it would be alone.  On this
        # sign-changing 7-knot table the row at t = -1 stops once on
        # inherited error and reruns with its inner level 10x tighter;
        # the ladder climbs for that row alone, so every row, that one
        # too, equals a one-row compute_terms bit for bit.  A ladder run
        # by the whole batch moves re_a3 and a3_error on six rows
        real = eikamp.quadrature._solve_batched
        stops = []

        def spy(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except _InheritedError:
                stops.append(True)
                raise

        monkeypatch.setattr(eikamp.quadrature, "_solve_batched", spy)
        code, out, err = run_cli(
            ["table", "--model", ladder_model, "--s", "50", "--t-min", "-2",
             "--t-max", "-0.5", "--points", "7", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert stops
        monkeypatch.undo()
        rows = json.loads(out)["rows"]
        assert len(rows) == 7
        model = load_model(ladder_model)
        for row, t in zip(rows, np.linspace(-2.0, -0.5, 7)):
            kin = Kinematics(50.0, float(t))
            terms = compute_terms(model, kin)
            amp = assemble_amplitude(terms)
            # json.dumps writes each float by its repr: -0.0 is not 0.0
            assert json.dumps(row) == json.dumps({
                "t": kin.t, "re_a1": terms.a1.real, "im_a1": terms.a1.imag,
                "re_a2": terms.a2.real, "im_a2": terms.a2.imag,
                "re_a3": terms.a3.real, "im_a3": terms.a3.imag,
                "re_a": amp.real, "im_a": amp.imag,
                "dsigma_dt": diff_cross_section(terms, kin),
                "a2_error": terms.a2_error, "a3_error": terms.a3_error,
                "status": "ok"})

    def test_a_level_0_stop_reruns_its_row_alone(self, ladder_model, capsys,
                                                 monkeypatch):
        # on the same table only A3's row at t = -1 stops, at its level 0:
        # the other six rows finish in the batch, and that row alone is
        # solved again, once, at the 10x rung, as its own ladder would
        real = eikamp.quadrature._solve_batched
        depth = [0]
        top = []

        def spy(f, edges, *args, **kwargs):
            if not depth[0]:
                top.append(np.array(edges, copy=True))
            depth[0] += 1
            try:
                return real(f, edges, *args, **kwargs)
            except _InheritedError as exc:
                top[-1] = (top[-1], exc.stopped)
                raise
            finally:
                depth[0] -= 1

        monkeypatch.setattr(eikamp.quadrature, "_solve_batched", spy)
        code, out, err = run_cli(
            ["table", "--model", ladder_model, "--s", "50", "--t-min", "-2",
             "--t-max", "-0.5", "--points", "7", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        stops = [k for k, call in enumerate(top) if isinstance(call, tuple)]
        assert len(stops) == 1
        rows, stopped = top[stops[0]]
        # t = -2, -1.75, ..., -0.5: the row of t = -1 is the fifth
        assert rows.shape[0] == 7
        assert stopped.nonzero()[0].tolist() == [4]
        again = top[stops[0] + 1:]
        assert len(again) == 1
        np.testing.assert_array_equal(again[0], rows[4:5])

    def test_log_spacing_grid(self, gauss_model, capsys):
        code, out, err = run_cli(
            ["table", "--model", gauss_model, "--s", "50",
             "--t-min", "-4", "--t-max", "-1", "--points", "3",
             "--spacing", "log", "--rel-tol", "1e-4", "--abs-tol", "1e-8"],
            capsys)
        assert code == 0
        ts = [float(r.split(",")[0]) for r in out.strip().splitlines()[2:]]
        want = (-np.geomspace(4.0, 1.0, 3)).tolist()
        assert ts == pytest.approx(want, rel=1e-15)


class TestCompareCommand:
    def test_small_grid_passes(self, gauss_model, capsys):
        code, out, err = run_cli(
            ["compare", "--model", gauss_model, "--s", "50",
             "--t-min", "-1", "--t-max", "-0.5", "--points", "2",
             "--rel-tol", "1e-5", "--abs-tol", "1e-9"], capsys)
        assert code == 0
        assert "compare: 2 points" in out
        assert "allowance" in out
        max_dev = float(out.split("max deviation ")[1].split(",")[0])
        assert max_dev < 1e-3


    def test_failed_point_exits_cleanly(self, gauss_model, capsys,
                                        monkeypatch):
        def refuse(*_args, **_kwargs):
            raise NonConvergenceError("b-integral did not converge")

        monkeypatch.setattr("eikamp.cli.direct_eikonal_amplitude", refuse)
        code, out, err = run_cli(
            ["compare", "--model", gauss_model, "--s", "50",
             "--t-min", "-1", "--t-max", "-1", "--points", "1",
             "--rel-tol", "1e-3", "--abs-tol", "1e-6"], capsys)
        assert code == 1
        assert "eikamp compare: t=-1: b-integral did not converge" in err

    def test_json_writes_its_rows(self, gauss_model, capsys):
        code, out, err = run_cli(
            ["compare", "--model", gauss_model, "--s", "50",
             "--t-min", "-1", "--t-max", "-0.5", "--points", "2",
             "--rel-tol", "1e-5", "--abs-tol", "1e-9", "--format", "json"],
            capsys)
        assert (code, err) == (0, "")
        payload, end = json.JSONDecoder().raw_decode(out)
        assert out[end:].lstrip().startswith("compare: 2 points")
        assert (payload["kind"], payload["s"]) == ("compare", 50.0)
        rows = payload["rows"]
        assert [r["t"] for r in rows] == [-1.0, -0.5]
        for r in rows:
            approx = complex(r["re_assembled"], r["im_assembled"])
            direct = complex(r["re_direct"], r["im_direct"])
            assert r["rel_deviation"] == abs(approx - direct) / abs(direct)
            assert r["rel_deviation"] < 1e-3

    def test_far_oracle_fails(self, gauss_model, capsys, monkeypatch):
        # a deviation beyond 10x the chi^4 allowance exits 1
        monkeypatch.setattr("eikamp.cli.direct_eikonal_amplitude",
                            lambda *_args, **_kwargs: 1e6 + 0j)
        code, out, err = run_cli(
            ["compare", "--model", gauss_model, "--s", "50",
             "--t-min", "-1", "--t-max", "-1", "--points", "1",
             "--rel-tol", "1e-3", "--abs-tol", "1e-6"], capsys)
        assert code == 1
        assert "compare: 1 points, max deviation 1.000e+00" in out
        assert "compare: FAIL" in err

    @pytest.mark.parametrize("fail", [False, True], ids=["built", "failed"])
    def test_builds_the_interpolant_once(self, gauss_model, capsys,
                                         monkeypatch, fail):
        # a failed build ends the command with its message and exit 1
        builds = counting_builds(monkeypatch, fail)
        code, out, err = run_cli(
            ["compare", "--model", gauss_model, "--s", "50",
             "--t-min", "-1", "--t-max", "-0.5", "--points", "2",
             "--rel-tol", "1e-3", "--abs-tol", "1e-6"], capsys)
        assert len(builds) == 1
        if fail:
            assert code == 1
            assert "eikamp compare: A2 interpolant did not converge" in err
        else:
            assert code == 0
            assert "compare: 2 points" in out


class TestChiGateWiring:
    def test_gate_refusal_exits_one(self, strong_model, capsys):
        code, out, err = run_cli(
            ["table", "--model", strong_model, "--s", "50",
             "--t-min", "-1", "--t-max", "-0.5", "--points", "2"], capsys)
        assert code == 1
        assert "moderately small" in err

    def test_override_proceeds(self, strong_model, capsys):
        with pytest.warns(UserWarning, match="override"):
            code, out, err = run_cli(
                ["table", "--model", strong_model, "--s", "50",
                 "--t-min", "-1", "--t-max", "-1", "--points", "1",
                 "--rel-tol", "1e-4", "--abs-tol", "1e-8",
                 "--override-chi-gate"], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1].endswith(",ok")

    def test_table_gate_reads_the_build_norm(self, table_model, capsys,
                                             monkeypatch):
        # the bench table's norm bounds max|chi| by 0.0776, its peak at
        # b = 0 for an amplitude of one sign: no J0 scan runs, and the
        # rows are byte for byte those of a table gated by the scan
        argv = ["table", "--model", table_model, "--s", "50",
                "--t-min", "-1", "--t-max", "-1", "--points", "1",
                "--rel-tol", "1e-3", "--abs-tol", "1e-6", "--format", "json"]
        scans = counting_scans(monkeypatch)
        code, out, err = run_cli(argv, capsys)
        assert (code, err, scans) == (0, "", [])
        monkeypatch.setattr(eikamp.eikonal, "_chi_bound",
                            lambda norms: math.inf)
        assert run_cli(argv, capsys) == (0, out, "")
        assert len(scans) == 1

    @pytest.mark.parametrize("factor, warning", [
        (10.0, None), (20.0, r"max\|chi\| = 0.513 in \[0.5, 1\)")])
    def test_table_scans_where_the_norm_reaches_the_threshold(
            self, tmp_path, capsys, monkeypatch, factor, warning):
        # scaled 10x the sign-changing table's norm bounds max|chi| by
        # 0.56 while the scan's peak is 0.26, and scaled 20x by 1.12 with
        # a peak of 0.513: the scan runs, and the table warns, or does not,
        # exactly as build_profile does on its own
        path = scaled_sign_changing_model(tmp_path, factor)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_profile(load_model(path), 50.0,
                          QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6))
        want = [str(w.message) for w in caught]
        scans = counting_scans(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                ["table", "--model", path, "--s", "50", "--t-min", "-1",
                 "--t-max", "-1", "--points", "1", "--rel-tol", "1e-3",
                 "--abs-tol", "1e-6"], capsys)
        assert code == 0 and out.strip().endswith(",ok")
        assert len(scans) == 1
        assert [str(w.message) for w in caught] == want
        if warning is None:
            assert want == []
        else:
            assert len(want) == 1 and re.search(warning, want[0])


    @pytest.mark.parametrize("which, profiles", [
        ("table", 0), ("sign_changing_x20", 1), ("strong", 1)])
    def test_compute_terms_gates_as_table_does(self, which, profiles,
                                               table_model, strong_model,
                                               tmp_path, monkeypatch):
        # compute_terms is one table row: the bench table's norm bounds
        # max|chi| below 0.5, so no profile is built; where the bound
        # reaches it, one profile warns or refuses as build_profile alone
        path = {"table": table_model, "strong": strong_model,
                "sign_changing_x20": scaled_sign_changing_model(tmp_path,
                                                                20.0)}[which]
        model = load_model(path)
        kin = Kinematics(50.0, -1.0)
        cfg = QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6)

        def outcome(fn, *args):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    fn(*args)
                    error = None
                except ChiGateError as exc:
                    error = str(exc)
            return error, [str(w.message) for w in caught]

        want = outcome(build_profile, model, kin.s, cfg)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_profile(*args, **kwargs)

        monkeypatch.setattr(eikamp.eikonal, "build_profile", counted)
        got = outcome(compute_terms, model, kin, cfg)
        assert len(calls) == profiles
        if profiles:
            assert got == want
        else:
            assert got == want == (None, [])


class TestUsageErrors:
    def test_nonnegative_t_max(self, gauss_model, capsys):
        code, out, err = run_cli(
            ["table", "--model", gauss_model, "--s", "50",
             "--t-min", "-1", "--t-max", "0", "--points", "2"], capsys)
        assert code == 64
        assert "negative" in err

    @pytest.mark.parametrize("command", ["table", "compare"])
    @pytest.mark.parametrize("grid", [
        ["--s", "inf", "--t-min", "-1", "--t-max", "-0.5"],
        ["--s", "50", "--t-min", "nan", "--t-max", "-0.5", "--points", "1"],
        ["--s", "50", "--t-min=-inf", "--t-max=-1", "--points", "2"],
        ["--s", "50", "--t-min=-inf", "--t-max=-inf", "--points", "1"],
    ], ids=["s", "t-min", "t-min-grid", "t-max"])
    def test_non_finite_kinematics_refused(self, gauss_model, command, grid,
                                           capsys):
        code, out, err = run_cli([command, "--model", gauss_model] + grid,
                                 capsys)
        assert code == 64
        assert "finite" in err

    def test_missing_model_file(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["table", "--model", str(tmp_path / "nope.ini"), "--s", "50",
             "--t-min", "-1", "--t-max", "-0.5"], capsys)
        assert code == 64
        assert "cannot read" in err

    def test_malformed_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("kind = gaussian without a section header\n")
        code, out, err = run_cli(
            ["table", "--model", str(bad), "--s", "50",
             "--t-min", "-1", "--t-max", "-0.5"], capsys)
        assert code == 64
        assert "parse error" in err

    @pytest.mark.parametrize("row,envelope", [
        ("0.5 nan 0.0", ("2.1", "1.2")),
        ("nan 0.87 0.0", ("2.1", "1.2")),
        ("0.5 0.87 nan", ("2.1", "1.2")),
        ("0.5 inf 0.0", ("2.1", "1.2")),
        ("inf 0.87 0.0", ("2.1", "1.2")),
        ("0.5 0.87 -inf", ("2.1", "1.2")),
        ("0.5 0.87 0.0", ("inf", "1.2")),
        ("0.5 0.87 0.0", ("2.1", "inf")),
    ], ids=["re-nan", "q-nan", "im-nan", "re-inf", "q-inf", "im-inf",
            "m-inf", "kappa-inf"])
    def test_non_finite_table_refused(self, tmp_path, capsys, row, envelope):
        # the table's second row or its envelope carries the bad value
        path = tmp_path / "tab.ini"
        path.write_text(
            "[model]\nkind = tabulated\npoints =\n    0.0 1.0 0.0\n"
            f"    {row}\n    1.0 0.55 0.0\n    1.5 0.28 0.0\n"
            "    2.0 0.12 0.0\n[envelope]\nm = {}\nkappa = {}\n"
            .format(*envelope))
        code, out, err = run_cli(
            ["table", "--model", str(path), "--s", "50", "--t-min", "-1",
             "--t-max", "-0.5", "--rel-tol", "1e-2"], capsys)
        assert code == 64
        assert "finite" in err

    @pytest.mark.parametrize("command, flags, message", [
        ("table", ["--s", "50", "--t-min", "-0.5", "--t-max", "-1",
                   "--points", "1"], "t_min must be <= t_max"),
        ("table", ["--s", "50", "--t-min", "-0.5", "--t-max", "-1",
                   "--points", "3"], "t_min must be < t_max"),
        ("table", ["--s=-5", "--t-min", "-1", "--t-max", "-0.5"],
         "s must be positive"),
        ("table", ["--s", "50", "--t-min", "-1", "--t-max", "-0.5",
                   "--rel-tol", "2"], "tolerances must be in (0, 1)"),
        ("compare", ["--s", "50", "--t-min", "-1", "--t-max", "-0.5",
                     "--abs-tol", "0"], "tolerances must be in (0, 1)"),
    ], ids=["reversed-point", "reversed-grid", "s", "rel-tol", "abs-tol"])
    def test_run_flags_refused(self, gauss_model, command, flags, message,
                               capsys):
        code, out, err = run_cli([command, "--model", gauss_model] + flags,
                                 capsys)
        assert code == 64
        assert out == ""
        assert err == f"eikamp {command}: {message}\n"

    def test_zero_points(self, gauss_model, capsys):
        code, out, err = run_cli(
            ["table", "--model", gauss_model, "--s", "50",
             "--t-min", "-1", "--t-max", "-0.5", "--points", "0"], capsys)
        assert code == 64

    def test_unknown_spacing(self, gauss_model, capsys):
        code, out, err = run_cli(
            ["table", "--model", gauss_model, "--s", "50",
             "--t-min", "-1", "--t-max", "-0.5", "--spacing", "cubic"],
            capsys)
        assert code == 64

    def test_missing_required_flag(self, capsys):
        code, out, err = run_cli(["table", "--s", "50", "--t-min", "-1",
                                  "--t-max", "-0.5"], capsys)
        assert code == 64

    def test_version_flag(self, capsys):
        code, out, err = run_cli(["--version"], capsys)
        assert code == 0
        assert "eikamp" in out


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, err = run_cli(["selftest"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("selftest: all")
        assert all(ln.startswith("PASS") for ln in lines[:-1])

    def test_a_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(eikamp.cli, "f3_eval", lambda *args: 0.0)
        code, out, err = run_cli(["selftest"], capsys)
        assert code == 1
        assert "FAIL  F3(3,4,5)" in out
        assert err == "selftest: 1 of 9 checks FAILED\n"
