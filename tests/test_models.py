"""Born model families, kinematics validation, and the model file loader."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import eikamp
from eikamp.exceptions import ModelFileError
from eikamp.models import (
    BornKind,
    ExponentialPoleBorn,
    GaussianBorn,
    Kinematics,
    TabulatedBorn,
    _pchip,
    load_model,
)

# gaussian-shaped grid |a| = e^{-q^2/2} with a slowly rotating phase; the
# envelope 2.1 e^{-1.2 q} dominates every point and the fitted tail
TAB_Q = [0.0, 0.5, 1.0, 1.5, 2.0]
TAB_RE = [1.0, 0.87, 0.55, 0.28, 0.12]
TAB_IM = [0.0, 0.13, 0.25, 0.16, 0.07]
TAB_M, TAB_KAPPA = 2.1, 1.2

README = Path(__file__).resolve().parents[1] / "README.md"


def make_tabulated():
    return TabulatedBorn(TAB_Q, TAB_RE, TAB_IM, TAB_M, TAB_KAPPA)


class TestKinematics:
    def test_valid_pair(self):
        kin = Kinematics(s=100.0, t=-1.0)
        assert kin.q == 1.0
        assert Kinematics(s=2.0, t=-0.25).q == 0.5

    @pytest.mark.parametrize("s,t", [(0.0, -1.0), (-5.0, -1.0),
                                     (math.nan, -1.0), (100.0, 0.0),
                                     (100.0, 1.0), (100.0, math.inf)])
    def test_invalid_pairs(self, s, t):
        with pytest.raises(ValueError):
            Kinematics(s=s, t=t)

    def test_frozen(self):
        kin = Kinematics(s=10.0, t=-1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            kin.s = 20.0


class TestGaussianBorn:
    def test_constructor_validation(self):
        for bad in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                    (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                GaussianBorn(*bad)

    def test_reduced_values(self):
        m = GaussianBorn(g=2.0, lam=1.3)
        assert m.reduced(0.0) == 2.0j
        q = 0.7
        expect = 2.0j * math.exp(-q * q / (2.0 * 1.3 ** 2))
        assert m.reduced(q) == pytest.approx(expect, rel=1e-15)

    def test_value_restores_s(self):
        m = GaussianBorn(g=2.0, lam=1.3)
        assert m.value(50.0, 0.7) == pytest.approx(50.0 * m.reduced(0.7))

    def test_chi0(self):
        m = GaussianBorn(g=2.0, lam=1.3)
        assert m.chi0 == pytest.approx(2.0 * 1.3 ** 2 / (4.0 * math.pi),
                                       rel=1e-15)

    def test_chi_closed(self):
        m = GaussianBorn(g=2.0, lam=1.3)
        chi = m.chi_closed()
        assert chi(0.0) == pytest.approx(1j * m.chi0, rel=1e-15)
        b = 0.9
        assert chi(b) == pytest.approx(
            1j * m.chi0 * math.exp(-1.3 ** 2 * b * b / 2.0), rel=1e-15)
        arr = chi(np.array([0.0, 0.5, 1.0]))
        assert arr.shape == (3,)

    def test_kind(self):
        assert GaussianBorn(1.0, 1.0).kind is BornKind.GAUSSIAN


class TestExponentialPoleBorn:
    def test_constructor_validation(self):
        for bad in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError):
                ExponentialPoleBorn(*bad)

    def test_reduced_values(self):
        m = ExponentialPoleBorn(c=1.1, slope_b=0.7)
        assert m.reduced(0.0) == 1.1j
        q = 1.2
        assert m.reduced(q) == pytest.approx(
            1.1j * math.exp(-0.7 * q * q), rel=1e-15)

    def test_chi0(self):
        m = ExponentialPoleBorn(c=1.1, slope_b=0.7)
        assert m.chi0 == pytest.approx(1.1 / (8.0 * math.pi * 0.7), rel=1e-15)

    def test_chi_closed(self):
        m = ExponentialPoleBorn(c=1.1, slope_b=0.7)
        chi = m.chi_closed()
        b = 1.4
        assert chi(b) == pytest.approx(
            1j * m.chi0 * math.exp(-b * b / (4.0 * 0.7)), rel=1e-15)

    def test_kind(self):
        m = ExponentialPoleBorn(1.0, 1.0)
        assert m.kind is BornKind.EXPONENTIAL_POLE

    def test_is_the_gaussian_family(self):
        # g = C, lam = 1 / sqrt(2 B); only a(q) is its own, bit for bit
        # in B
        m = ExponentialPoleBorn(c=1.1, slope_b=0.7)
        assert isinstance(m, GaussianBorn)
        assert (m.g, m.lam) == (1.1, 1.0 / math.sqrt(1.4))
        q = np.linspace(0.0, 6.0, 61)
        assert m.reduced(q).tobytes() == (1j * 1.1 * np.exp(-0.7 * q * q)
                                          ).tobytes()
        np.testing.assert_allclose(m.reduced(q),
                                   GaussianBorn.reduced(m, q), rtol=1e-14)
        own = {k for k, v in vars(ExponentialPoleBorn).items() if callable(v)}
        assert own == {"__init__", "reduced"}


class TestTabulatedBorn:
    def test_interpolates_grid_nodes_exactly(self):
        m = make_tabulated()
        got = m.reduced(np.array(TAB_Q))
        expect = np.array(TAB_RE) + 1j * np.array(TAB_IM)
        assert np.allclose(got, expect, rtol=0.0, atol=1e-15)

    def test_scalar_and_array_shapes(self):
        m = make_tabulated()
        assert np.isscalar(m.reduced(0.25)) or m.reduced(0.25).ndim == 0
        assert m.reduced(np.array([0.25, 1.75])).shape == (2,)

    def test_exponential_tail(self):
        m = make_tabulated()
        mag = np.hypot(TAB_RE, TAB_IM)
        kappa_tail = math.log(mag[-2] / mag[-1]) / (TAB_Q[-1] - TAB_Q[-2])
        a_end = TAB_RE[-1] + 1j * TAB_IM[-1]
        for dq in (0.5, 2.0, 5.0):
            expect = a_end * math.exp(-kappa_tail * dq)
            assert m.reduced(TAB_Q[-1] + dq) == pytest.approx(expect,
                                                             rel=1e-12)

    def test_no_overshoot_between_nodes(self):
        # monotone cubic interpolation of monotone data stays monotone
        m = TabulatedBorn(TAB_Q, TAB_RE, [0.0] * 5, TAB_M, TAB_KAPPA)
        qs = np.linspace(0.0, 2.0, 301)
        vals = m.reduced(qs).real
        assert np.all(np.diff(vals) <= 1e-15)
        assert vals.max() <= TAB_RE[0] + 1e-15
        assert vals.min() >= TAB_RE[-1] - 1e-15

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TabulatedBorn([0.0, 1.0], [1.0, 0.5], [0.0, 0.0], 2.0, 0.5)
        with pytest.raises(ValueError):
            TabulatedBorn([0.1, 1.0, 2.0], [1.0, 0.5, 0.2],
                          [0.0, 0.0, 0.0], 2.0, 0.5)
        with pytest.raises(ValueError):
            TabulatedBorn([0.0, 1.0, 1.0], [1.0, 0.5, 0.2],
                          [0.0, 0.0, 0.0], 2.0, 0.5)
        with pytest.raises(ValueError):
            TabulatedBorn([0.0, 1.0, 2.0], [1.0, 0.5], [0.0, 0.0, 0.0],
                          2.0, 0.5)

    def test_envelope_violation_rejected(self):
        with pytest.raises(ValueError, match="envelope violated"):
            TabulatedBorn([0.0, 1.0, 2.0], [1.0, 0.9, 0.2],
                          [0.0, 0.0, 0.0], 1.0, 0.5)

    def test_flat_end_rejected(self):
        with pytest.raises(ValueError, match="decrease at the end"):
            TabulatedBorn([0.0, 1.0, 2.0], [1.0, 0.3, 0.3],
                          [0.0, 0.0, 0.0], 2.0, 0.1)

    def test_slow_tail_rejected(self):
        # last two magnitudes decay slower than the envelope: the
        # extrapolation would escape the stated bound
        with pytest.raises(ValueError, match="tail decays slower"):
            TabulatedBorn([0.0, 1.0, 2.0], [1.0, 0.5, 0.45],
                          [0.0, 0.0, 0.0], 1.0, 0.3)

    def test_bad_envelope_parameters(self):
        with pytest.raises(ValueError):
            TabulatedBorn(TAB_Q, TAB_RE, TAB_IM, 0.0, 1.0)
        with pytest.raises(ValueError):
            TabulatedBorn(TAB_Q, TAB_RE, TAB_IM, 1.0, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", range(3), ids=["q", "re", "im"])
    def test_non_finite_grid_rejected(self, column, bad):
        # a NaN passes every ordering test, and an inf breaks the
        # interpolant without an error of its own
        cols = [list(TAB_Q), list(TAB_RE), list(TAB_IM)]
        cols[column][2] = bad
        with pytest.raises(ValueError, match="finite"):
            TabulatedBorn(*cols, TAB_M, TAB_KAPPA)

    def test_overflowing_grid_rejected(self):
        # finite values whose secant slope overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflow"):
                TabulatedBorn([0.0, 1e-10, 1.0], [1e300, -1e300, 5e299],
                              [0.0] * 3, 2e300, 1e-3)

    @pytest.mark.parametrize("m,kappa", [(math.inf, TAB_KAPPA),
                                         (TAB_M, math.inf),
                                         (math.nan, TAB_KAPPA)],
                             ids=["m", "kappa", "m-nan"])
    def test_non_finite_envelope_rejected(self, m, kappa):
        # an infinite M passes every grid check, and q_cutoff then
        # divides by zero
        with pytest.raises(ValueError, match="finite"):
            TabulatedBorn(TAB_Q, TAB_RE, TAB_IM, m, kappa)

    def test_chi_closed_absent(self):
        assert make_tabulated().chi_closed() is None


class TestOnePhase:
    def test_phase_of_each_kind(self):
        assert GaussianBorn(1.0, 1.0).phase == 1j
        assert ExponentialPoleBorn(1.0, 1.0).phase == 1j
        assert TabulatedBorn(TAB_Q, TAB_RE, [0.0] * 5, TAB_M,
                             TAB_KAPPA).phase == 1
        assert TabulatedBorn(TAB_Q, [0.0] * 5, TAB_RE, TAB_M,
                             TAB_KAPPA).phase == 1j
        assert make_tabulated().phase is None

    @pytest.mark.parametrize("columns", [
        (TAB_RE, [0.0] * 5),
        ([0.0] * 5, [-v for v in TAB_RE]),
    ], ids=["real", "pure_imaginary"])
    def test_one_column_bitwise_as_two(self, columns):
        # a one-phase table interpolates only its nonzero column; a(q)
        # must keep every bit of the two-column evaluation, inside the
        # grid and in the exponential tail, down to the sign of each
        # zero part (hence a negative column)
        re, im = (np.asarray(c) for c in columns)
        m = TabulatedBorn(TAB_Q, re, im, TAB_M, TAB_KAPPA)
        rng = np.random.default_rng(31)
        q = np.concatenate([rng.uniform(0.0, 2.0, 4000),
                            rng.uniform(2.0, 9.0, 4000), TAB_Q])
        re_p = PchipInterpolator(TAB_Q, re, extrapolate=False)
        im_p = PchipInterpolator(TAB_Q, im, extrapolate=False)
        mag = np.hypot(re, im)
        kappa_tail = math.log(mag[-2] / mag[-1]) / (TAB_Q[-1] - TAB_Q[-2])
        inside = q <= TAB_Q[-1]
        expect = np.empty(q.shape, dtype=complex)
        expect[inside] = re_p(q[inside]) + 1j * im_p(q[inside])
        expect[~inside] = complex(re[-1], im[-1]) * np.exp(
            -kappa_tail * (q[~inside] - TAB_Q[-1]))
        got = m.reduced(q)
        assert got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()


def random_column(rng, n):
    """n values with sign changes, and in most draws a flat run, a -0.0
    or two zeros in a row."""
    y = rng.normal(size=n)
    pick = rng.integers(4)
    j = rng.integers(n - 1)
    if pick == 1:
        y[j + 1] = y[j]
    elif pick == 2:
        y[j] = -0.0
    elif pick == 3:
        y[j:j + 2] = 0.0
    return y


def random_grid(rng, n):
    """n non-uniform knots from q = 0, spacings 50x apart at most."""
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.04, 2.0, n - 1))])


def random_table(rng, n, kind):
    """A valid (q, Re, Im, M, kappa) of n nodes: |a| falls over the last
    interval, and the envelope is the tightest M at half the tail's
    decay rate."""
    q = random_grid(rng, n)
    re, im = random_column(rng, n), random_column(rng, n)
    for col in (re, im):
        col[-2] += math.copysign(1.0, col[-2])
        col[-1] = col[-2] * rng.uniform(0.2, 0.8)
    if kind == "real":
        im[:] = 0.0
    elif kind == "imaginary":
        re[:] = 0.0
    mag = np.hypot(re, im)
    kappa = 0.5 * math.log(mag[-2] / mag[-1]) / (q[-1] - q[-2])
    return q, re, im, 1.01 * float(np.max(mag * np.exp(kappa * q))), kappa


def scipy_reduced(q, grid, re, im):
    """a(q) as TabulatedBorn formed it on scipy's PchipInterpolator."""
    re_p, im_p = (PchipInterpolator(grid, col, extrapolate=False)
                  if col.any() else None for col in (re, im))
    mag = np.hypot(re, im)
    kappa_tail = math.log(mag[-2] / mag[-1]) / (grid[-1] - grid[-2])
    inside = q <= grid[-1]
    out = np.empty(q.shape, dtype=complex)
    out[inside] = ((0.0 if re_p is None else re_p(q[inside]))
                   + 1j * (0.0 if im_p is None else im_p(q[inside])))
    out[~inside] = complex(re[-1], im[-1]) * np.exp(
        -kappa_tail * (q[~inside] - grid[-1]))
    return out


class TestPchipAgainstScipy:
    """eikamp's PCHIP is scipy's arithmetic without scipy.interpolate:
    coefficients and a(q) must equal scipy's bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_coefficients_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        for n in [3] * 20 + list(range(4, 13)) * 5:
            x, y = random_grid(rng, n), random_column(rng, n)
            want = PchipInterpolator(x, y).c
            got = _pchip(x, y)
            assert got.shape == want.shape == (4, n - 1)
            assert got.tobytes() == want.tobytes(), (x, y)

    @pytest.mark.parametrize("kind", ["real", "imaginary", "complex"])
    @pytest.mark.parametrize("seed", range(3))
    def test_reduced_bitwise(self, kind, seed):
        # at the knots, inside the grid, at its end and in the tail, on a
        # flat array and on the (segments, 15) node arrays A3 passes
        rng = np.random.default_rng(100 * seed + len(kind))
        for n in [3] * 5 + list(range(4, 13)):
            grid, re, im, m_env, kappa = random_table(rng, n, kind)
            m = TabulatedBorn(grid, re, im, m_env, kappa)
            assert m.phase == {"real": 1, "imaginary": 1j,
                               "complex": None}[kind]
            end = grid[-1]
            flat = np.concatenate([grid, rng.uniform(0.0, end, 300),
                                   [end, np.nextafter(end, 0.0),
                                    np.nextafter(end, np.inf)],
                                   rng.uniform(end, 3.0 * end, 100)])
            nodes = rng.uniform(0.0, 1.5 * end, (40, 15))
            nodes[0, :n] = grid
            for q in (flat, nodes):
                got, want = m.reduced(q), scipy_reduced(q, grid, re, im)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (grid, re, im)
            for qs in grid[::2]:
                assert m.reduced(qs) == scipy_reduced(np.array([qs]), grid,
                                                      re, im)[0]


class TestEnvelopeContract:
    @pytest.mark.parametrize("model", [
        GaussianBorn(g=2.0, lam=1.3),
        ExponentialPoleBorn(c=1.1, slope_b=0.7),
        make_tabulated(),
    ], ids=["gaussian", "exponential_pole", "tabulated"])
    def test_envelope_dominates_everywhere(self, model):
        # including the extrapolated tail region of the tabulated family
        hi = 1.5 * model.q_cutoff(1e-10)
        qs = np.linspace(0.0, hi, 400)
        assert np.all(np.abs(model.reduced(qs))
                      <= model.envelope(qs) * (1.0 + 1e-9))

    @pytest.mark.parametrize("model", [
        GaussianBorn(g=2.0, lam=1.3),
        ExponentialPoleBorn(c=1.1, slope_b=0.7),
        make_tabulated(),
    ], ids=["gaussian", "exponential_pole", "tabulated"])
    def test_cutoff_inverts_envelope(self, model):
        for thr in (1e-3, 1e-8):
            qc = model.q_cutoff(thr)
            assert model.envelope(qc) == pytest.approx(thr, rel=1e-10)
        assert model.q_cutoff(1e9) == 0.0


class TestLoadModel:
    def test_gaussian_roundtrip(self, tmp_path):
        p = tmp_path / "gauss.ini"
        p.write_text("[model]\nkind = gaussian\ng = 2.0\nlambda = 1.3\n")
        m = load_model(p)
        assert isinstance(m, GaussianBorn)
        assert (m.g, m.lam) == (2.0, 1.3)

    def test_exponential_roundtrip(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text("[model]\nkind = exponential_pole\nc = 1.1\n"
                     "b_slope = 0.7\n")
        m = load_model(p)
        assert isinstance(m, ExponentialPoleBorn)
        assert (m.c, m.slope_b) == (1.1, 0.7)

    def test_tabulated_roundtrip(self, tmp_path):
        rows = "\n".join(f"    {q} {re} {im}"
                         for q, re, im in zip(TAB_Q, TAB_RE, TAB_IM))
        p = tmp_path / "tab.ini"
        p.write_text(f"[model]\nkind = tabulated\npoints =\n{rows}\n"
                     f"\n[envelope]\nm = {TAB_M}\nkappa = {TAB_KAPPA}\n")
        m = load_model(p)
        assert isinstance(m, TabulatedBorn)
        ref = make_tabulated()
        qs = np.linspace(0.0, 3.0, 50)
        assert np.allclose(m.reduced(qs), ref.reduced(qs), rtol=0.0,
                           atol=1e-15)

    def test_kind_case_and_whitespace(self, tmp_path):
        p = tmp_path / "g.ini"
        p.write_text("[model]\nkind =  GAUSSIAN \ng = 1.0\nlambda = 1.0\n")
        assert isinstance(load_model(p), GaussianBorn)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError, match="cannot read"):
            load_model(tmp_path / "absent.ini")

    def test_parse_error(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("this is not an ini file\n")
        with pytest.raises(ModelFileError, match="parse error"):
            load_model(p)

    def test_missing_model_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[envelope]\nm = 1.0\nkappa = 1.0\n")
        with pytest.raises(ModelFileError, match=r"missing \[model\]"):
            load_model(p)

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nkind = yukawa\n")
        with pytest.raises(ModelFileError, match="unknown kind"):
            load_model(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nkind = gaussian\ng = 1.0\n")
        with pytest.raises(ModelFileError, match="missing key 'lambda'"):
            load_model(p)

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nkind = gaussian\ng = strong\nlambda = 1.0\n")
        with pytest.raises(ModelFileError, match="not a number"):
            load_model(p)

    def test_tabulated_missing_points(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nkind = tabulated\n\n[envelope]\nm = 1.0\n"
                     "kappa = 1.0\n")
        with pytest.raises(ModelFileError, match="needs 'points'"):
            load_model(p)

    def test_tabulated_empty_points(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nkind = tabulated\npoints =\n\n[envelope]\n"
                     "m = 1.0\nkappa = 1.0\n")
        with pytest.raises(ModelFileError, match="at least 3 points"):
            load_model(p)

    def test_tabulated_short_row(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nkind = tabulated\npoints =\n    0.0 1.0\n"
                     "\n[envelope]\nm = 1.0\nkappa = 1.0\n")
        with pytest.raises(ModelFileError, match="needs 'q re im'"):
            load_model(p)

    def test_tabulated_non_numeric_row(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nkind = tabulated\npoints =\n    0.0 x 1.0\n"
                     "\n[envelope]\nm = 1.0\nkappa = 1.0\n")
        with pytest.raises(ModelFileError, match="non-numeric points row"):
            load_model(p)

    def test_tabulated_missing_envelope(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nkind = tabulated\npoints =\n    0.0 1.0 0.0\n"
                     "    1.0 0.5 0.0\n    2.0 0.2 0.0\n")
        with pytest.raises(ModelFileError, match=r"\[envelope\]"):
            load_model(p)

    def test_constructor_errors_are_wrapped(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nkind = gaussian\ng = -1.0\nlambda = 1.0\n")
        with pytest.raises(ModelFileError, match="invalid model parameters"):
            load_model(p)


def readme_model_files():
    """Every model file printed in the README, verbatim: the indented
    block after 'Model files are INI:', split at each [model] header."""
    lines = README.read_text(encoding="utf-8").splitlines()
    code = []
    for ln in lines[lines.index("Model files are INI:") + 1:]:
        if ln and not ln.startswith("    "):
            break
        code.append(ln[4:])
    return ["[model]" + part for part in "\n".join(code).split("[model]")[1:]]


class TestReadmeModelFiles:
    def test_every_readme_model_file_loads(self, tmp_path):
        files = readme_model_files()
        kinds = []
        for i, text in enumerate(files):
            path = tmp_path / f"readme{i}.ini"
            path.write_text(text, encoding="utf-8")
            kinds.append(load_model(path).kind)
        assert kinds == [BornKind.GAUSSIAN, BornKind.EXPONENTIAL_POLE,
                         BornKind.TABULATED]

    def test_inline_comments_are_not_values(self, tmp_path):
        path = tmp_path / "g.ini"
        path.write_text("[model]\nkind = gaussian  # A_B = i g s ...\n"
                        "g = 2.0  ; coupling\nlambda = 1.0\n")
        m = load_model(path)
        assert (m.g, m.lam) == (2.0, 1.0)


_IMPORT_PROBE = """\
import sys

from eikamp.besselprod import f3_eval, f4_eval, f5_eval, f6_eval
from eikamp.cli import main

*models, out = sys.argv[1:]
for model in models:
    code = main(["table", "--model", model, "--s", "50", "--t-min", "-1",
                 "--t-max", "-1", "--points", "1", "--rel-tol", "1e-2",
                 "--out", out])
    assert code == 0, code
f3_eval(3.0, 4.0, 5.0)
f4_eval(1.0, 0.9, 1.1, 1.4)
f5_eval(1.0, 1.2, 0.9, 1.1, 1.3)
f6_eval(1.0, 1.2, 0.9, 1.1, 1.3, 0.8)
assert "scipy.interpolate" not in sys.modules
"""


class TestImportGraph:
    def test_no_path_loads_scipy_interpolate(self, tmp_path):
        # a fresh interpreter: this module imports scipy.interpolate
        # itself.  Every model kind runs one table row, the table's
        # PCHIP and chi gate included
        paths = []
        for name, text in zip(("gauss", "pole", "tab"),
                              readme_model_files()):
            path = tmp_path / f"{name}.ini"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(eikamp.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *paths,
             str(tmp_path / "table.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
