"""Eikonal pipeline: phase profile, smallness gate, amplitude terms,
assembly, and the cross section.

The Gaussian Born family makes every stage checkable in closed form:
with chi0 = g lam^2 / (4 pi) the three terms are

    a1 = i g s exp(t / 2 lam^2)
    a2 = -pi s chi0^2 / lam^2 exp(t / 4 lam^2)
    a3 = -i 2 pi s chi0^3 / (9 lam^2) exp(t / 6 lam^2)

and the exponential-pole family maps onto the same shapes under
lam^2 -> 1 / (2 B).
"""

import functools
import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eikamp.eikonal import (
    AmplitudeTerms,
    assemble_amplitude,
    build_profile,
    compute_terms,
    diff_cross_section,
    eikonal_chi,
)
from eikamp.besselprod import _delta4_sq_values, _f4_values
from eikamp import eikonal as eikonal_module
from eikamp import quadrature as quadrature_module
from eikamp import models as models_module
from eikamp.eikonal import (_A2Hat, _a2_cap, _a2_with_error, _a3_g_route,
                             _a3_with_error, _chebyshev_tail, _lobatto,
                             _lobatto_weights, _node_error_bound,
                             _x3_breakpoints)
from eikamp.exceptions import ChiGateError, NonConvergenceError
from eikamp.models import (
    ExponentialPoleBorn,
    GaussianBorn,
    Kinematics,
    TabulatedBorn,
)
from eikamp.quadrature import (IntegralResult, QuadratureConfig,
                               _InheritedError, _iterated, _limits)
from helpers import (a2hat_full_plane_nodes, decompose_a3_domain,
                     integrate_nested)

CHI_TIGHT = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-16)

README = Path(__file__).resolve().parents[1] / "README.md"
REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.py"


def a2_at(m, kin, cfg):
    """A2 and its error at one (s, t), a one-row solve."""
    (v,), (e,) = _a2_with_error(m, [kin], cfg)
    return v, e


def a3_at(m, kin, cfg, a2hat):
    """A3, its error and its evaluations at one (s, t), a one-row solve
    on the build ``a2hat``."""
    (v,), (e,), evals = _a3_with_error(m, [kin], cfg, a2hat)
    return v, e, evals


def a2_row(m, kin, cfg=None):
    """A2 at one (s, t), as a table row computes it."""
    return complex(a2_at(m, kin, cfg or QuadratureConfig())[0])


def a3_row(m, kin, cfg=None):
    """A3, its error and its evaluations at one (s, t), given a build of
    A2 / s of its own."""
    cfg = cfg or QuadratureConfig()
    return a3_at(m, kin, cfg, _A2Hat(m, cfg))


def gaussian_with_chi0(chi0, lam=1.0):
    return GaussianBorn(g=4.0 * math.pi * chi0 / lam ** 2, lam=lam)


def closed_a2(model, kin):
    chi0, lam = model.chi0, model.lam
    return -math.pi * kin.s * chi0 ** 2 / lam ** 2 * math.exp(
        kin.t / (4.0 * lam ** 2))


def closed_a3(model, kin):
    chi0, lam = model.chi0, model.lam
    return -2j * math.pi * kin.s * chi0 ** 3 / (9.0 * lam ** 2) * math.exp(
        kin.t / (6.0 * lam ** 2))


def without_closed_chi(monkeypatch, model):
    """The model with its closed chi withheld, so that eikonal_chi takes
    the quadrature route."""
    monkeypatch.setattr(model, "chi_closed", lambda: None)
    return model


# (q, Re a, Im a) rows of the bench table and of a table whose amplitude
# changes sign
REAL_ROWS = ((0.0, 1.0, 0.0), (0.5, 0.87, 0.0), (1.0, 0.55, 0.0),
             (1.5, 0.28, 0.0), (2.0, 0.12, 0.0))
SIGN_CHANGING_ROWS = tuple(
    (0.5 * i, a, 0.0)
    for i, a in enumerate([1.0, 0.7, 0.25, -0.1, -0.15, -0.08, -0.03]))


def real_tabulated():
    return TabulatedBorn(*zip(*REAL_ROWS), 2.1, 1.2)


def imaginary_tabulated():
    return TabulatedBorn([0.0, 0.5, 1.0, 1.5, 2.0],
                         [0.0, 0.0, 0.0, 0.0, 0.0],
                         [1.0, 0.87, 0.55, 0.28, 0.12], 2.1, 1.2)


def general_tabulated():
    return TabulatedBorn([0.0, 0.5, 1.0, 1.5, 2.0],
                         [1.0, 0.87, 0.55, 0.28, 0.12],
                         [0.1, 0.087, 0.055, 0.028, 0.012], 2.2, 1.2)


def sign_changing_tabulated():
    return TabulatedBorn(*zip(*SIGN_CHANGING_ROWS), 1.1, 0.9)


def nonuniform_tabulated():
    """A 7-knot table on a non-uniform grid whose amplitude changes
    sign."""
    return TabulatedBorn([0.0, 0.3, 0.84, 2.02, 2.32, 3.14, 3.48],
                         [0.2475, 0.1686, -0.0371, -0.0311, 0.0192, 0.0419,
                          0.0144], np.zeros(7), 0.25, 0.41)


def oscillating_tabulated(f, scale=1.0):
    """``scale`` times a 13-knot table of r = 0.9 e^(-5q) cos(5 f q) on
    q in [0, 1.2], under the envelope ``scale`` e^(-5q).  Its chi peaks
    away from b = 0, at b = 12.45 for f = 2.2.  Where the last two knots
    would fit a tail slower than the envelope, the last value is set to
    fall at the rate 6 from the one before."""
    q = np.linspace(0.0, 1.2, 13)
    r = 0.9 * np.exp(-5.0 * q) * np.cos(5.0 * f * q)
    if abs(r[-1]) > abs(r[-2]) * math.exp(-0.5):
        r[-1] = r[-2] * math.exp(-0.6)
    return TabulatedBorn(q, scale * r, np.zeros(13), scale, 5.0)


def bench_references():
    """bench/references.py, which computes a table's A2 and A3 apart
    from eikamp, loaded read-only by path."""
    spec = importlib.util.spec_from_file_location("_bench_references",
                                                  REFERENCES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def gate_bs(model):
    """The b values of build_profile's peak scan: 0 and 40 from 0.1 / w
    to 8 / w, w the width over which the envelope falls by e."""
    w = model.q_cutoff(float(model.envelope(0.0)) / math.e)
    return np.concatenate([[0.0], np.geomspace(0.1 / w, 8.0 / w, 40)])


@pytest.fixture(scope="module")
def terms_03():
    """Pipeline result at chi0 = 0.3, s = 50, t = -1 (module-shared)."""
    model = gaussian_with_chi0(0.3)
    kin = Kinematics(s=50.0, t=-1.0)
    return model, kin, compute_terms(model, kin)


class TestEikonalChi:
    def test_peak_value_unit_coupling(self):
        # chi(b=0) = i/(4 pi) for g = lam = 1
        m = GaussianBorn(g=1.0, lam=1.0)
        assert eikonal_chi(m, 100.0, 0.0) == pytest.approx(
            1j / (4.0 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("model", [
        GaussianBorn(g=1.0, lam=1.0),
        ExponentialPoleBorn(c=1.1, slope_b=0.7),
    ], ids=["gaussian", "exponential_pole"])
    def test_closed_form_matches_quadrature(self, monkeypatch, model):
        bs = (0.0, 0.5, 1.0, 2.0, 5.0)
        closed = [eikonal_chi(model, 100.0, b) for b in bs]
        without_closed_chi(monkeypatch, model)
        for b, want in zip(bs, closed):
            quad = eikonal_chi(model, 100.0, b, CHI_TIGHT)
            assert abs(quad - want) <= 1e-8 * abs(want)

    def test_vectorized_and_scalar(self):
        m = GaussianBorn(g=1.0, lam=1.0)
        bs = np.array([0.0, 1.0, 2.0])
        arr = eikonal_chi(m, 100.0, bs)
        assert arr.shape == (3,)
        assert arr[1] == eikonal_chi(m, 100.0, 1.0)

    def test_negative_b_rejected(self, monkeypatch):
        m = without_closed_chi(monkeypatch, GaussianBorn(g=1.0, lam=1.0))
        with pytest.raises(ValueError):
            eikonal_chi(m, 100.0, -0.5)

    @pytest.mark.parametrize("cfg", [
        QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6), QuadratureConfig(),
    ], ids=["rel1e-3", "default"])
    @pytest.mark.parametrize("make", [
        real_tabulated, general_tabulated, sign_changing_tabulated,
    ], ids=["real", "complex", "sign_changing"])
    def test_array_bitwise_as_scalar_calls(self, monkeypatch, make, cfg):
        # an array of b is one solve, and each b's task is refined as it
        # would be alone: same chi bits, same model evaluations
        m = make()
        points = [0]

        def counted(q):
            points[0] += np.size(q)
            return TabulatedBorn.reduced(m, q)

        monkeypatch.setattr(m, "reduced", counted)
        bs = gate_bs(m)
        arr = eikonal_chi(m, 50.0, bs, cfg)
        n_arr, points[0] = points[0], 0
        one = np.array([eikonal_chi(m, 50.0, b, cfg) for b in bs])
        assert points[0] == n_arr
        assert arr.dtype == one.dtype == complex
        assert arr.tobytes() == one.tobytes()

    def test_tabulated_scalar_is_complex_and_shape_kept(self):
        m = real_tabulated()
        chi = eikonal_chi(m, 50.0, 0.7)
        assert type(chi) is complex
        bs = np.array([[0.0, 0.7, 3.0], [1.0, 2.0, 12.0]])
        grid = eikonal_chi(m, 50.0, bs)
        assert grid.shape == (2, 3)
        assert grid[0, 1] == chi

    def test_negative_b_in_array_rejected(self):
        # NaN and inf are refused like a negative b, scalar or in an array
        m = real_tabulated()
        for bad in (-1e-3, math.inf, math.nan):
            with pytest.raises(ValueError, match="b must be >= 0"):
                eikonal_chi(m, 50.0, np.array([0.0, 1.0, bad, 2.0]))
            with pytest.raises(ValueError, match="b must be >= 0"):
                eikonal_chi(m, 50.0, bad)

    @pytest.mark.parametrize("model", [
        GaussianBorn(g=1.0, lam=1.0), ExponentialPoleBorn(c=1.1, slope_b=0.7),
    ], ids=["gaussian", "exponential_pole"])
    @pytest.mark.parametrize("b", [
        -1.0, math.nan, math.inf, np.array([0.5, -1.0]),
        np.array([0.5, math.nan]),
    ], ids=["negative", "nan", "inf", "negative_in_array", "nan_in_array"])
    def test_closed_route_checks_b(self, model, b):
        # the closed form would return chi(|b|) for a negative b and nan
        # for a NaN b; it refuses them as the quadrature route does
        with pytest.raises(ValueError, match="impact parameter"):
            eikonal_chi(model, 50.0, b)

    def test_tabulated_chi_needs_no_graded_edges(self, monkeypatch):
        # the chi integrand is smooth at q = 0, the J0 half-periods and the
        # knots: plain panels give the graded value in fewer evaluations
        m = real_tabulated()
        points = [0]

        def counted(q):
            points[0] += np.size(q)
            return TabulatedBorn.reduced(m, q)

        monkeypatch.setattr(m, "reduced", counted)

        def chi_and_points(b):
            points[0] = 0
            return eikonal_chi(m, 50.0, b), points[0]

        def graded(f, levels, *args, **kwargs):
            return _iterated(f, [(edges, "sqrt", weight)
                                 for edges, _, weight in levels],
                             *args, **kwargs)

        bs = (0.0, 0.7, 3.0, 12.0)
        plain = [chi_and_points(b) for b in bs]
        monkeypatch.setattr(eikonal_module, "_iterated", graded)
        graded = [chi_and_points(b) for b in bs]
        for (v, n), (vg, ng) in zip(plain, graded):
            assert abs(v - vg) <= 1e-12
            assert n < ng

    def test_b_beyond_the_panel_cover_still_converges(self):
        # the bench table's q_cut is 30.70, so 4,000 J0 panels cover
        # b <= 409; at b = 1000 the capped row still converges
        chi = eikonal_chi(real_tabulated(), 50.0, 1000.0)
        assert abs(chi) < 1e-10

    def test_b_beyond_the_panel_cover_names_itself(self):
        # at b = 3000 the capped row does not converge: the error names
        # the b, the panels it needs and the range that 4,000 cover
        with pytest.raises(NonConvergenceError,
                           match=r"b = 3000 .* needs 29317 J0 panels .* "
                                 r"4000 cover b <= 409\.3"):
            eikonal_chi(real_tabulated(), 50.0, 3000.0)


class TestChiGate:
    def test_quiet_below_half(self):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            prof = build_profile(gaussian_with_chi0(0.3), 50.0)
        assert prof.max_abs_chi == pytest.approx(0.3, rel=1e-12)

    def test_warns_in_window(self):
        with pytest.warns(UserWarning, match="truncation"):
            prof = build_profile(gaussian_with_chi0(0.6), 50.0)
        assert prof.max_abs_chi == pytest.approx(0.6, rel=1e-12)

    def test_refuses_above_one(self):
        with pytest.raises(ChiGateError, match="moderately small"):
            build_profile(gaussian_with_chi0(1.5), 50.0)

    def test_override_proceeds_with_warning(self):
        with pytest.warns(UserWarning, match="override"):
            prof = build_profile(gaussian_with_chi0(1.5), 50.0,
                                 override_chi_gate=True)
        assert prof.max_abs_chi == pytest.approx(1.5, rel=1e-12)

    def test_hard_limit_ignores_override(self):
        with pytest.raises(ChiGateError, match="refusing even"):
            build_profile(gaussian_with_chi0(2.5), 50.0,
                          override_chi_gate=True)

    def test_compute_terms_is_gated(self):
        with pytest.raises(ChiGateError):
            compute_terms(gaussian_with_chi0(1.2), Kinematics(s=50.0, t=-1.0))

    @pytest.mark.parametrize("call", [
        lambda m: build_profile(m, 50.0),
        lambda m: compute_terms(m, Kinematics(s=50.0, t=-1.0),
                                QuadratureConfig(rel_tol=1e-3, abs_tol=1e-8)),
    ], ids=["build_profile", "compute_terms"])
    def test_warning_names_the_caller(self, call):
        # the gate's warning points at the first frame outside eikamp,
        # however deep in the package it is issued
        with pytest.warns(UserWarning, match="truncation") as caught:
            call(gaussian_with_chi0(0.6))
        assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("model", [
        gaussian_with_chi0(0.3), ExponentialPoleBorn(c=1.1, slope_b=0.7),
    ], ids=["gaussian", "exponential_pole"])
    def test_profile_cutoff_reaches_decay_level(self, model):
        # the closed inversion lands on the 1e-12 level, not beyond it
        prof = build_profile(model, 50.0)
        assert 5e-13 <= abs(prof.chi(prof.b_cutoff)) <= 2e-12
        assert abs(prof.chi(0.0)) == pytest.approx(prof.max_abs_chi,
                                                   rel=1e-12)

    def test_tabulated_profile_is_one_solve(self, monkeypatch):
        # the peak scan's 41 b enter the engine once, as one nest of one
        # batched solve
        nests, solves = [], []

        def nest(*args, **kwargs):
            nests.append(kwargs["outer"])
            return _iterated(*args, **kwargs)

        def solve(*args, **kwargs):
            solves.append(len(args[1]))
            return solve_batched(*args, **kwargs)

        solve_batched = quadrature_module._solve_batched
        monkeypatch.setattr(eikonal_module, "_iterated", nest)
        monkeypatch.setattr(quadrature_module, "_solve_batched", solve)
        m = real_tabulated()
        prof = build_profile(m, 50.0)
        assert [len(b) for (b,) in nests] == [41] and solves == [41]
        assert prof.max_abs_chi == np.abs(eikonal_chi(m, 50.0,
                                                      gate_bs(m))).max()

    def test_tabulated_profile_scanned(self):
        m = real_tabulated()
        prof = build_profile(m, 50.0)
        chi0 = eikonal_chi(m, 50.0, 0.0, CHI_TIGHT)
        assert prof.max_abs_chi == pytest.approx(abs(chi0), rel=1e-6)
        assert prof.b_cutoff > 0.0

    @pytest.mark.parametrize("f", [2.2, 4.0, 6.0])
    def test_scan_finds_an_off_axis_peak(self, f):
        # chi varies in b on the scale kappa = 5, and these tables peak at
        # b = 12 to 33: the scan reads at least 0.9 of the largest |chi|
        # of a linear scan out to b = 60
        m = oscillating_tabulated(f)
        peak = np.abs(eikonal_chi(m, 50.0, np.linspace(0.0, 60.0, 401)))
        assert build_profile(m, 50.0).max_abs_chi >= 0.9 * peak.max()

    def test_an_off_axis_peak_warns(self):
        # scaled by 1040, the f = 2.2 table peaks at |chi| = 0.549 near
        # b = 12.45, in the warning window, while |chi(0)| is 0.29
        with pytest.warns(UserWarning, match="truncation"):
            prof = build_profile(oscillating_tabulated(2.2, 1040.0), 50.0)
        assert 0.5 <= prof.max_abs_chi <= 0.549


class TestA1:
    def test_equals_born_amplitude(self):
        m = gaussian_with_chi0(0.2)
        kin = Kinematics(s=50.0, t=-1.0)
        expect = 1j * m.g * kin.s * math.exp(kin.t / (2.0 * m.lam ** 2))
        terms = compute_terms(m, kin, QuadratureConfig(rel_tol=1e-3))
        assert terms.a1 == pytest.approx(expect, rel=1e-14)


class TestA2:
    def test_gaussian_closed_form(self):
        kin = Kinematics(s=50.0, t=-1.0)
        for chi0 in (0.1, 0.3):
            m = gaussian_with_chi0(chi0)
            assert a2_row(m, kin) == pytest.approx(closed_a2(m, kin),
                                                   rel=1e-8)

    def test_exponential_pole_closed_form(self):
        # lam^2 -> 1/(2B): a2 = -2 pi B s chi0^2 exp(t B / 2)
        m = ExponentialPoleBorn(c=1.1, slope_b=0.7)
        kin = Kinematics(s=50.0, t=-1.0)
        expect = (-2.0 * math.pi * 0.7 * kin.s * m.chi0 ** 2
                  * math.exp(kin.t * 0.7 / 2.0))
        assert a2_row(m, kin) == pytest.approx(expect, rel=1e-8)

    def test_forward_limit_finite(self):
        # the -t prefactor cancels against the widening integration range
        m = gaussian_with_chi0(0.2)
        kin = Kinematics(s=50.0, t=-1e-6)
        assert a2_row(m, kin) == pytest.approx(closed_a2(m, kin), rel=1e-6)

    def test_full_angular_range_doubles_half_range(self):
        # the integrand is even in the angular variable, so the production
        # half-range integral is exactly half the symmetric one
        m = gaussian_with_chi0(0.2)
        qt = 1.0

        def integrand(u, v):
            ch = np.cosh(u)
            sv = np.sin(v)
            return ((ch * ch - sv * sv) * m.reduced(0.5 * qt * (ch + sv))
                    * m.reduced(0.5 * qt * (ch - sv)))

        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)
        full = integrate_nested(integrand, [(0.0, 6.0),
                                            (-0.5 * math.pi, 0.5 * math.pi)],
                                cfg)
        half = integrate_nested(integrand, [(0.0, 6.0), (0.0, 0.5 * math.pi)],
                                cfg)
        assert full.value == pytest.approx(2.0 * half.value, rel=1e-9)


class TestA3:
    def test_gaussian_closed_form(self):
        m = gaussian_with_chi0(0.2)
        kin = Kinematics(s=50.0, t=-1.0)
        assert a3_row(m, kin)[0] == pytest.approx(closed_a3(m, kin), rel=1e-6)

    def test_born_pair_formed_once_per_inner_task(self, monkeypatch):
        # a(qt xp) a(qt xm) is fixed along x3: the model sees one point per
        # inner node plus two per middle node, not three per inner node,
        # and every inner node does pass through it
        m = gaussian_with_chi0(0.2)
        points = [0]

        def counted(q):
            points[0] += np.size(q)
            return GaussianBorn.reduced(m, q)

        monkeypatch.setattr(m, "reduced", counted)
        cfg = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-10)
        _value, _err, inner = _a3_g_route(m, Kinematics(s=50.0, t=-1.0),
                                          cfg)
        assert inner > 0
        assert inner <= points[0] <= 1.1 * inner

    def test_dyadic_x1_panels_spend_no_outer_bisection(self):
        # A3's x1 axis starts from the slabs [0, 1], [1, 2], [2, 4], ...,
        # so no middle integral is spent on a bisection parent, and the
        # later slabs run at A3's tolerance rather than their own: the
        # README Gaussian's three bench points take at most 820k inner
        # points (2.36M when x1 started from one panel, 1.43M when each of
        # the five blocks held its own relative tolerance, 1.00M with the
        # five blocks at A3's, 950k while the x3 axis's quartic segments
        # took QUADPACK's scaled error, 774k with it capped at
        # |K15 - G7|), stay at the closed form and report errors within
        # the requested tolerance
        m = GaussianBorn(g=2.51, lam=1.0)
        total = 0
        for t in (-2.0, -1.125, -0.25):
            kin = Kinematics(s=50.0, t=t)
            value, err, n = _a3_g_route(m, kin, QuadratureConfig())
            want = closed_a3(m, kin)
            assert abs(value - want) <= min(1e-9 * abs(want), err)
            assert err <= 1e-6 * abs(value)
            total += n
        assert total <= 820_000

    def test_table_knots_cost_no_graded_halves(self):
        # the PCHIP knots of a table are ungraded panel edges on the x3
        # axis: the bench table at s = 50, t = -1, rel 1e-3 / abs 1e-6
        # takes at most 540,000 inner points (668,310 with a graded half
        # on each side of every knot, 479,430 without), stays within its
        # reported error of the graded value and reports within rel 1e-3
        graded = 0.012204815832582892
        value, err, n = _a3_g_route(
            real_tabulated(), Kinematics(s=50.0, t=-1.0),
            QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6))
        assert n <= 540_000
        assert abs(value - graded) <= err
        assert err <= 1e-3 * abs(value)

    def test_later_blocks_take_a_floor_from_the_running_sum(
            self, monkeypatch):
        # A3 runs in the x1 slabs [0, 1], [1, 2], [2, 4], [4, 8], ... up
        # to the x1 cap of abs_tol; slab 1 runs at abs_tol, slab k at
        # max(abs_tol, _SHARE rel_tol |sum of the slabs before it|), and
        # every slab cuts x1 and x3 where the Born envelope product falls
        # below 1e-2 of its own floor
        calls = []
        real = eikonal_module._a3_block

        def block(model, qt, x1_lo, x1_hi, cfg, x3_cap, counters):
            v, e = real(model, qt, x1_lo, x1_hi, cfg, x3_cap, counters)
            calls.append((x1_lo, x1_hi, cfg, x3_cap, v))
            return v, e

        monkeypatch.setattr(eikonal_module, "_a3_block", block)
        for m, t, cfg in ((GaussianBorn(g=2.51, lam=1.0), -0.25,
                           QuadratureConfig()),
                          (real_tabulated(), -1.0,
                           QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6))):
            calls.clear()
            kin = Kinematics(s=50.0, t=t)
            value, err, _ = _a3_g_route(m, kin, cfg)
            assert err <= cfg.rel_tol * abs(value)
            env0 = float(m.envelope(0.0))

            def caps(floor):
                q_far = m.q_cutoff(min(floor * 1e-2 / env0 ** 2,
                                       0.5 * env0))
                return max(2.0 * q_far / kin.q, 4.0), max(q_far / kin.q, 4.0)

            x1_cap = caps(cfg.abs_tol)[0]
            edges = [0.0, 1.0] + [2.0 ** k for k in range(1, 64)
                                  if 2.0 ** k < x1_cap] + [x1_cap]
            assert len(edges) >= 6
            assert len(calls) == len(edges) - 1
            running = 0.0
            for k, (x1_lo, x1_hi, bcfg, x3_cap, v) in enumerate(calls):
                floor = max(cfg.abs_tol,
                            eikonal_module._SHARE * cfg.rel_tol * abs(running))
                assert bcfg.abs_tol == floor
                assert bcfg.rel_tol == cfg.rel_tol
                assert (floor == cfg.abs_tol) == (k == 0)
                assert x1_lo == edges[k]
                assert x1_hi == min(edges[k + 1], caps(floor)[0])
                assert x3_cap == caps(floor)[1]
                running += v
            # the last slab stops short of the cap abs_tol gives
            assert calls[-1][1] < x1_cap

    def test_cancelling_later_block_reruns_at_the_floor_of_a3(
            self, monkeypatch):
        # slab [0, 1] is offset by +C and slab [8, .) by -C: the running
        # sum then overstates |A3| 1e4-fold, the later slabs run at floors
        # far too loose for A3 and the last one stops at a cap too short
        # for it, and the check after the sum must rerun every slab once
        # at the floor that A3 itself gives and at the relative tolerance
        # rel_tol |A3| / sum |slab|
        m = GaussianBorn(g=2.51, lam=1.0)
        kin = Kinematics(s=50.0, t=-1.125)
        real = eikonal_module._a3_block
        pref = kin.s * kin.t ** 2 / (96.0 * math.pi ** 2)
        offset = 1e4 * abs(closed_a3(m, kin)) / pref
        calls = []

        def block(model, qt, x1_lo, x1_hi, cfg, x3_cap, counters):
            v, e = real(model, qt, x1_lo, x1_hi, cfg, x3_cap, counters)
            v += {0.0: offset, 8.0: -offset}.get(x1_lo, 0.0)
            calls.append((x1_lo, x1_hi, cfg.abs_tol, cfg.rel_tol, v))
            return v, e

        monkeypatch.setattr(eikonal_module, "_a3_block", block)
        cfg = QuadratureConfig()
        v, e, _ = _a3_g_route(m, kin, cfg)
        n = [c[0] for c in calls[1:]].index(0.0) + 1
        first, rerun = calls[:n], calls[n:]
        assert [c[0] for c in rerun] == [c[0] for c in first]
        assert min(c[2] for c in first[1:]) > 1e3 * cfg.abs_tol
        assert first[-1][1] < rerun[-1][1]
        raw = abs(v) / pref
        floor = max(cfg.abs_tol, eikonal_module._SHARE * cfg.rel_tol * raw)
        rel = cfg.rel_tol * raw / sum(abs(c[4]) for c in first)
        for _lo, _hi, abs_tol, rel_tol, _v in rerun:
            assert abs_tol == pytest.approx(floor, rel=1e-6)
            assert rel_tol == pytest.approx(rel, rel=1e-6)
        assert e <= max(cfg.abs_tol, cfg.rel_tol * abs(v))
        assert abs(v - closed_a3(m, kin)) <= e
        calls.clear()
        vt, et, _ = _a3_g_route(m, kin, QuadratureConfig(rel_tol=3e-7))
        assert len(calls) == 2 * n
        assert abs(v - vt) <= e + et

    def test_wave_slices_change_no_a3(self, monkeypatch):
        # waves evaluated 16 segments at a time give every value, error
        # and count of whole waves
        cases = [(GaussianBorn(g=2.51, lam=1.0),
                  QuadratureConfig(rel_tol=1e-4)),
                 (real_tabulated(),
                  QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6))]
        kin = Kinematics(s=50.0, t=-1.0)

        def runs():
            return [a3_row(m, kin, cfg) for m, cfg in cases]

        whole = runs()
        monkeypatch.setattr(quadrature_module, "_WAVE_SLICE", 16)
        assert runs() == whole

    def test_tabulated_a3_peak_memory_is_bounded(self):
        # the dyadic x1 start makes the first outer wave about 2.5x wider;
        # evaluated in bounded slices, one A3 of the bench table still
        # peaks below 8 MB (11 MB from one x1 panel and whole waves, 27 MB
        # from dyadic panels and whole waves)
        m = real_tabulated()
        kin = Kinematics(s=50.0, t=-1.0)
        cfg = QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6)
        _a3_g_route(m, kin, cfg)
        tracemalloc.start()
        try:
            _a3_g_route(m, kin, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    @pytest.mark.parametrize("level", [1, 2])
    def test_unconverged_nested_task_raises(self, monkeypatch, level):
        # one middle (level 1) or inner (level 2) task reports failure:
        # A3 must raise rather than sum its partial value
        real = quadrature_module._solve_batched
        depth = [0]
        forced = []

        def solve(*args, **kwargs):
            depth[0] += 1
            try:
                vals, errs, evals, ok = real(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == level and not forced:
                forced.append(ok.size)
                ok = ok.copy()
                ok[0] = False
            return vals, errs, evals, ok

        monkeypatch.setattr(quadrature_module, "_solve_batched", solve)
        cfg = QuadratureConfig(rel_tol=1e-3, abs_tol=1e-8)
        with pytest.raises(NonConvergenceError, match="did not converge"):
            _a3_g_route(gaussian_with_chi0(0.2), Kinematics(s=50.0, t=-1.0),
                        cfg)
        assert forced

    def test_inherited_stop_reruns_inside_the_block(self, monkeypatch):
        # the first middle solve stops on inherited error: its slab must
        # rerun tighter within the same _a3_block call, so the slabs are
        # still called once each, and reach the unforced value
        m = gaussian_with_chi0(0.2)
        kin = Kinematics(s=50.0, t=-1.0)
        cfg = QuadratureConfig(rel_tol=1e-3, abs_tol=1e-8)
        v0, e0, _ = _a3_g_route(m, kin, cfg)
        real_solve = quadrature_module._solve_batched
        real_block = eikonal_module._a3_block
        depth = [0]
        forced = []
        lows = []

        def solve(*args, **kwargs):
            if depth[0] == 1 and not forced:
                forced.append(True)
                raise _InheritedError("forced")
            depth[0] += 1
            try:
                return real_solve(*args, **kwargs)
            finally:
                depth[0] -= 1

        def block(model, qt, x1_lo, *args):
            lows.append(x1_lo)
            return real_block(model, qt, x1_lo, *args)

        monkeypatch.setattr(quadrature_module, "_solve_batched", solve)
        monkeypatch.setattr(eikonal_module, "_a3_block", block)
        v, e, _ = _a3_g_route(m, kin, cfg)
        assert forced
        assert lows == [0.0, 1.0] + [2.0 ** k for k in range(1, len(lows) - 1)]
        assert abs(v - v0) <= e + e0

    def test_sign_changing_table_finishes(self):
        # a table whose Born amplitude dips below zero makes middle
        # x2-integrals cancel; the ladder-era engine ended this point in
        # NonConvergenceError (a middle task bisected to its cap).  It must
        # finish within its tolerance and agree with a tighter run
        m = TabulatedBorn(np.arange(7) * 0.5,
                          [1.0, 0.7, 0.25, -0.1, -0.15, -0.08, -0.03],
                          np.zeros(7), 1.1, 0.9)
        kin = Kinematics(s=50.0, t=-0.5)
        v, e, _ = _a3_g_route(m, kin, QuadratureConfig(rel_tol=1e-3,
                                                       abs_tol=1e-6))
        assert e <= 1e-3 * abs(v)
        vt, et, _ = _a3_g_route(m, kin, QuadratureConfig(rel_tol=3e-4,
                                                         abs_tol=1e-6))
        assert abs(v - vt) <= e + et

    def test_cancelling_slabs_meet_a3_tolerance(self):
        # on the sign-changing table at t = -2 the parts of A3 cancel (the
        # five blocks held +5.2e-4, -1.7e-4, -2.4e-4, -1.9e-5 and +5.0e-4
        # of a raw sum of 5.8e-4): each part meeting rel_tol of its own
        # value left A3 at 1.4e-3 relative, so the check after the sum
        # reruns the slabs at rel_tol |A3| / sum |slab|
        m = TabulatedBorn(np.arange(7) * 0.5,
                          [1.0, 0.7, 0.25, -0.1, -0.15, -0.08, -0.03],
                          np.zeros(7), 1.1, 0.9)
        cfg = QuadratureConfig(rel_tol=1e-3, abs_tol=1e-9)
        v, e, _ = _a3_g_route(m, Kinematics(s=50.0, t=-2.0), cfg)
        assert e <= cfg.rel_tol * abs(v)


# (model, A2/A3 tolerance) for the five kinds of Born input
FIVE_KINDS = [
    pytest.param(lambda: GaussianBorn(g=2.51, lam=1.0), QuadratureConfig(),
                 id="gaussian"),
    pytest.param(lambda: ExponentialPoleBorn(c=1.1, slope_b=0.7),
                 QuadratureConfig(rel_tol=1e-4), id="exponential_pole"),
    pytest.param(real_tabulated, QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6),
                 id="real_table"),
    pytest.param(imaginary_tabulated,
                 QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6),
                 id="pure_imaginary_table"),
    pytest.param(general_tabulated,
                 QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6),
                 id="general_table"),
]


class TestA3Convolution:
    """A3 as the convolution of a with A2: the interpolant of A2 / s is
    built once per model and each (s, t) is one 2D solve."""

    @pytest.mark.parametrize("make", [
        lambda: GaussianBorn(g=2.51, lam=1.0),
        lambda: ExponentialPoleBorn(c=1.1, slope_b=0.7),
    ], ids=["gaussian", "exponential_pole"])
    def test_interpolant_within_its_error_of_the_closed_form(self, make):
        # A2 / s of the Gaussian family is g^2 lam^2 / (16 pi) times
        # exp(-k^2 / (4 lam^2)) with phase^2 = -1 divided out; the
        # interpolant's bound must cover it beyond k_cap too
        m = make()
        a2hat = _A2Hat(m, QuadratureConfig())
        k = np.linspace(0.0, 1.5 * a2hat.k_cap, 4001)
        want = (m.g * m.lam) ** 2 / (16.0 * math.pi) * np.exp(
            -k * k / (4.0 * m.lam ** 2))
        assert np.max(np.abs(a2hat(k) - want)) <= a2hat.error
        assert a2hat.error <= 0.1 * 1e-6 * want[0]

    @pytest.mark.parametrize("t", [-2.0, -1.0, -0.25])
    @pytest.mark.parametrize("make, cfg", [
        (lambda: GaussianBorn(g=2.51, lam=1.0), QuadratureConfig()),
        (lambda: ExponentialPoleBorn(c=1.1, slope_b=0.7), QuadratureConfig()),
        (real_tabulated, QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6)),
        (imaginary_tabulated, QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6)),
    ], ids=["gaussian", "exponential_pole", "real_table",
            "pure_imaginary_table"])
    def test_matches_the_g_route(self, make, cfg, t):
        # the paper's route over the elliptic kernel is the second route
        m = make()
        kin = Kinematics(s=50.0, t=t)
        v, e, _ = a3_row(m, kin, cfg)
        vg, eg, _ = _a3_g_route(m, kin, cfg)
        assert abs(v - vg) <= e + eg
        assert e <= cfg.rel_tol * abs(v)

    def test_reported_error_covers_the_bench_reference(self, monkeypatch):
        # eleven rows of the bench table at default tolerance against the
        # impact-parameter moments of chi, which share no code with eikamp.
        # A2's row, the polar solve of the interpolant's nodes at k = qt,
        # takes at most 69k model points over the eleven rows (65,325;
        # 78,060 with the panel past the last knot graded toward q_cut
        # alone, 79,440 under QUADPACK's error law alone, 103,950 on the
        # (u, v) row it shared with A3, 1.4M on a solve of its own without
        # knot edges)
        refs = bench_references()
        m = real_tabulated()
        cfg = QuadratureConfig()
        a2hat = _A2Hat(m, cfg)
        points = counting_reduced(monkeypatch, m)
        a2_points = 0
        for t in np.linspace(-2.0, -0.25, 11):
            kin = Kinematics(s=50.0, t=float(t))
            before = points[0]
            v2, e2 = a2_at(m, kin, cfg)
            a2_points += points[0] - before
            v, e, _ = a3_at(m, kin, cfg, a2hat)
            (ref2, ref2_err), (ref, ref_err) = refs.tabulated_a2_a3(
                REAL_ROWS, kin.s, kin.t)
            assert e2 >= abs(v2 - ref2) - ref2_err
            assert abs(v2 - ref2) <= 1e-6 * abs(ref2) + ref2_err
            assert e >= abs(v - ref) - ref_err
            assert abs(v - ref) <= 1e-6 * abs(ref) + ref_err
        assert a2_points <= 69_000

    def test_gauss_table_points_within_budget(self, monkeypatch):
        # the README Gaussian at the bench's three t: one interpolant, its
        # nodes over the half-plane, and three rows take at most 86k model
        # points (82,035, the build 81,750 of them at 33 nodes; 119,895 at
        # 49 nodes while a panel stopped on its last two Chebyshev
        # coefficients alone, 162,645 under QUADPACK's error law alone, of
        # which the rows took 315: a row evaluates the model once per k1
        # node; 171,405 when they ran on the (u, v) row, 219k with the
        # nodes over the whole plane, and the G route took 774k inner
        # points for A3 alone), each row at its closed form
        m = GaussianBorn(g=2.51, lam=1.0)
        points = counting_reduced(monkeypatch, m)
        cfg = QuadratureConfig()
        a2hat = _A2Hat(m, cfg)
        for t in (-2.0, -1.125, -0.25):
            kin = Kinematics(s=50.0, t=t)
            v, e, _ = a3_at(m, kin, cfg, a2hat)
            assert abs(v - closed_a3(m, kin)) <= min(1e-9 * abs(v), e)
        assert points[0] <= 86_000

    def test_sign_changing_table_at_default_tolerance(self, monkeypatch):
        # a table whose amplitude crosses zero gives an A2 / s that crosses
        # it too; at t = -2 and default tolerance the G route took 797M
        # points (115 s).  One interpolant built over the half-plane and
        # three rows take at most 1.6M (1,519,530, the build 1,518,600 of
        # them; 1,624,740 with the panel past the last knot graded toward
        # q_cut alone, 1,801,380 under QUADPACK's error law alone, 5.2M
        # with the nodes over the whole plane) and agree with
        # the bench reference within both errors at t = -2, -1 and -0.5,
        # where a and A2 / s both change sign under A3's integral.  A2 at
        # t = -2 converges on its polar row; its own (u, v) solve without
        # knot edges raised NonConvergenceError
        m = sign_changing_tabulated()
        points = counting_reduced(monkeypatch, m)
        cfg = QuadratureConfig()
        a2hat = _A2Hat(m, cfg)
        refs = bench_references()
        a2_points = 0
        for t in (-2.0, -1.0, -0.5):
            kin = Kinematics(s=50.0, t=t)
            v, e, _ = a3_at(m, kin, cfg, a2hat)
            before = points[0]
            v2, e2 = a2_at(m, kin, cfg)
            a2_points += points[0] - before
            (ref2, ref2_err), (ref, ref_err) = refs.tabulated_a2_a3(
                SIGN_CHANGING_ROWS, kin.s, kin.t)
            assert abs(v - ref) <= e + ref_err
            assert abs(v2 - ref2) <= e2 + ref2_err
            assert e2 <= 1e-6 * abs(v2)
        assert points[0] - a2_points <= 1_600_000

    def test_inherited_stop_reruns_the_row_tighter(self, monkeypatch):
        # a 7-knot table that changes sign: at t = -1 and default
        # tolerance the row's k1 task stops once on inherited error
        # (1.373e-12 against a target of 5e-13) and its rerun with the
        # inner level 10x tighter converges.  Without the rerun the row
        # raises NonConvergenceError; with it, it lands within both errors
        # of a solve at rel 1e-8 on an interpolant of its own
        m = nonuniform_tabulated()
        kin = Kinematics(s=50.0, t=-1.0)
        a2hat = _A2Hat(m, QuadratureConfig())
        real = quadrature_module._solve_batched
        stops = []

        def spy(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except _InheritedError as exc:
                stops.append(exc)
                raise

        monkeypatch.setattr(quadrature_module, "_solve_batched", spy)
        v, e, _ = a3_at(m, kin, QuadratureConfig(), a2hat)
        monkeypatch.undo()
        assert stops
        vt, et, _ = a3_row(m, kin, QuadratureConfig(rel_tol=1e-8,
                                                    abs_tol=1e-14))
        assert abs(v - vt) <= e + et

    @pytest.mark.parametrize("make", [
        lambda: GaussianBorn(g=2.51, lam=1.0), real_tabulated,
        imaginary_tabulated, general_tabulated, sign_changing_tabulated,
    ], ids=["gaussian", "real_table", "pure_imaginary_table",
            "general_table", "sign_changing_table"])
    def test_half_plane_nodes_match_the_whole_plane(self, make):
        # a node integrates a(p) a(k - p), symmetric under p -> k - p, over
        # the half-plane p.k <= k^2 / 2 and doubles it; the whole plane is
        # the second route.  At k = 0 (phi over [pi / 2, pi]), at each
        # knot and twice it, mid-panel and at k_cap
        m = make()
        a2hat = _A2Hat(m, QuadratureConfig())
        ks = np.unique(np.concatenate([
            [0.0], a2hat.knots, 2.0 * a2hat.knots,
            0.5 * (a2hat.edges[:-1] + a2hat.edges[1:]), [a2hat.k_cap]]))
        a2hat._solve_nodes(ks)
        half, half_err = (np.array(c) for c in
                          zip(*map(a2hat._cache.get, ks.tolist())))
        full, full_err = a2hat_full_plane_nodes(a2hat, ks)
        assert np.all(np.abs(half - full) <= half_err + full_err)

    @pytest.mark.parametrize("n", [8, 16])
    def test_node_error_bound_covers_the_node_errors(self, n):
        # node errors e_j move the interpolant by sum_j l_j delta_j,
        # |delta_j| <= e_j: the bound covers that on a dense grid, within
        # its 0.3% sampling, and never exceeds the Lebesgue constant times
        # max(e), which it equals to 0.3% when every e_j is equal
        x = _lobatto(1.5, 4.0, n)
        w = _lobatto_weights(n)
        k = np.linspace(1.5, 4.0, 20_001)
        d = k[:, None] - x[None, :]
        d[d == 0.0] = 1e-300
        basis = (w / d) / (w / d).sum(axis=1)[:, None]
        lebesgue = 2.0 / math.pi * math.log(n + 1) + 1.0
        assert (np.abs(basis).sum(axis=1).max() * 0.997
                <= _node_error_bound(x, np.ones(n + 1)) <= lebesgue)
        rng = np.random.default_rng(n)
        for _ in range(50):
            e = rng.random(n + 1) ** 4
            bound = _node_error_bound(x, e)
            assert bound <= lebesgue * e.max()
            delta = e * rng.choice([-1.0, 1.0], n + 1)
            assert np.abs(basis @ delta).max() <= bound / 0.997

    @pytest.mark.parametrize("make, cfg, bound", [
        (real_tabulated, QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6),
         8.755e-7),
        (real_tabulated, QuadratureConfig(), 8.755e-10),
        (sign_changing_tabulated, QuadratureConfig(), 4.733e-10),
        (lambda: ExponentialPoleBorn(c=1.1, slope_b=0.7), QuadratureConfig(),
         1.716e-9),
    ], ids=["real_table_rel_1e-3", "real_table", "sign_changing_table",
            "exponential_pole"])
    def test_build_error_not_above_the_whole_plane(self, make, cfg, bound):
        # each bound is the error of the build with its nodes over the
        # whole plane (helpers.a2hat_full_plane_nodes), under the same
        # error estimates, rounded up in the fourth digit: the half-plane
        # at half the absolute tolerance must not report more.  Two of
        # them are the envelope bound at k_cap; the sign-changing table's
        # whole-plane build reported 4.876e-10 under QUADPACK's law alone
        # and a Lebesgue constant times its largest node error.  The
        # exponential pole's two degree-8 panels extrapolate their
        # coefficients' decay (eikonal._chebyshev_tail); with every panel
        # at degree 16 its bound was the envelope's, 8.598e-10
        assert _A2Hat(make(), cfg).error <= bound

    @pytest.mark.parametrize("make", [real_tabulated,
                                      sign_changing_tabulated],
                             ids=["real_table", "sign_changing_table"])
    def test_k_cap_as_with_scipy_kv(self, make, monkeypatch):
        # the envelope bound's z^2 K_2(z) is evaluated in-house; the cap
        # it bisects for, to 1e-12 relative, is the one scipy's kv gives
        from scipy.special import kv
        m = make()
        a2hat = _A2Hat(m, QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6))
        levels = [0.5 * a2hat.tol, *np.geomspace(1e-12, 1e-4, 9)]
        caps = [_a2_cap(m, level) for level in levels]
        monkeypatch.setattr(models_module, "_z2_k2", lambda z: (
            2.0 if z < 1e-8 else z * z * float(kv(2, z))))
        assert a2hat.k_cap == caps[0]
        assert caps == [_a2_cap(m, level) for level in levels]

    def test_build_peak_memory_is_bounded(self):
        # each slice of a node round starts phi tasks for every k1 node;
        # over the half-plane the bench table's build peaks at about
        # 2.2 MB (3.4 MB over the whole plane)
        m = real_tabulated()
        cfg = QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6)
        _A2Hat(m, cfg)
        tracemalloc.start()
        try:
            _A2Hat(m, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.0e6

    @pytest.mark.parametrize("make, cfg", FIVE_KINDS)
    def test_a2_row_matches_the_interpolant_nodes(self, make, cfg):
        # A2's row is the nodes' solve at k = qt alone, at the row's own
        # tolerance: at every node k > 0 of a build (t = -k^2 must be
        # negative) the two agree within their errors, which also pins
        # A2 = s phase^2 Â2
        m = make()
        a2hat = _A2Hat(m, cfg)
        phase = 1 if m.phase is None else m.phase
        nodes = [(k, v, e) for k, (v, e) in a2hat._cache.items() if k > 0.0]
        assert len(nodes) >= 10
        for k, node, node_err in nodes:
            v, e = a2_at(m, Kinematics(s=50.0, t=-k * k), cfg)
            assert abs(v / (50.0 * phase ** 2) - node) <= e / 50.0 + node_err

    def test_one_build_serves_every_row(self):
        # the interpolant depends on neither s nor t: a row with a given
        # build equals a row that builds its own
        m = real_tabulated()
        cfg = QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6)
        a2hat = _A2Hat(m, cfg)
        for s, t in ((50.0, -1.0), (200.0, -0.3)):
            kin = Kinematics(s=s, t=t)
            assert a3_at(m, kin, cfg, a2hat) == a3_row(m, kin, cfg)


def lobatto_fit(x, f):
    """The interpolant through f at the Lobatto points x as a Chebyshev
    series on their panel, fitted by numpy apart from the build's own
    barycentric form and coefficient sums."""
    return np.polynomial.chebyshev.Chebyshev.fit(x, f, len(x) - 1,
                                                  domain=[x[0], x[-1]])


def last_pair(x, f):
    """|a_{n-1}| + |a_n| of that interpolant, the estimate wherever the
    coefficients' decay is not clearly geometric."""
    c = lobatto_fit(x, f).coef
    return abs(c[-2]) + abs(c[-1])


def dyadic_panels(w, top=8.0):
    """The panels a build lays over [0, top] from a width w, [0, w],
    [w, 2w], [2w, 4w], ..., with their halves and quarters."""
    edges = [0.0, w]
    while edges[-1] < top:
        edges.append(2.0 * edges[-1])
    return [(lo + i * (hi - lo) / parts, lo + (i + 1) * (hi - lo) / parts)
            for lo, hi in zip(edges, edges[1:]) for parts in (1, 2, 4)
            for i in range(parts)]


# candidate shapes of A2 / s: the Gaussian family's at three widths,
# exponential tails, poles 0.3 and 1 off the real axis, and a kink of
# |k - k0|^3 on an edge of every layout (k0 = 2) and inside panels
ESTIMATE_BATTERY = {
    "gaussian_0.5": lambda k: np.exp(-k * k),
    "gaussian_1": lambda k: np.exp(-k * k / 4.0),
    "gaussian_2": lambda k: np.exp(-k * k / 16.0),
    "exp_0.5": lambda k: np.exp(-0.5 * k),
    "exp_1": lambda k: np.exp(-k),
    "exp_3": lambda k: np.exp(-3.0 * k),
    "runge_0.3": lambda k: 1.0 / (1.0 + ((k - 1.5) / 0.3) ** 2),
    "runge_1": lambda k: 1.0 / (1.0 + (k - 3.0) ** 2),
    "cube_edge": lambda k: np.abs(k - 2.0) ** 3,
    "cube_mid": lambda k: np.abs(k - 1.5) ** 3,
}


@functools.lru_cache(maxsize=None)
def table_panel_errors(rel_tol):
    """The bench table's build at rel_tol and, per panel, its Lobatto
    points, values, node errors and true error: the largest deviation from
    a rel-1e-12 solve of the nodes' convolution at three points between
    each pair of nodes."""
    m = real_tabulated()
    cfg = QuadratureConfig(rel_tol=rel_tol, abs_tol=1e-6 * rel_tol)
    a2hat = _A2Hat(m, cfg)
    _phase, red = eikonal_module._phase_split(m)
    tight = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-300)
    panels = []
    for x, f, _w in a2hat.panels:
        k = (x[:-1, None] + np.diff(x)[:, None] * np.array([0.25, 0.5, 0.75])
             ).ravel()
        c, _err, _ = eikonal_module._convolution(
            red, red, a2hat.knots, a2hat.knots, a2hat.q_cut, a2hat.q_cut,
            k, tight, True)
        err = np.array([a2hat._cache[xi][1] for xi in x])
        panels.append((x, f, err, float(np.abs(a2hat(k) - c).max())))
    return a2hat, panels


class TestChebyshevEstimate:
    """A panel of the interpolant of A2 / s stops on an estimate read off
    its Chebyshev coefficients (eikonal._chebyshev_tail): their geometric
    decay extrapolated past its degree, or the last pair where the decay
    is not clearly geometric."""

    @pytest.mark.parametrize("name", [
        *(n for n in ESTIMATE_BATTERY if n != "cube_mid"),
        pytest.param("cube_mid", marks=pytest.mark.xfail(
            strict=True, reason="the last pair, the fallback, under-reports "
            "an algebraic decay: |k - 1.5|^3 at degree 16 on [0, 2] reads "
            "8.1e-5 against a true 3.4e-4"))])
    def test_accepted_panels_cover_their_true_error(self, name):
        # every panel of three dyadic layouts, at degrees 8 and 16, whose
        # estimate a build at rel_tol 1e-3 or tighter accepts (at most 1e-4
        # of the function's scale): its true error is at most the estimate
        # plus the node errors' bound, for values rounded to 4 eps, or at
        # rounding level, 1e-14 of the scale.  The smooth shapes take the
        # geometric extrapolation on some of these panels
        fn = ESTIMATE_BATTERY[name]
        scale = np.abs(fn(np.linspace(0.0, 8.0, 8001))).max()
        eps = np.finfo(float).eps
        geometric = 0
        for w in (0.5, 1.0, 2.0):
            for lo, hi in dyadic_panels(w):
                for n in (8, 16):
                    x = _lobatto(lo, hi, n)
                    f = fn(x)
                    est = _chebyshev_tail(f)
                    if est > 1e-4 * scale:
                        continue
                    k = np.linspace(lo, hi, 2001)
                    true = np.abs(lobatto_fit(x, f)(k) - fn(k)).max()
                    reported = est + _node_error_bound(x, 4.0 * eps
                                                       * np.abs(f))
                    assert true <= max(reported, 1e-14 * scale), (w, lo, n)
                    geometric += bool(est < 0.6 * last_pair(x, f))
        assert geometric > 0 or name.startswith("cube")

    @pytest.mark.parametrize("k0", [1.2, 1.5, 3.0])
    @pytest.mark.parametrize("n", [8, 16])
    def test_a_kink_inside_a_panel_falls_back(self, k0, n):
        # |k - k0|^3 has coefficients that decay as j^-4: on every panel
        # with k0 inside, the estimate is the last pair, never the
        # extrapolation, which at most 8 / 15 of the pair would read
        for w in (0.5, 1.0, 2.0):
            for lo, hi in dyadic_panels(w):
                if lo < k0 < hi:
                    x = _lobatto(lo, hi, n)
                    f = np.abs(x - k0) ** 3
                    assert _chebyshev_tail(f) == pytest.approx(
                        last_pair(x, f), rel=1e-9)

    @pytest.mark.parametrize("n", [8, 16])
    def test_noise_and_a_vanishing_pair_fall_back(self, n):
        # coefficients that have stalled at the noise of the values from
        # degree 4 on, and those of a function even about the panel's
        # centre, whose odd ones vanish, are not read as a geometric decay
        x = _lobatto(1.0, 3.0, n)
        rng = np.random.default_rng(n)
        for _ in range(200):
            f = np.exp(-x) + 1e-3 * rng.standard_normal(n + 1)
            assert _chebyshev_tail(f) == pytest.approx(last_pair(x, f),
                                                       rel=1e-6)
        f = np.exp(-(x - 2.0) ** 2)
        assert _chebyshev_tail(f) == pytest.approx(last_pair(x, f), rel=1e-6)

    @pytest.mark.parametrize("rel", [1e-3, 1e-4, 1e-6, 1e-8])
    def test_gaussian_build_covers_its_true_error(self, rel):
        # the bench Gaussian's build against its closed Â2: the reported
        # error covers the sup over [0, 1.2 k_cap] and meets the
        # tolerance, and each panel's estimate plus its node errors' bound
        # covers the panel.  With the extrapolation at twice the pairs'
        # tail alone, the build at rel 1e-3 stopped two degree-8 panels at
        # 0.96 of the tolerance against a true 0.948
        m = GaussianBorn(g=2.51, lam=1.0)
        a2hat = _A2Hat(m, QuadratureConfig(rel_tol=rel))

        def closed(k):
            return (m.g * m.lam) ** 2 / (16.0 * math.pi) * np.exp(
                -k * k / (4.0 * m.lam ** 2))

        k = np.linspace(0.0, 1.2 * a2hat.k_cap, 20001)
        assert np.abs(a2hat(k) - closed(k)).max() <= a2hat.error <= a2hat.tol
        for (x, f, _w), lo, hi in zip(a2hat.panels, a2hat.edges,
                                      a2hat.edges[1:]):
            err = np.array([a2hat._cache[xi][1] for xi in x])
            # the last panel's right end, k_cap, is 0 like the k beyond it
            k = np.linspace(lo, hi, 2001)[:-1]
            assert (np.abs(a2hat(k) - closed(k)).max()
                    <= _chebyshev_tail(f) + _node_error_bound(x, err))

    def test_bench_gaussian_stops_two_panels_at_degree_8(self):
        # on the bench Gaussian at rel 1e-6 the coefficients of [0, w] and
        # [w, 2w] fall about 70x and 50x every two degrees: their
        # extrapolated tails read 0.90 and 0.65 of the tolerance, against
        # true errors of 0.11 and 0.07, where the last pair read 8.1 and
        # 4.1 and doubled both panels (49 nodes)
        a2hat = _A2Hat(GaussianBorn(g=2.51, lam=1.0), QuadratureConfig())
        assert [len(x) - 1 for x, _f, _w in a2hat.panels] == [8, 8, 16]
        assert len(a2hat._cache) == 33

    @pytest.mark.parametrize("rel", [1e-3, 1e-6], ids=["rel_1e-3",
                                                       "default"])
    def test_table_build_falls_back_and_covers_its_error(self, rel):
        # the bench table's A2 / s has kinks where sums of its knots meet,
        # so its coefficients decay algebraically: every panel stops on
        # its last pair, and the build's error, at least the envelope
        # bound at k_cap, covers a rel-1e-12 solve
        a2hat, panels = table_panel_errors(rel)
        for x, f, _err, _true in panels:
            assert _chebyshev_tail(f) == pytest.approx(last_pair(x, f),
                                                       rel=1e-9)
        assert max(p[3] for p in panels) <= a2hat.error

    @pytest.mark.parametrize("rel", [
        pytest.param(1e-3, id="rel_1e-3"),
        pytest.param(1e-6, id="default", marks=pytest.mark.xfail(
            strict=True, reason="the last pair under-reports the algebraic "
            "decay of the panel [1.67, 3.33]: 0.089 of the tolerance, plus "
            "0.035 for its nodes, against a true 0.18"))])
    def test_table_panels_cover_their_true_error(self, rel):
        _a2hat, panels = table_panel_errors(rel)
        for x, f, err, true in panels:
            assert true <= _chebyshev_tail(f) + _node_error_bound(x, err)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_table_build_covers_its_error_at_a_knot_sum(self):
        # Â2 of a table is not smooth where two knots add: at k = 3.14 +
        # 3.48 the build at rel 1e-3 is 3.298 of its tolerance from a
        # rel-1e-12 solve of the convolution, and reports 1.043
        m = nonuniform_tabulated()
        a2hat = _A2Hat(m, QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6))
        _phase, red = eikonal_module._phase_split(m)
        k = np.array([6.62])
        tight = QuadratureConfig(rel_tol=1e-12,
                                 abs_tol=1e-3 * a2hat.tol * 4.0 * math.pi ** 2)
        c, _err, _ = eikonal_module._convolution(
            red, red, a2hat.knots, a2hat.knots, a2hat.q_cut, a2hat.q_cut,
            k, tight, True)
        assert abs(a2hat(k)[0] - c[0]) <= a2hat.error


def counting_reduced(monkeypatch, model):
    """Route the model's evaluations through a counter of q-points."""
    points = [0]
    original = model.reduced

    def counted(q):
        points[0] += np.size(q)
        return original(q)

    monkeypatch.setattr(model, "reduced", counted)
    return points


class TestOnePhaseRealPath:
    """A model of one constant phase integrates a(q) / phase in real
    arithmetic; a phase of None forces the complex integrands, which every
    kind must reproduce with the same evaluations."""

    @pytest.mark.parametrize("make, cfg", FIVE_KINDS)
    def test_complex_path_gives_the_same_terms(self, monkeypatch, make, cfg):
        kin = Kinematics(s=50.0, t=-1.0)

        def run(force_complex):
            m = without_closed_chi(monkeypatch, make())
            if force_complex:
                monkeypatch.setattr(m, "phase", None)
            points = counting_reduced(monkeypatch, m)
            a2, a2_err = a2_at(m, kin, cfg)
            n_a2 = points[0]
            a3, a3_err, inner = a3_row(m, kin, cfg)
            n_a3 = points[0] - n_a2
            chi = eikonal_chi(m, kin.s, 0.7, cfg)
            return ((complex(a2), a2_err, n_a2), (a3, a3_err, inner, n_a3),
                    (chi, points[0] - n_a2 - n_a3))

        # (value, [error,] [inner evaluations,] reduced points) per term
        real, forced = run(False), run(True)
        for (v, *rest), (vc, *rest_c) in zip(real, forced):
            assert abs(v - vc) <= 1e-13 * abs(vc)
            assert rest[1:] == rest_c[1:]
            assert rest[0] == pytest.approx(rest_c[0], rel=1e-13)

    @pytest.mark.parametrize("make, cfg", FIVE_KINDS)
    def test_engine_dtype_follows_the_phase(self, monkeypatch, make, cfg):
        # every integrand value and level weight of A2, A3 (the nodes of
        # A2 / s and the convolution) and the tabulated chi is real for
        # the four one-phase kinds, and a general table keeps complex
        # integrands; the moments of |a| that scale the interpolant of
        # A2 / s are real for every kind
        calls = []

        def spy(f, levels, *args, **kwargs):
            dtypes = set()
            calls.append(dtypes)

            def recorded(fn):
                def wrapped(*args):
                    out = fn(*args)
                    dtypes.add(np.asarray(out).dtype)
                    return out
                return wrapped

            return _iterated(recorded(f),
                             [(edges, grading, weight and recorded(weight))
                              for edges, grading, weight in levels],
                             *args, **kwargs)

        monkeypatch.setattr(eikonal_module, "_iterated", spy)
        m = without_closed_chi(monkeypatch, make())
        kin = Kinematics(s=50.0, t=-1.0)
        _a2_with_error(m, [kin], cfg)
        first = len(calls)
        a2hat = _A2Hat(m, cfg)
        norms = calls.pop(first)
        _a3_with_error(m, [kin], cfg, a2hat)
        eikonal_chi(m, kin.s, 0.7, cfg)
        want = np.complex128 if m.phase is None else np.float64
        assert norms == {np.dtype(np.float64)}
        assert len(calls) >= 4
        assert all(d == {np.dtype(want)} for d in calls)


class TestErrorCalibration:
    # Gaussian A2 and A3 against their closed forms on criterion 5's
    # fifteen points: the reported error must never be below the true
    # one, and never above the requested tolerance
    @pytest.mark.parametrize("rel", [1e-4, 1e-6, 1e-8])
    def test_reported_error_not_below_true_error(self, rel):
        cfg = QuadratureConfig(rel_tol=rel, abs_tol=1e-12)
        for chi0, t in itertools.product((0.05, 0.1, 0.2, 0.3, 0.5),
                                          (-0.25, -1.0, -4.0)):
            m = gaussian_with_chi0(chi0)
            kin = Kinematics(s=50.0, t=t)
            a2, a2_err = a2_at(m, kin, cfg)
            a3, a3_err, _ = a3_row(m, kin, cfg)
            assert abs(a2 - closed_a2(m, kin)) <= a2_err
            assert abs(a3 - closed_a3(m, kin)) <= a3_err
            assert a2_err <= rel * abs(a2)
            assert a3_err <= rel * abs(a3)


class TestKernelSingularities:
    def test_x3_breakpoints_are_every_sign_change(self):
        # phi = A^2 - B of the kernel G vanishes at each closed-form x3 in
        # range, and a dense scan finds no sign change away from them;
        # a third of the draws sit at xp ~ xm ~ 1, where two roots nearly
        # coincide
        rng = np.random.default_rng(23)
        n = 300
        xp = rng.uniform(0.0, 3.0, n)
        xm = rng.uniform(0.0, 3.0, n)
        xp[:100] = 1.0 + rng.uniform(-1e-3, 1e-3, 100)
        xm[:100] = 1.0 + rng.uniform(-1e-3, 1e-3, 100)
        lo3 = rng.uniform(0.0, 1.0, n)
        hi3 = lo3 + rng.uniform(0.5, 4.0, n)

        def phi(x3, rows):
            a, b = xp[rows], xm[rows]
            return _delta4_sq_values(a, b, x3, 1.0) - a * b * x3

        roots = _x3_breakpoints(xp, xm, lo3, hi3)
        assert roots.shape == (n, 3)
        assert np.all((roots >= lo3[:, None]) & (roots <= hi3[:, None]))
        inside = (roots > lo3[:, None]) & (roots < hi3[:, None])
        rows = np.nonzero(inside)[0]
        scale = (xp + xm + hi3 + 1.0)[rows] ** 4
        assert np.all(np.abs(phi(roots[inside], rows)) <= 1e-14 * scale)

        grid = lo3[:, None] + (hi3 - lo3)[:, None] * np.linspace(0.0, 1.0, 4001)
        vals = phi(grid, np.arange(n)[:, None])
        fr, fc = np.nonzero(np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) < 0)
        assert fr.size > n
        hit = (inside[fr] & (roots[fr] >= grid[fr, fc][:, None])
               & (roots[fr] <= grid[fr, fc + 1][:, None]))
        assert hit.any(axis=1).all()


def five_block_a3(model, kin, cfg):
    """A3 and its error as the sum over the five blocks of
    :func:`decompose_a3_domain`, one complex nest per block with the
    block's own limits and G from the generic F4 evaluator, cut at the
    x1 and x3 caps of ``cfg.abs_tol``; the x1 ranges beyond 2 start from
    dyadic panels, and the tail bound of those caps is added."""
    qt = kin.q
    x1_cap, x3_cap, tail = eikonal_module._a3_caps(
        model, qt, float(model.envelope(0.0)), cfg.abs_tol)
    grid = getattr(model, "q_grid", None)
    knots = np.empty((1, 0)) if grid is None else grid[None, 1:] / qt
    red = model.reduced

    def integrand(x1, x2, x3):
        xp, xm = 0.5 * (x1 + x2), 0.5 * (x1 - x2)
        return (xp * xm * x3 * red(qt * xp) * red(qt * xm) * red(qt * x3)
                * _f4_values(xp, xm, x3, 1.0))

    total, total_err = 0.0, tail
    for blk in decompose_a3_domain():
        lo, hi = blk.x1_range[0], min(blk.x1_range[1], x1_cap)
        x1_edges = np.array([[lo, *(2.0 ** k for k in range(2, 64)
                                    if lo < 2.0 ** k < hi), hi]])

        def x3_rows(x1, x2, blk=blk):
            lo3 = np.maximum(blk.x3_lower(x1, x2), 0.0)
            hi3 = np.maximum(np.minimum(blk.x3_upper(x1, x2), x3_cap), lo3)
            return np.sort(np.column_stack([
                lo3, _x3_breakpoints(0.5 * (x1 + x2), 0.5 * (x1 - x2),
                                     lo3, hi3),
                np.clip(knots, lo3[:, None], hi3[:, None]), hi3]), axis=1)

        res = _iterated(integrand, [
            (lambda edges=x1_edges: edges, "plain", None),
            (_limits(blk.x2_lower, blk.x2_upper), "plain", None),
            (x3_rows, "log", None)], cfg)
        total += res.value
        total_err += res.error_estimate
    pref = kin.s * kin.t ** 2 / (96.0 * math.pi ** 2)
    return pref * total, pref * total_err


class TestDomainDecomposition:
    def test_five_blocks_with_expected_limits(self):
        blocks = decompose_a3_domain()
        assert len(blocks) == 5
        assert blocks[0].x1_range == (0.0, 1.0)
        # at x1 = 0.5 the first block spans x3 in [0.5, 1.5]
        assert blocks[0].x3_lower(0.5, 0.25) == 0.5
        assert blocks[0].x3_upper(0.5, 0.25) == 1.5
        assert blocks[1].x1_range == (1.0, 2.0)
        assert blocks[2].x2_lower(1.5) == 1.0
        assert blocks[2].x3_lower(1.5, 1.2) == pytest.approx(0.2)
        assert blocks[3].x1_range[1] == math.inf

    def test_one_region_matches_the_five_blocks(self, monkeypatch):
        # A3 integrates one region in x1 slabs; at any (x1, x2) the slab's
        # x2 panel and x3 limits must be those of every block of the
        # paper's split that holds the point, including on the block
        # boundaries x1 = 1, x1 = 2 and x2 = 1
        levels = []

        def capture(f, lv, cfg):
            levels[:] = lv
            return IntegralResult(0.0, 0.0, 1)

        monkeypatch.setattr(eikonal_module, "_iterated", capture)
        rng = np.random.default_rng(12)
        x1 = rng.uniform(0.0, 12.0, 400)
        pts = [(a, rng.uniform(0.0, a)) for a in x1]
        pts += [(a, b) for a in (1.0, 2.0)
                for b in (0.0, 1.0, a, *rng.uniform(0.0, a, 20))]
        pts += [(a, 1.0) for a in rng.uniform(1.0, 12.0, 20)]
        slabs = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 8.0), (8.0, 16.0)]
        blocks = decompose_a3_domain()
        checked = 0
        for lo, hi in slabs:
            eikonal_module._a3_block(GaussianBorn(g=1.0, lam=1.0), 1.0, lo,
                                     hi, QuadratureConfig(), math.inf, [0])
            (x1_rows, *_), (x2_rows, *_), (x3_rows, *_) = levels
            assert x1_rows().tolist() == [[lo, hi]]
            for a, b in pts:
                if not lo <= a <= hi:
                    continue
                row2 = x2_rows(np.array([a]))[0]
                panels = list(zip(row2[:-1], row2[1:]))
                row3 = x3_rows(np.array([a]), np.array([b]))[0]
                owners = [blk for blk in blocks
                          if blk.x1_range[0] <= a <= blk.x1_range[1]
                          and blk.x2_lower(a) <= b <= blk.x2_upper(a)]
                assert owners
                for blk in owners:
                    assert (blk.x2_lower(a), blk.x2_upper(a)) in panels
                    assert row3[0] == blk.x3_lower(a, b)
                    assert row3[-1] == blk.x3_upper(a, b)
                    checked += 1
        assert checked > 450

    def test_only_inner_table_knots_off_the_roots_are_smooth(
            self, monkeypatch):
        # a knot k / qt of a table is a smooth x3 edge only strictly inside
        # (lo3, hi3) and off every modulus-one root; a knot clipped onto a
        # task end, where 1/sqrt may sit, or on a root stays graded
        levels = []

        def capture(f, lv, cfg):
            levels[:] = lv
            return IntegralResult(0.0, 0.0, 1)

        monkeypatch.setattr(eikonal_module, "_iterated", capture)
        eikonal_module._a3_block(real_tabulated(), 1.0, 0.0, 4.0,
                                 QuadratureConfig(), math.inf, [0])
        x3_rows = levels[2][0]
        # knots 0.5, 1, 1.5, 2 at qt = 1; per (x1, x2): lo3, the three
        # roots x1 - 1, 1 - x2, 1 + x2 (clipped) and hi3
        x1, x2 = np.array([0.5, 1.5, 3.0]), np.array([0.25, 0.5, 0.125])
        rows, smooth = x3_rows(x1, x2)
        np.testing.assert_array_equal(rows, [
            [0.5, 0.5, 0.5, 0.75, 1.0, 1.25, 1.5, 1.5, 1.5],   # [0.5, 1.5]
            [0.0, 0.5, 0.5, 0.5, 1.0, 1.5, 1.5, 2.0, 2.5],     # [0, 2.5]
            [0.0, 0.5, 0.875, 1.0, 1.125, 1.5, 2.0, 2.0, 4.0]])  # [0, 4]
        assert [r[m].tolist() for r, m in zip(rows, smooth)] == [
            [1.0],              # 0.5 on lo3; 1.5, and 2 clipped, on hi3
            [1.0, 2.0],         # 0.5 and 1.5 are roots
            [0.5, 1.0, 1.5]]    # 2 is a root

    @pytest.mark.parametrize("make, t, cfg", [
        (lambda: ExponentialPoleBorn(c=1.1, slope_b=0.7), -1.0,
         QuadratureConfig()),
        (lambda: ExponentialPoleBorn(c=1.1, slope_b=0.7), -4.0,
         QuadratureConfig()),
        (imaginary_tabulated, -1.0,
         QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6)),
    ], ids=["exponential_pole-t1", "exponential_pole-t4", "table-t1"])
    def test_slabs_match_the_five_block_sum(self, make, t, cfg):
        # criterion 7 holds the slabs to an indicator oracle on the
        # Gaussian; on the other families they must agree with the sum
        # over the paper's five blocks, integrated block by block with
        # the complex integrand and the generic F4 kernel
        m = make()
        kin = Kinematics(s=50.0, t=t)
        value, err, _ = _a3_g_route(m, kin, cfg)
        blocks, blocks_err = five_block_a3(m, kin, cfg)
        assert abs(value - blocks) <= err + blocks_err
        assert err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)) * 1.0001

    def test_unit_weight_block_volumes(self):
        # with H = 1 and x1 capped at 3 each block has a polynomial
        # volume: 2/3, 5/2, 7/6, 7/2, 25/6, totalling 12
        exact = [2.0 / 3.0, 5.0 / 2.0, 7.0 / 6.0, 7.0 / 2.0, 25.0 / 6.0]
        cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)
        total = 0.0
        for block, want in zip(decompose_a3_domain(), exact):
            x1_hi = min(block.x1_range[1], 3.0)
            res = integrate_nested(lambda x, y, z: np.ones_like(x),
                                   [(block.x1_range[0], x1_hi),
                                    (block.x2_lower, block.x2_upper),
                                    (block.x3_lower, block.x3_upper)], cfg)
            assert res.value == pytest.approx(want, rel=1e-9)
            total += res.value
        assert total == pytest.approx(12.0, rel=1e-9)


class TestAssemblyAndCrossSection:
    def test_assembled_combination(self, terms_03):
        _model, _kin, terms = terms_03
        expect = (terms.a1 - terms.a3) + 1j * terms.a2
        assert assemble_amplitude(terms) == expect

    def test_term_hierarchy(self, terms_03):
        _model, _kin, terms = terms_03
        assert abs(terms.a3) < abs(terms.a2) < abs(terms.a1)

    def test_pure_imaginary_class_holds(self, terms_03):
        _model, _kin, terms = terms_03
        assert abs(terms.a1.real) <= 1e-10 * abs(terms.a1)
        assert abs(terms.a2.imag) <= 1e-10 * abs(terms.a2)
        assert abs(terms.a3.real) <= 1e-10 * abs(terms.a3)

    @pytest.mark.parametrize("make, _cfg", FIVE_KINDS)
    def test_one_formula_gives_the_restricted_conventions(self, make, _cfg):
        # the off-phase parts of a one-phase model's terms are exact
        # zeros, so the one general expression gives the bits of the
        # convention of its phase: r1^2 + r2^2 - 2 r1 r3 on the real parts
        # of a real model, h1^2 + 2 h1 h2 + h2^2 - 2 h1 h3 on h1 = Im a1,
        # h2 = Re a2, h3 = Im a3 of a pure-imaginary one.  A general table
        # gets the expression written out in real and imaginary parts
        m = make()
        cfg = QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6)
        for t in (-2.0, -1.0, -0.25):
            kin = Kinematics(s=50.0, t=t)
            (terms,) = eikonal_module._table_terms(m, [kin], cfg,
                                                   _A2Hat(m, cfg))
            (x1, y1), (x2, y2), (x3, y3) = (
                (a.real, a.imag) for a in (terms.a1, terms.a2, terms.a3))
            norm = 1.0 / (16.0 * math.pi * kin.s ** 2)
            got = diff_cross_section(terms, kin)
            if m.phase == 1:
                assert got == norm * (x1 * x1 + x2 * x2 - 2.0 * x1 * x3)
            elif m.phase == 1j:
                assert got == norm * (y1 * y1 + 2.0 * y1 * x2 + x2 * x2
                                      - 2.0 * y1 * y3)
            else:
                want = norm * (x1 * x1 + y1 * y1 + 2.0 * (y1 * x2 - x1 * y2)
                               + x2 * x2 + y2 * y2 - 2.0 * (x1 * x3 + y1 * y3))
                assert got == pytest.approx(want, rel=1e-14)

    def test_born_limit(self, terms_03):
        # zeroing a2 and a3 reduces the cross section to the Born one
        _model, kin, terms = terms_03
        born_only = AmplitudeTerms(a1=terms.a1, a2=0.0 + 0.0j,
                                   a3=0.0 + 0.0j)
        expect = abs(terms.a1) ** 2 / (16.0 * math.pi * kin.s ** 2)
        got = diff_cross_section(born_only, kin)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_cross_section_positive(self, terms_03):
        _model, kin, terms = terms_03
        assert diff_cross_section(terms, kin) > 0.0

    def test_real_class_pipeline(self):
        # the reality of each term is structural (the integrands are real
        # up to explicit i factors), so a loose quadrature keeps the check
        # honest while the 3D a3 stays affordable on the tabulated model
        m = real_tabulated()
        kin = Kinematics(s=50.0, t=-1.0)
        cfg = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-6)
        terms = compute_terms(m, kin, cfg)
        assert abs(terms.a1.imag) <= 1e-10 * abs(terms.a1)
        assert abs(terms.a2.imag) <= 1e-10 * abs(terms.a2)
        assert abs(terms.a3.imag) <= 1e-10 * max(abs(terms.a3), 1e-300)
        assert math.isfinite(diff_cross_section(terms, kin))

    def test_terms_match_individual_calls(self, terms_03):
        model, kin, terms = terms_03
        assert terms.a1 == complex(model.value(kin.s, kin.q))
        assert terms.a2 == a2_row(model, kin)
        assert terms.a3 == a3_row(model, kin)[0]
        assert terms.a2_error > 0.0
        assert terms.a3_error > 0.0


def readme_quick_start():
    """The README's "Library quick start" code block, verbatim."""
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class TestReadmeQuickStart:
    def test_quick_start_runs(self):
        scope = {}
        exec(readme_quick_start(), scope)
        terms, kin = scope["terms"], scope["kin"]
        assert scope["amp"] == assemble_amplitude(terms)
        assert scope["dsig"] == diff_cross_section(terms, kin) > 0.0
        assert scope["ref"].value == pytest.approx(1.0 / (12.0 * math.pi),
                                                   rel=1e-5)
