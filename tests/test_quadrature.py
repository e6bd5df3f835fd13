"""Adaptive quadrature engine: known integrals, error honesty, the
damped-extrapolation oracle for Bessel-product moments."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sps

from eikamp import (DEFAULT_P_SEQUENCE, ExtrapolationDivergenceError,
                    IntegralResult, NonConvergenceError, QuadratureConfig,
                    integrate_damped_bessel_product)
from eikamp import quadrature as quadrature_module
from eikamp.quadrature import (_KG_PER_NULL, _NULL,
                               _QUARTIC_LEFT, _QUARTIC_RIGHT, _SQRT_LEFT,
                               _SQRT_RIGHT, _W7, _W15, _X15, _build_tasks,
                               _eval_segments, _InheritedError, _iterated,
                               _limits, _map_nodes, _null_error,
                               _solve_batched)
from helpers import integrate_1d, integrate_nested

TIGHT = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14)

# (label, integrand, a, b, breakpoints, truth); the five semi-infinite
# integrals run on a finite [a, b] past which their tail is below 3e-20
KNOWN_INTEGRALS = [
    ("arcsine", lambda x: 1.0 / np.sqrt(1.0 - x * x), 0.0, 1.0, None,
     math.pi / 2.0),
    ("log-end", lambda x: np.log(1.0 / x), 0.0, 1.0, None, 1.0),
    ("gauss-moment", lambda x: x * np.exp(-x * x), 0.0, 9.0, None, 0.5),
    ("cubic", lambda x: x ** 3, 0.0, 1.0, None, 0.25),
    ("sine-arch", np.sin, 0.0, math.pi, None, 2.0),
    ("inv-sqrt", lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, None, 2.0),
    ("sqrt-log", lambda x: np.sqrt(x) * np.log(x), 0.0, 1.0, None,
     -4.0 / 9.0),
    ("cos-squared", lambda x: np.cos(x) ** 2, 0.0, 2.0 * math.pi, None,
     math.pi),
    ("exp", np.exp, 0.0, 1.0, None, math.e - 1.0),
    ("exp-decay", lambda x: np.exp(-x), 0.0, 45.0, None, 1.0),
    ("gamma-4", lambda x: x ** 3 * np.exp(-x), 0.0, 60.0, None, 6.0),
    ("arctan-kernel", lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, None,
     math.pi / 4.0),
    ("abs-sqrt-kink", lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, [0.0],
     4.0 / 3.0),
    ("log-squared", lambda x: np.log(x) ** 2, 0.0, 1.0, None, 2.0),
    ("quarter-pole", lambda x: x ** (-0.25), 0.0, 1.0, None,
     4.0 / 3.0),
    ("gauss-tail", lambda x: np.exp(-x * x), 0.0, 9.0, None,
     math.sqrt(math.pi) / 2.0),
    ("arcsin-int", np.arcsin, 0.0, 1.0, None, math.pi / 2.0 - 1.0),
    ("bessel-moment", lambda x: x * sps.j0(x), 0.0, 10.0, None,
     10.0 * sps.j1(10.0)),
    ("beta-half", lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0, None,
     math.pi),
    ("damped-cos", lambda x: np.exp(-x) * np.cos(x), 0.0, 50.0, None, 0.5),
]


class TestKnownIntegrals:
    @pytest.mark.parametrize("case", KNOWN_INTEGRALS, ids=lambda c: c[0])
    def test_value_within_tolerance(self, case):
        _, f, a, b, brk, truth = case
        res = integrate_1d(f, a, b, TIGHT, breakpoints=brk)
        assert res.evaluations >= 1
        assert res.error_estimate >= 0.0
        assert abs(res.value - truth) <= max(1e-9, 1e-9 * abs(truth))

    def test_error_honesty_at_least_95_percent(self):
        honest = 0
        for _, f, a, b, brk, truth in KNOWN_INTEGRALS:
            res = integrate_1d(f, a, b, TIGHT, breakpoints=brk)
            if abs(res.value - truth) <= 5.0 * max(res.error_estimate, 5e-16 * abs(truth)):
                honest += 1
        assert honest >= math.ceil(0.95 * len(KNOWN_INTEGRALS))


class TestEngineBehavior:
    def test_linearity(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=4)

        def f(x):
            return c[0] * np.sin(x) + c[1] * x * x

        def g(x):
            return c[2] * np.exp(-x) + c[3] * np.cos(3.0 * x)

        alpha, beta = 2.25, -0.75
        rf = integrate_1d(f, 0.0, 2.0, TIGHT)
        rg = integrate_1d(g, 0.0, 2.0, TIGHT)
        rc = integrate_1d(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0,
                          TIGHT)
        combined = alpha * rf.value + beta * rg.value
        tol = (abs(alpha) * rf.error_estimate + abs(beta) * rg.error_estimate
               + rc.error_estimate + 1e-13)
        assert abs(rc.value - combined) <= tol

    def test_substitution_invariance(self):
        # direct (engine removes the endpoint 1/sqrt internally) vs the
        # manual x = sin(u) change of variable on a smooth domain
        direct = integrate_1d(lambda x: 1.0 / np.sqrt(1.0 - x * x),
                              0.0, 1.0, TIGHT)
        substituted = integrate_1d(lambda u: np.ones_like(u), 0.0,
                                   math.pi / 2.0, TIGHT)
        tol = direct.error_estimate + substituted.error_estimate + 1e-12
        assert abs(direct.value - substituted.value) <= tol

    def test_complex_integrand(self):
        res = integrate_1d(lambda x: np.exp(1j * x), 0.0, math.pi / 2.0,
                           TIGHT)
        assert res.value == pytest.approx(1.0 + 1.0j, rel=1e-10)

    def test_breakpoint_never_evaluated(self):
        seen = []

        def f(x):
            seen.append(x)
            return np.sqrt(np.abs(x - 0.5))

        integrate_1d(f, 0.0, 1.0, QuadratureConfig(), breakpoints=[0.5])
        xs = np.concatenate(seen)
        assert not np.any(xs == 0.5)
        assert not np.any(xs == 0.0)
        assert not np.any(xs == 1.0)

    def test_interior_log_breakpoint_is_graded(self):
        # both panels next to the breakpoint get a square-root map anchored
        # on it, which turns log|x - 0.7| into a mild u log u; plain
        # bisection toward the breakpoint needs about 1,300 evaluations
        res = integrate_1d(lambda x: np.log(np.abs(x - 0.7)), 0.0, 2.0,
                           QuadratureConfig(rel_tol=1e-6), breakpoints=[0.7])
        truth = 0.7 * math.log(0.7) + 1.3 * math.log(1.3) - 2.0
        assert abs(res.value - truth) <= 1e-6 * abs(truth)
        assert res.evaluations <= 600

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("grading", ["plain", "sqrt", "log"])
    def test_padded_rows_build_the_segments_of_the_unpadded_ones(
            self, grading, masked):
        # a row padded with its last edge gains only zero-length panels,
        # which vanish whatever the mask flags on the padding; a task
        # whose last edge does not exceed its first is empty, not unsorted
        rows = [[0.0, 0.5, 2.0], [1.0], [0.0, 1.0, 1.5, 3.0], [2.0, 1.0],
                [0.0, 0.0, 1.0]]
        flags = [[False, True, False], [True], [False, True, False, False],
                 [False, True], [True, True, False]]
        width = max(map(len, rows))
        padded = np.array([np.pad(r, (0, width - len(r)), mode="edge")
                           for r in rows])
        mask = np.array([f + [True] * (width - len(f)) for f in flags])
        got = _build_tasks(padded, grading, mask if masked else None)
        for i, (row, flag) in enumerate(zip(rows, flags)):
            want = _build_tasks([row], grading, [flag] if masked else None)
            mine = got[0] == i
            assert got[0][mine].tolist() == (want[0] + i).tolist()
            for g, w in zip(got[1:], want[1:]):
                assert g.dtype == w.dtype and g[mine].tobytes() == w.tobytes()
        assert np.unique(got[0]).tolist() == [0, 2, 4]
        with pytest.raises(ValueError, match="sorted"):
            _build_tasks([[0.0, 2.0, 1.0]], grading)

    def test_log_grading_maps_ends_by_sqrt_and_interior_edges_by_quartic(self):
        # a task's first and last edges may carry 1/sqrt singularities and
        # keep the square-root map; only interior edges get the quartic one
        _, kind, anc, _, hi = _build_tasks([[0.0, 0.25, 0.5, 1.0]], "log")
        assert kind.tolist() == [_SQRT_LEFT, _QUARTIC_RIGHT, _QUARTIC_LEFT,
                                 _QUARTIC_RIGHT, _QUARTIC_LEFT, _SQRT_RIGHT]
        assert anc.tolist() == [0.0, 0.25, 0.25, 0.5, 0.5, 1.0]
        # each half panel ends where its map reaches the panel midpoint
        reach = np.where(kind >= _QUARTIC_LEFT, hi ** 4, hi ** 2)
        np.testing.assert_allclose(reach, [0.125, 0.125, 0.125, 0.125,
                                           0.25, 0.25], rtol=1e-15)
        plain = _build_tasks([[0.0, 0.25, 1.0]], "plain")
        assert plain[1].tolist() == [0, 0]
        with pytest.raises(ValueError, match="grading"):
            _build_tasks([[0.0, 1.0]], True)

    @pytest.mark.parametrize("grading", ["sqrt", "log"])
    def test_smooth_edges_get_a_panel_but_no_map(self, grading):
        # edges 0 | 1 | 3 ~ 4 ~ 6 | 7 with ~ smooth: a panel with one
        # smooth edge is one segment graded toward its other edge over its
        # full width, one with two is plain, one with none keeps its halves
        inner_l, inner_r = ((_QUARTIC_LEFT, _QUARTIC_RIGHT) if grading == "log"
                            else (_SQRT_LEFT, _SQRT_RIGHT))
        edges = np.array([[0.0, 1.0, 3.0, 4.0, 6.0, 7.0]])
        smooth = np.array([[False, False, True, True, False, False]])
        tid, kind, anc, u_lo, u_hi = _build_tasks(edges, grading, smooth)
        assert tid.tolist() == [0] * 7
        assert kind.tolist() == [_SQRT_LEFT, inner_r, inner_l, 0,
                                 inner_r, inner_l, _SQRT_RIGHT]
        assert anc.tolist() == [0.0, 1.0, 1.0, 0.0, 6.0, 6.0, 7.0]
        assert u_lo.tolist() == [0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]
        # each graded segment's map reaches the far end of its part
        reach = np.where(kind == 0, u_hi,
                         u_hi ** np.where(kind >= _QUARTIC_LEFT, 4, 2))
        np.testing.assert_allclose(reach, [0.5, 0.5, 2.0, 4.0, 2.0, 0.5, 0.5],
                                   rtol=1e-15)

    @pytest.mark.parametrize("edges, smooth", [
        ([0.0, 1.0, 2.0], [True, False, True]),        # first and last
        ([0.0, 1.0, 1.0, 2.0], [False, True, True, False]),
        ([0.0, 1.0, 1.0, 2.0], [False, True, False, False]),
        ([0.0, 0.0, 1.0, 2.0], [True, True, False, False]),
        ([0.0, 1.0, 2.0, 2.0], [False, False, True, True]),
    ], ids=["task-ends", "repeat-both", "repeat-one", "repeat-first",
            "repeat-last"])
    @pytest.mark.parametrize("grading", ["sqrt", "log"])
    def test_smooth_flags_on_ends_and_zero_length_panels_are_ignored(
            self, edges, smooth, grading):
        # a task end may carry 1/sqrt, and an edge of a zero-length panel
        # may be listed twice with different flags: both stay graded
        got = _build_tasks([np.array(edges)], grading, [np.array(smooth)])
        want = _build_tasks([np.array(edges)], grading)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("grading", ["plain", "sqrt", "log"])
    def test_no_smooth_mask_builds_the_halves(self, grading):
        # without a mask, and with one that flags nothing, every panel of
        # a graded task is two halves anchored at its edges, with u from 0
        # to the half width's square root (fourth root for a quartic
        # map), to the bit
        rows = np.array([[0.0, 0.25, 0.25, 1.0, 3.5], [1.0, 1.5, 2.0, 2.0, 2.0],
                         [0.0, 0.3, 0.7, 1.1, 1.3]])
        got = _build_tasks(rows, grading)
        flagged = _build_tasks(rows, grading, np.zeros(rows.shape, bool))
        for g, f in zip(got, flagged):
            assert g.dtype == f.dtype and g.tobytes() == f.tobytes()
        tid, kind, anc, u_lo, u_hi = got
        assert kind.dtype == np.int8
        lo, hi = rows[:, :-1].ravel(), rows[:, 1:].ravel()
        panel = np.repeat(np.arange(3), 4)[hi > lo]
        lo, hi = lo[hi > lo], hi[hi > lo]
        if grading == "plain":
            assert tid.tolist() == panel.tolist() and not kind.any()
            assert u_lo.tobytes() == lo.tobytes()
            assert u_hi.tobytes() == hi.tobytes()
            return
        assert tid.tolist() == np.repeat(panel, 2).tolist()
        half = np.sqrt(np.repeat(0.5 * (hi - lo), 2))
        quartic = kind >= _QUARTIC_LEFT
        half[quartic] = np.sqrt(half[quartic])
        assert u_hi.tobytes() == half.tobytes()
        assert u_lo.tobytes() == np.zeros(u_hi.size).tobytes()
        assert anc.tolist() == np.column_stack([lo, hi]).ravel().tolist()
        assert quartic.any() == (grading == "log")

    def test_smooth_knot_keeps_the_value_in_fewer_points(self):
        # a log point at 0.7 and a C1 knot at 1.5, where (x - 1.5)|x - 1.5|
        # jumps in its second derivative: a plain panel edge at the knot
        # restores full order, so flagging it smooth keeps the value and
        # saves the graded halves' points
        def f(_tid, x):
            return np.log(np.abs(x - 0.7)) + (x - 1.5) * np.abs(x - 1.5)

        truth = (0.7 * math.log(0.7) + 1.3 * math.log(1.3) - 2.0
                 + (0.5 ** 3 - 1.5 ** 3) / 3.0)
        edges = np.array([[0.0, 0.7, 1.5, 2.0]])
        counts = []
        for smooth in (None, np.array([[False, False, True, False]])):
            v, e, n, ok = _solve_batched(f, edges, 1e-10, 1e-300,
                                         grading="log", smooth=smooth)
            assert ok[0]
            assert abs(v[0] - truth) <= max(e[0], 1e-14)
            counts.append(n)
        assert counts[1] < counts[0]

    @pytest.mark.parametrize("grading", ["sqrt", "log"])
    @pytest.mark.parametrize("x0", [0.3, 1.7, 123.4])
    def test_graded_nodes_never_land_on_their_anchor(self, x0, grading):
        # deep bisection toward x0 shrinks u^2 (and u^4 much sooner) below
        # the float spacing at x0, where x0 + u^k would round to x0 itself
        # and log|x - x0| would be -inf.  Every solve must finish with an
        # honest estimate; the square-root map at rel 1e-13 and x0 = 123.4
        # stalls at the rounding floor of x - x0 (the spacing of x0) and
        # says so by reporting the task unconverged
        seen = []

        def f(_tid, x):
            seen.append(x.copy())
            return np.log(np.abs(x - x0))

        truth = 2.0 * math.log(2.0) - 3.0
        for rel in (1e-8, 1e-11, 1e-13):
            v, e, _, ok = _solve_batched(f, [np.array([x0 - 1.0, x0, x0 + 2.0])],
                                         rel, 1e-300, grading=grading)
            assert ok[0] or (grading == "sqrt" and x0 > 100.0 and rel < 1e-12)
            assert abs(v[0] - truth) <= e[0]
        assert not np.any(np.concatenate(seen) == x0)

    def test_map_nodes_matches_the_per_kind_passes(self):
        # the one-pass map gives every node and jacobian bit for bit as
        # one masked pass per map kind, on waves mixing all five kinds
        def per_kind(kind, anc, u):
            x = u.copy()
            jac = np.ones_like(u)
            for k, sign, quartic in ((_SQRT_LEFT, 1.0, False),
                                     (_SQRT_RIGHT, -1.0, False),
                                     (_QUARTIC_LEFT, 1.0, True),
                                     (_QUARTIC_RIGHT, -1.0, True)):
                m = kind == k
                um = u[m]
                sq = um * um
                a = anc[m, None]
                step = sq * sq if quartic else sq
                x[m] = a + sign * np.maximum(step, np.spacing(np.abs(a)))
                jac[m] = 4.0 * sq * um if quartic else 2.0 * um
            return x, jac

        rng = np.random.default_rng(20)
        kinds = np.array([0, _SQRT_LEFT, _SQRT_RIGHT, _QUARTIC_LEFT,
                          _QUARTIC_RIGHT], dtype=np.int8)
        for trial in range(200):
            n = int(rng.integers(1, 300))
            # every fourth wave is all plain or all of one graded kind
            kind = (rng.choice(kinds, n) if trial % 4
                    else np.full(n, kinds[trial // 4 % 5], dtype=np.int8))
            anc = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.7, n)
            u = 10.0 ** rng.uniform(-6.0, 0.5, (n, 15))
            for got, want in zip(_map_nodes(kind, anc, u),
                                 per_kind(kind, anc, u)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rel", [1e-6, 1e-10, 1e-12])
    def test_log_grading_is_honest(self, rel):
        # an interior log point next to an inverse-square-root end: the
        # quartic map at x = 0.3 must not make the estimate optimistic,
        # and it needs fewer points than the square-root map
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            truth = float(mp.quad(lambda x: mp.log(abs(x - mp.mpf(0.3)))
                                  / mp.sqrt(1 - x), [0, mp.mpf(0.3), 1]))

        def f(_tid, x):
            return np.log(np.abs(x - 0.3)) / np.sqrt(1.0 - x)

        edges = [np.array([0.0, 0.3, 1.0])]
        counts = {}
        for grading in ("log", "sqrt"):
            v, e, n, ok = _solve_batched(f, edges, rel, 1e-300,
                                         grading=grading)
            assert ok[0]
            assert abs(v[0] - truth) <= e[0]
            counts[grading] = n
        assert counts["log"] < counts["sqrt"]

    def test_quartic_segments_take_the_smaller_error(self):
        # every segment's own error is the smaller of QUADPACK's scaled
        # |K15 - G7| and the null-rule estimate, both formed here from the
        # samples, with null rules of their own (a QR factorization of the
        # Legendre Vandermonde matrix); x = 0.7 -/+ u^4 leaves u^3 log u,
        # on which both laws, made for analytic integrands, can overstate
        # |K15 - G7| itself, so a quartic segment reports the smallest of
        # the three, and that still bounds its true error, here from
        # 100-node Gauss-Legendre on the same mapped segment.  The true
        # error is held to the own error plus the rounding floor, which
        # the engine reports apart
        def f(_tid, x):
            return np.log(np.abs(x - 0.7)) + np.exp(x)

        def generations(tid, kind, anc, lo, hi, n=3):
            # the first wave and its halves, as bisection makes them
            waves = [(tid, kind, anc, lo, hi)]
            for _ in range(n):
                tid, kind, anc, lo, hi = waves[-1]
                mid = 0.5 * (lo + hi)
                waves.append((np.tile(tid, 2), np.tile(kind, 2),
                              np.tile(anc, 2), np.concatenate([lo, mid]),
                              np.concatenate([mid, hi])))
            return tuple(np.concatenate(col) for col in zip(*waves))

        q, _ = np.linalg.qr(np.sqrt(_W15)[:, None]
                            * np.polynomial.legendre.legvander(_X15, 14))
        null = (np.sqrt(_W15)[:, None] * q[:, :8:-1]).T
        null *= (np.linalg.norm(_W15) / np.linalg.norm(null, axis=1))[:, None]

        def estimates(kind, anc, lo, hi):
            h = 0.5 * (hi - lo)
            u = 0.5 * (lo + hi)[:, None] + h[:, None] * _X15[None, :]
            x, jac = _map_nodes(kind, anc, u)
            y = f(None, x) * jac
            resk = h * np.einsum("ij,j->i", y, _W15)
            raw = np.abs(resk - h * np.einsum("ij,j->i", y, _W7))
            mean = (resk / (2.0 * h))[:, None]
            resasc = h * np.einsum("ij,j->i", np.abs(y - mean), _W15)
            scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
            e = np.hypot(*(h[:, None] * np.abs(y @ null.T)).reshape(
                -1, 3, 2).transpose(2, 0, 1))
            r = np.maximum(e[:, 0] / e[:, 1], e[:, 1] / e[:, 2])
            decay = np.where(r <= 0.5, 80.0 * r ** 4 * e[:, 0],
                             np.where(r <= 1.0, 10.0 * r * e[:, 0],
                                      10.0 * e.max(axis=1)))
            return resk, np.minimum(scaled, decay), raw

        edges = [np.array([0.0, 0.7, 2.0])]
        for grading in ("plain", "sqrt", "log"):
            wave = generations(*_build_tasks(edges, grading))
            value, err, floor, prop = _eval_segments(f, *wave)
            resk, own, raw = estimates(*wave[1:])
            assert prop is None
            np.testing.assert_array_equal(value, resk)
            quartic = wave[1] >= _QUARTIC_LEFT
            assert quartic.any() == (grading == "log")
            # the two constructions of the null rules agree to rounding,
            # which the floor covers
            want = np.where(quartic, np.minimum(own, raw), own)
            assert np.all(np.abs(err - want) <= 1e-9 * want + floor)
            if grading != "log":
                continue
            assert np.any(raw[quartic] < own[quartic])
            kind, anc, lo, hi = (a[quartic] for a in wave[1:])
            gl_u, gl_w = np.polynomial.legendre.leggauss(100)
            h = 0.5 * (hi - lo)
            x, jac = _map_nodes(kind, anc,
                                0.5 * (lo + hi)[:, None] + h[:, None] * gl_u)
            true = np.abs(value[quartic] - h * ((f(None, x) * jac) @ gl_w))
            assert np.all(true <= err[quartic] + floor[quartic])

    @pytest.mark.parametrize("rel", [1e-4, 1e-6, 1e-10])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_log_points_report_at_least_the_true_error(self, k, rel):
        # int_0^1 (x - c)^k log|x - c| + e^x dx over 60 log points c, one
        # task each: the quartic segments' smaller error estimate must
        # still never fall below the true error
        c = np.linspace(0.01, 0.99, 60)

        def f(tid, x):
            y = x - c[tid]
            return y ** k * np.log(np.abs(y)) + np.exp(x)

        def anti(y):
            return y ** (k + 1) / (k + 1) * (np.log(np.abs(y)) - 1.0 / (k + 1))

        truth = anti(1.0 - c) - anti(-c) + math.e - 1.0
        edges = np.column_stack([np.zeros(c.size), c, np.ones(c.size)])
        v, e, _, ok = _solve_batched(f, edges, rel, 1e-300, grading="log")
        assert ok.all()
        assert np.all(np.abs(v - truth) <= e)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 1.0, 0.5)

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0),
                                      (0.0, np.nan)])
    def test_non_finite_limits_raise(self, a, b):
        # integrate_1d is finite-range only: an infinite limit is refused,
        # not mapped or truncated behind the caller's back
        with pytest.raises(ValueError, match="finite"):
            integrate_1d(lambda x: np.exp(-np.abs(x)), a, b)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 6)
        cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300)
        with pytest.raises(NonConvergenceError):
            integrate_1d(lambda x: np.sin(50.0 * x) / (x + 1e-3), 0.0, 1.0,
                         cfg)

    def test_result_invariants(self):
        res = integrate_1d(np.cos, 0.0, 1.0)
        assert isinstance(res, IntegralResult)
        assert res.error_estimate >= 0.0
        assert res.evaluations >= 1

    def test_segment_sums_do_not_depend_on_the_slice(self, monkeypatch):
        # a segment's value and errors are the same whether its wave is
        # evaluated whole or one segment per integrand call
        def f(tids, x):
            return (np.exp(-x) * np.cos(3.0 * x) * np.sqrt(x + 0.1),
                    1e-9 * np.abs(np.sin(x)))

        lo = np.linspace(0.0, 3.0, 40)
        wave = (np.arange(40), np.zeros(40, dtype=np.int8), np.zeros(40),
                lo, lo + 0.37)
        whole = _eval_segments(f, *wave)
        monkeypatch.setattr(quadrature_module, "_WAVE_SLICE", 1)
        for a, b in zip(whole, _eval_segments(f, *wave)):
            np.testing.assert_array_equal(a, b)


def _genz_peak(c, w):
    return (lambda x: 1.0 / (c ** -2 + (x - w) ** 2),
            c * (math.atan(c * (1.0 - w)) + math.atan(c * w)))


def _gaussian(c, w):
    return (lambda x: np.exp(-(c * (x - w)) ** 2),
            math.sqrt(math.pi) / (2.0 * c)
            * (math.erf(c * (1.0 - w)) + math.erf(c * w)))


def _oscillatory(c, w):
    phase = 2.0 * math.pi * w
    return (lambda x: np.cos(phase + c * x),
            (math.sin(phase + c) - math.sin(phase)) / c)


_KINK = 0.37


def _kinked(x):
    # C1 at _KINK: the second derivative jumps there
    return (x - _KINK) * np.abs(x - _KINK) + np.exp(x)


_KINKED_TRUTH = ((1.0 - _KINK) ** 3 - _KINK ** 3) / 3.0 + math.e - 1.0
_LOG_POINT_TRUTH = 0.7 * math.log(0.7) + 1.3 * math.log(1.3) - 2.0

# (label, integrand, truth), each on [0, 1] with plain grading
ANALYTIC = [(label, *make(c, w)) for label, make, c, w in (
    ("peak-5", _genz_peak, 5.0, 0.3), ("peak-50", _genz_peak, 50.0, 0.61),
    ("peak-300", _genz_peak, 300.0, 0.5),
    ("gaussian-5", _gaussian, 5.0, 0.4),
    ("gaussian-40", _gaussian, 40.0, 0.77),
    ("gaussian-200", _gaussian, 200.0, 0.123),
    ("oscillatory-20", _oscillatory, 20.0, 0.3),
    ("oscillatory-150", _oscillatory, 150.0, 0.7))]
# (label, integrand, edges, grading, smooth mask, truth)
SINGULAR = [
    ("inv-sqrt-end-sqrt", lambda x: np.exp(x) / np.sqrt(x), [0.0, 1.0],
     "sqrt", None, math.sqrt(math.pi) * sps.erfi(1.0)),
    ("inv-sqrt-end-log", lambda x: np.exp(x) / np.sqrt(x), [0.0, 0.5, 1.0],
     "log", None, math.sqrt(math.pi) * sps.erfi(1.0)),
    ("inv-sqrt-both-ends", lambda x: 1.0 / np.sqrt(x * (1.0 - x)),
     [0.0, 1.0], "sqrt", None, math.pi),
    # the offset of a node from x = 100 is known only to the spacing of
    # 100, which 1 / sqrt(100 - x) amplifies
    ("inv-sqrt-end-at-100", lambda x: x / np.sqrt(100.0 - x), [99.0, 100.0],
     "sqrt", None, 200.0 - 2.0 / 3.0),
    ("log-end-sqrt", lambda x: np.log(x) * np.exp(-x), [0.0, 1.0], "sqrt",
     None, -np.euler_gamma - sps.exp1(1.0)),
    ("log-end-log", lambda x: np.log(x) * np.exp(-x), [0.0, 0.5, 1.0], "log",
     None, -np.euler_gamma - sps.exp1(1.0)),
    ("log-point-sqrt", lambda x: np.log(np.abs(x - 0.7)), [0.0, 0.7, 2.0],
     "sqrt", None, _LOG_POINT_TRUTH),
    ("log-point-log", lambda x: np.log(np.abs(x - 0.7)), [0.0, 0.7, 2.0],
     "log", None, _LOG_POINT_TRUTH),
    ("kink-on-smooth-edge", _kinked, [0.0, _KINK, 1.0], "sqrt",
     [False, True, False], _KINKED_TRUTH),
    ("kink-mid-panel", _kinked, [0.0, 1.0], "plain", None, _KINKED_TRUTH),
]
BATTERY_RELS = (1e-3, 1e-6, 1e-8, 1e-10)


@pytest.mark.parametrize("grading", ["plain", "sqrt", "log"])
@pytest.mark.parametrize("masked", [False, True], ids=["bare", "smooth"])
@pytest.mark.parametrize("kind", ["real", "complex", "yerr"])
def test_each_task_of_a_batch_solves_as_it_would_alone(grading, masked,
                                                       kind):
    # a task's value, error and convergence depend on its own segments
    # alone: a batch of seeded tasks gives each the bits of its own
    # one-task solve, whatever the tasks beside it and however long they
    # refine.  Even tasks are broad and odd ones narrow peaks
    rng = np.random.default_rng(37)
    n = 6
    edges = np.sort(rng.uniform(0.0, 2.0, (n, 5)), axis=1)
    edges[0, 3:] = edges[0, 2]      # a padded row
    smooth = rng.random(edges.shape) < 0.5 if masked else None
    centre = rng.uniform(0.2, 1.8, n)
    width = np.where(np.arange(n) % 2, 0.01, 1.5)
    phase = 1.0 + 0.5j if kind == "complex" else 1.0

    def task(k):
        def f(tid, x):
            j = k[tid]
            y = np.exp(-((x - centre[j]) / width[j]) ** 2) * phase + x
            return (y, 1e-14 * np.abs(y)) if kind == "yerr" else y
        return f

    batch = _solve_batched(task(np.arange(n)), edges, 1e-9, 1e-300,
                           grading=grading, smooth=smooth)
    first_wave = []
    for k in range(n):
        alone = _solve_batched(
            task(np.array([k])), edges[k:k + 1], 1e-9, 1e-300,
            grading=grading, smooth=None if smooth is None else smooth[k:k + 1])
        for got, want in zip((batch[0], batch[1], batch[3]),
                             (alone[0], alone[1], alone[3])):
            assert got[k:k + 1].tobytes() == want.tobytes()
        first_wave.append(alone[2] == 15 * _build_tasks(
            edges[k:k + 1], grading,
            None if smooth is None else smooth[k:k + 1])[0].size)
    # some task converged on its first wave and some bisected
    assert any(first_wave) and not all(first_wave)


def _battery_solve(f, edges, grading, smooth, rel):
    v, e, _, ok = _solve_batched(
        lambda _tid, x: f(x), [np.array(edges)], rel, 1e-300,
        grading=grading, smooth=None if smooth is None else [np.array(smooth)])
    assert ok[0]
    return v[0], e[0]


class TestErrorEstimate:
    # the own error of a segment is the smaller of QUADPACK's scaled
    # |K15 - G7| and a null-rule estimate (see the quadrature module)

    def test_null_rules(self):
        # rows p_14 .. p_9: each sums every polynomial below its degree to
        # zero but not its own, the rows are orthogonal under the inverse
        # K15 weights, each has the norm of the K15 weights, and the first
        # is K15 - G7 up to sign and scale
        legendre = np.polynomial.legendre.legvander(_X15, 14)
        for row, degree in zip(_NULL, range(14, 8, -1)):
            assert np.all(np.abs(row @ legendre[:, :degree]) <= 1e-15)
            assert abs(row @ legendre[:, degree]) > 1e-2
        gram = (_NULL / _W15) @ _NULL.T
        np.testing.assert_allclose(gram - np.diag(np.diag(gram)), 0.0,
                                   atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(_NULL, axis=1),
                                   np.linalg.norm(_W15), rtol=1e-14)
        np.testing.assert_allclose(np.abs(_W15 - _W7),
                                   _KG_PER_NULL * np.abs(_NULL[0]),
                                   atol=1e-16)

    @np.errstate(divide="ignore", invalid="ignore")
    def test_null_error_branches(self):
        # decay ratio r = max(E1 / E2, E2 / E3): 80 r^4 E1 up to r = 1/2,
        # 10 r E1 up to 1 (the two meet at 1/2), 10 max(E) beyond, and
        # no error for samples every null rule sums to zero
        pairs = np.array([[1e-6, 1e-5, 1e-4], [2e-6, 4e-6, 8e-6],
                          [4e-6, 5e-6, 6.25e-6], [3e-6, 1e-6, 2e-6],
                          [1e-6, 0.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(
            _null_error(*pairs.T),
            [80.0 * 1e-4 * 1e-6, 10.0 * 0.5 * 2e-6, 10.0 * 0.8 * 4e-6,
             10.0 * 3e-6, 10.0 * 1e-6, 0.0], rtol=1e-14)

    @pytest.mark.parametrize("rel", BATTERY_RELS)
    @pytest.mark.parametrize("case", ANALYTIC + SINGULAR, ids=lambda c: c[0])
    def test_reported_error_not_below_the_true_error(self, case, rel):
        # own, propagated and floor errors together
        if len(case) == 3:
            _, f, truth = case
            edges, grading, smooth = [0.0, 1.0], "plain", None
        else:
            _, f, edges, grading, smooth, truth = case
        value, err = _battery_solve(f, edges, grading, smooth, rel)
        assert abs(value - truth) <= err

    @pytest.mark.parametrize("case", ANALYTIC, ids=lambda c: c[0])
    def test_reported_error_tracks_the_true_error(self, case):
        # at rel 1e-10 an analytic integrand reports at most 1e3 times its
        # true error or the rounding floor 50 eps int |f|.  At looser
        # requests the last wave's true error falls 1e4 to 1e6 below any
        # estimate that stays honest (peak-5 at rel 1e-3: 1.5e-4 reported,
        # 4.2e-9 true; QUADPACK's law alone reported 1.1e-2)
        _, f, truth = case
        x = np.linspace(0.0, 1.0, 100_001)
        l1 = np.trapezoid(np.abs(f(x)), x)
        value, err = _battery_solve(f, [0.0, 1.0], "plain", None, 1e-10)
        floor = 50.0 * np.finfo(float).eps * l1
        assert err <= 1e3 * max(abs(value - truth), floor)

    def test_inverse_sqrt_end_off_zero_adds_its_rounding_to_the_floor(self):
        # x / sqrt(100 - x) maps to 2 (100 - u^2) on the half panel graded
        # toward 100, which K15 integrates exactly, so its own error and
        # 50 eps int |f| are at rounding level; its true error comes from
        # x = 100 - u^2 being rounded to the spacing of 100, which
        # 1 / sqrt(100 - x) amplifies near 100, and its floor carries it
        def f(_tid, x):
            return x / np.sqrt(100.0 - x)

        tid, kind, anc, lo, hi = _build_tasks([np.array([99.0, 100.0])],
                                              "sqrt")
        value, err, floor, _ = _eval_segments(f, tid, kind, anc, lo, hi)
        assert kind.tolist() == [_SQRT_LEFT, _SQRT_RIGHT]
        half = 0.5 ** 0.5
        truth = 200.0 * half - 2.0 / 3.0 * half ** 3
        true = abs(value[1] - truth)
        rounding = 50.0 * np.finfo(float).eps * truth
        assert err[1] + rounding < true <= err[1] + floor[1]

    @pytest.mark.parametrize("a", [1.0, 9.0, 99.0, 999.0])
    def test_inverse_sqrt_end_at_a_large_anchor_is_honest(self, a):
        # int_a^{a+1} x / sqrt(a + 1 - x) dx = 2 (a + 1) - 2 / 3.  At rel
        # 1e-10 the end at 1000 bisects until x = 1000 - u^2 rounds to
        # the spacing of 1000 at every node of the segment next to it,
        # whose samples then fall on a line in u: its null rules read 0
        # while its true error is 3.4e-4.  The floor carries such nodes
        # (1000 reported 1.1e-4 against a deviation of 3.2e-4 without)
        b = a + 1.0

        def f(_tid, x):
            return x / np.sqrt(b - x)

        value, err, _, ok = _solve_batched(f, [np.array([a, b])], 1e-10,
                                           1e-300, grading="sqrt")
        assert abs(value[0] - (2.0 * b - 2.0 / 3.0)) <= err[0]
        assert ok[0] or a == 999.0

class TestIterated:
    def test_unit_square(self):
        res = integrate_nested(lambda x, y: np.ones_like(x),
                               [(0.0, 1.0), (0.0, 1.0)], TIGHT)
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_triangle(self):
        res = integrate_nested(lambda x, y: np.ones_like(x),
                               [(0.0, 1.0), (0.0, lambda x: x)], TIGHT)
        assert res.value == pytest.approx(0.5, rel=1e-10)

    def test_double_sqrt_singular_pattern(self):
        # exp(-x1)/sqrt((x1^2-1)(1-x2^2)) over [1,inf) x [0,1]: the exact
        # edge-singularity pattern of the two-Born-factor term; equals
        # (pi/2) K_0(1) by x1 = cosh(u), x2 = sin(v)
        cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13)

        def f(x1, x2):
            return np.exp(-x1) / np.sqrt((x1 * x1 - 1.0) * (1.0 - x2 * x2))

        res = integrate_nested(f, [(1.0, 45.0), (0.0, 1.0)], cfg)
        truth = 0.5 * math.pi * sps.k0(1.0)
        assert res.value == pytest.approx(truth, rel=1e-6)
        # cross-check against a fixed-grid oracle in substituted variables
        u = np.linspace(0.0, math.acosh(45.0), 20001)
        grid = np.trapezoid(np.exp(-np.cosh(u)), u) * (math.pi / 2.0)
        assert res.value == pytest.approx(grid, rel=1e-6)

    def test_triple_box(self):
        res = integrate_nested(lambda x, y, z: np.ones_like(x),
                               [(0.0, 2.0), (0.0, 1.0), (0.0, 0.5)],
                               QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12))
        assert res.value == pytest.approx(1.0, rel=1e-8)

    def test_triple_simplex(self):
        res = integrate_nested(
            lambda x, y, z: np.ones_like(x),
            [(0.0, 1.0), (0.0, lambda x: x), (0.0, lambda x, y: y)],
            QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12))
        assert res.value == pytest.approx(1.0 / 6.0, rel=1e-8)

    def test_zero_inherited_error_changes_nothing(self):
        # an integrand that returns yerr = 0 takes the path of one that
        # returns no yerr, value, error and evaluations alike
        def plain(_tid, x):
            return np.log(np.abs(x - 0.3))

        def nested(tid, x):
            return plain(tid, x), np.zeros_like(x)

        edges = np.array([[0.0, 0.3, 1.0], [0.0, 2.0, 2.0]])
        for grading in ("plain", "log"):
            a = _solve_batched(plain, edges, 1e-9, 1e-300, grading=grading)
            b = _solve_batched(nested, edges, 1e-9, 1e-300, grading=grading)
            for got, want in zip(b, a):
                np.testing.assert_array_equal(got, want)

    def test_inherited_error_stops_a_task_at_once(self):
        # the inner errors integrate to 1e-6 while the value is about 0:
        # no bisection can help, so the first wave must stop the solve
        # instead of splitting up to _MAX_SUBDIVISIONS
        calls = [0]

        def f(_tid, x):
            calls[0] += 1
            return np.sin(2.0 * math.pi * x), np.full_like(x, 1e-6)

        with pytest.raises(_InheritedError, match="inherited error"):
            _solve_batched(f, [np.array([0.0, 1.0])], 1e-6, 1e-12,
                           grading="plain")
        assert calls[0] == 1

    def test_inherited_error_leaves_a_smaller_split_budget(self):
        # with half the target taken by inherited error the task still
        # converges, on its own error below the other half
        def f(_tid, x):
            return np.exp(x), np.full_like(x, 0.5e-8 * math.e)

        v, e, _, ok = _solve_batched(f, [np.array([0.0, 1.0])], 1e-8,
                                     1e-300, grading="plain")
        assert ok[0]
        assert abs(v[0] - (math.e - 1.0)) <= 1e-8 * (math.e - 1.0)
        assert e[0] <= 1e-8 * v[0]

    @pytest.mark.parametrize("inner, eps, runs", [
        ("log", 0.01, ["inherited", "inherited", "converged"]),
        ("damped_cosine", 0.03, ["converged"]),
        ("damped_cosine", 3e-3, ["inherited"] * 3 + ["converged"]),
    ], ids=["log_y", "damped_cosine_eps_3e-2", "damped_cosine_eps_3e-3"])
    def test_cancelling_outer_integral_reruns_tighter(self, monkeypatch,
                                                      inner, eps, runs):
        # the inner y-integrals are of order 1 (log y) or 1e-2 (e^-30y
        # cos 40y), and the outer x-integral cancels to eps times that: at
        # the same relative tolerance their errors alone may exceed its
        # target.  The guard stops such an attempt in its first wave, and
        # the rerun with tighter inner levels converges with an honest
        # error.  log y under the square-root map converges
        # algebraically, so each tighter inner level reports a smaller
        # error and 100x suffices.  On e^-30y cos 40y K15 converges
        # geometrically: at eps 0.03 the first attempt converges, and at
        # 3e-3 the inner levels report the same error at 1x, 10x and 100x,
        # far below their own targets, until 1000x makes them bisect
        real = quadrature_module._solve_batched
        depth = [0]
        outer_runs = []

        def spy(f, edges, *args, **kwargs):
            if depth[0]:
                return real(f, edges, *args, **kwargs)
            waves = [0]

            def counted(tid, x):
                waves[0] += 1
                return f(tid, x)

            depth[0] += 1
            try:
                out = real(counted, edges, *args, **kwargs)
            except _InheritedError:
                outer_runs.append(("inherited", waves[0]))
                raise
            finally:
                depth[0] -= 1
            outer_runs.append(("converged", waves[0]))
            return out

        monkeypatch.setattr(quadrature_module, "_solve_batched", spy)
        if inner == "log":
            def f(x, y):
                return (np.sin(2.0 * math.pi * x) + eps) * np.log(y)

            truth = -eps
        else:
            def f(x, y):
                return ((np.sin(2.0 * math.pi * x) + eps)
                        * np.exp(-30.0 * y) * np.cos(40.0 * y))

            truth = eps * (30.0 - math.exp(-30.0) * (
                30.0 * math.cos(40.0) - 40.0 * math.sin(40.0))) / 2500.0
        res = integrate_nested(f, [(0.0, 1.0), (0.0, 1.0)],
                               QuadratureConfig(rel_tol=1e-8, abs_tol=1e-300))
        assert [kind for kind, _ in outer_runs] == runs
        assert all(waves == 1 for _, waves in outer_runs[:-1])
        assert abs(res.value - truth) <= res.error_estimate
        assert res.error_estimate <= 1e-8 * abs(truth)

    def test_each_inner_task_divides_its_own_task_abs_tol_by_its_span(
            self, monkeypatch):
        # one level down keeps the relative tolerance; the absolute one of
        # each inner task is that of the middle task whose node started
        # it, divided by that task's span (never multiplied, for spans
        # below 1), so that inner errors integrated over the task fit its
        # budget.  The middle tasks y in [0, x] span 0 to 4, so the inner
        # tolerances differ from node to node
        real = quadrature_module._solve_batched
        depth = [0]
        # per middle call: its rows, its abs_tol per task and the task ids
        # of the nodes it is evaluating; per inner call: its abs_tol per
        # task and what its middle call held when it started
        middle = []
        inner = []
        rels = []

        def spy(g, edges, rel_tol, abs_tol, *args, **kwargs):
            d = depth[0]
            rels.append(rel_tol)
            abs_tol = np.broadcast_to(abs_tol, (len(edges),)).copy()
            if d == 1:
                entry = (np.asarray(edges), abs_tol, [None])

                def tracked(tids, x):
                    entry[2][0] = tids
                    return g(tids, x)

                middle.append(entry)
                call = tracked
            else:
                call = g
                if d == 2:
                    rows, mid_abs, tids = middle[-1]
                    inner.append((abs_tol, rows, mid_abs, tids[0]))
            depth[0] += 1
            try:
                return real(call, edges, rel_tol, abs_tol, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(quadrature_module, "_solve_batched", spy)
        cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-9)
        res = integrate_nested(lambda x, y, z: np.exp(-x * y) * np.cos(z),
                               [(0.0, 4.0), (0.0, lambda x: x),
                                (0.0, lambda x, y: 1.0 + y)], cfg)
        assert res.value > 0.0
        assert set(rels) == {1e-7}
        for _, abs_tol, _ in middle:
            # the one outer task spans 4
            np.testing.assert_array_equal(abs_tol, 1e-9 / 4.0)
        values = set()
        for abs_tol, rows, mid_abs, tids in inner:
            span = np.maximum(rows[:, -1] - rows[:, 0], 1.0)
            np.testing.assert_array_equal(abs_tol, mid_abs[tids] / span[tids])
            values.update(abs_tol.tolist())
        assert len(values) > 1

    def test_inherited_stop_reruns_each_task_alone(self):
        # a three-task nest whose attempt stops on inherited error solves
        # each level-0 task again as a nest of its own, with a ladder of
        # its own.  Task 1's inner level raises in the batch and once more
        # in its own first attempt, so it alone reruns 10x tighter; tasks
        # 0 and 2 return the values, errors and evaluations of their own
        # one-task nests.  The batch raised before any innermost point
        cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-300)

        def solve(tasks, forced_task=1.0, times=0):
            left = [times]

            def inner_rows(task, x):
                if left[0] and (task == forced_task).any():
                    left[0] -= 1
                    raise _InheritedError("forced")
                return np.column_stack([np.zeros_like(x), np.ones_like(x)])

            def f(task, x, y):
                return (np.sin(2.0 * math.pi * x) + 2.0 + task) * np.log(y)

            return _iterated(
                f, [(_limits(0.0, 1.0), "plain", None),
                    (inner_rows, "sqrt", None)],
                cfg, outer=(np.asarray(tasks, dtype=float),))

        batch = solve([0.0, 1.0, 2.0], times=2)
        alone = [solve([0.0]), solve([1.0], times=1), solve([2.0])]
        for k, res in enumerate(alone):
            assert batch.value[k] == res.value[0]
            assert batch.error_estimate[k] == res.error_estimate[0]
        assert batch.evaluations == sum(res.evaluations for res in alone)
        # task 1 climbed its ladder: 10x tighter costs more than 1x
        assert alone[1].evaluations > solve([1.0]).evaluations


class TestNestedQuadrature:
    # _iterated's per-level specs (edges, grading, weight) and its
    # strict flag

    @staticmethod
    def _levels(w0=None, w1=None):
        return [(_limits(0.0, 1.0), "plain", w0),
                (_limits(0.0, lambda x: x), "sqrt", w1),
                (_limits(lambda x, y: y, lambda x, y: 1.0 + x), "log", None)]

    def test_weights_equal_the_folded_integrand_once_per_node(
            self, monkeypatch):
        def f(x, y, z):
            return np.cos(x * z) * np.exp(-y * z)

        def w0(x):
            return 1.0 + x * x

        def w1(x, y):
            return np.exp(-x * y) * (1.0 + y)

        cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-14)
        folded = _iterated(lambda x, y, z: f(x, y, z) * w0(x) * w1(x, y),
                           self._levels(), cfg)

        # integrand points per solve depth, and weight points per level
        real = quadrature_module._solve_batched
        depth = [0]
        nodes = [0, 0, 0]
        formed = [0, 0]

        def spy(g, edges, *args, **kwargs):
            d = depth[0]

            def counted(tids, x):
                nodes[d] += x.size
                return g(tids, x)

            depth[0] += 1
            try:
                return real(counted, edges, *args, **kwargs)
            finally:
                depth[0] -= 1

        def counted_w0(x):
            formed[0] += x.size
            return w0(x)

        def counted_w1(x, y):
            formed[1] += x.size
            return w1(x, y)

        monkeypatch.setattr(quadrature_module, "_solve_batched", spy)
        weighted = _iterated(f, self._levels(counted_w0, counted_w1), cfg)
        assert abs(weighted.value - folded.value) <= (
            weighted.error_estimate + folded.error_estimate)
        assert weighted.error_estimate <= 1e-9 * abs(weighted.value)
        assert formed == nodes[:2]
        assert nodes[2] == weighted.evaluations

    def test_strict_raises_and_lenient_propagates_an_inner_failure(
            self, monkeypatch):
        # one inner task reports failure with its usual error: strict=False
        # returns what the unforced nest returns, error included; the
        # default raises
        def f(x, y, z):
            return np.exp(x * y - z)

        cfg = QuadratureConfig(rel_tol=1e-8)
        want = _iterated(f, self._levels(), cfg)
        real = quadrature_module._solve_batched
        depth = [0]

        def solve(*args, **kwargs):
            inner = depth[0] > 0
            depth[0] += 1
            try:
                vals, errs, evals, ok = real(*args, **kwargs)
            finally:
                depth[0] -= 1
            if inner:
                ok = ok.copy()
                ok[0] = False
            return vals, errs, evals, ok

        monkeypatch.setattr(quadrature_module, "_solve_batched", solve)
        got = _iterated(f, self._levels(), cfg, strict=False)
        assert (got.value, got.error_estimate, got.evaluations) == (
            want.value, want.error_estimate, want.evaluations)
        with pytest.raises(NonConvergenceError, match="did not converge"):
            _iterated(f, self._levels(), cfg)


    def test_wave_slices_change_no_result(self, monkeypatch):
        # one segment per integrand call, at every level, gives every
        # value, error and count of whole waves.  The middle tasks here
        # reach width 8, and each inner task's absolute tolerance, which
        # binds for this decaying integrand, comes from its own middle
        # task alone, so no slice can change it
        def f(x, y, z):
            return np.exp(-2.0 * (x + y + z)) * np.cos(y * z)

        levels = [(_limits(0.0, 8.0), "plain", None),
                  (_limits(0.0, lambda x: x), "plain", None),
                  (_limits(0.0, lambda x, y: x + y), "plain", None)]
        cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-6)
        whole = _iterated(f, levels, cfg)

        real = quadrature_module._solve_batched
        depth = [0]
        widest = [0, 0, 0]

        def spy(g, *args, **kwargs):
            d = depth[0]

            def counted(tids, x):
                widest[d] = max(widest[d], x.size)
                return g(tids, x)

            depth[0] += 1
            try:
                return real(counted, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(quadrature_module, "_solve_batched", spy)
        monkeypatch.setattr(quadrature_module, "_WAVE_SLICE", 1)
        sliced = _iterated(f, levels, cfg)
        assert widest == [15, 15, 15]
        assert (sliced.value, sliced.error_estimate, sliced.evaluations) == (
            whole.value, whole.error_estimate, whole.evaluations)


class TestDampedOracle:
    def test_triangle_case(self):
        res = integrate_damped_bessel_product((3.0, 4.0, 5.0))
        assert res.value == pytest.approx(1.0 / (12.0 * math.pi), rel=1e-5)

    def test_vanishing_case(self):
        res = integrate_damped_bessel_product((1.0, 1.0, 1.0, 4.0))
        assert abs(res.value) < 1e-6

    def test_divergent_case_raises(self):
        with pytest.raises(ExtrapolationDivergenceError):
            integrate_damped_bessel_product((1.0, 1.0, 2.0))

    def test_p_sequence_validation(self):
        with pytest.raises(ValueError):
            integrate_damped_bessel_product((3.0, 4.0, 5.0),
                                            p_sequence=(0.2, 0.1))
        with pytest.raises(ValueError):
            integrate_damped_bessel_product((3.0, 4.0, 5.0),
                                            p_sequence=(0.1, 0.2, 0.3))

    def test_param_count_validation(self):
        with pytest.raises(ValueError):
            integrate_damped_bessel_product((1.0,))
        with pytest.raises(ValueError):
            integrate_damped_bessel_product((1.0,) * 7)

    def test_two_parameters_off_diagonal_vanish(self):
        # n = 2: the underlying object is delta(a-b)/a, so away from the
        # diagonal the damped family extrapolates to zero
        res = integrate_damped_bessel_product((1.0, 2.0))
        assert abs(res.value) < 1e-6

    def test_two_parameters_on_diagonal_diverges(self):
        # on the diagonal the damped values grow like 1/p: a divergence
        # the extrapolation must flag, mirroring the delta spike
        with pytest.raises(ExtrapolationDivergenceError):
            integrate_damped_bessel_product((1.0, 1.0))

    def test_default_sequence(self):
        assert DEFAULT_P_SEQUENCE == (0.2, 0.1, 0.05, 0.025)
        assert all(a > b for a, b in zip(DEFAULT_P_SEQUENCE,
                                         DEFAULT_P_SEQUENCE[1:]))


class TestConfigValidation:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=-1.0)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_tolerances(self, field, value):
        # an infinite tolerance asks for nothing: the first wave would
        # pass; any positive finite one is kept, above 1 too, since A3
        # derives its slab tolerances with dataclasses.replace
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(**{field: value})
        QuadratureConfig(**{field: 5.0})

    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-6
        assert cfg.abs_tol == 1e-12


class TestSingleEntry:
    def test_solve_batched_is_called_only_from_iterated(self):
        # every integral in eikamp enters the engine through _iterated:
        # no other function of the package calls _solve_batched
        src = Path(quadrature_module.__file__).parent
        calls = []

        def visit(node, owners):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners = owners + (node.name,)
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(
                    fn, "attr", None)
                if name == "_solve_batched":
                    calls.append((path.name, owners))
            for child in ast.iter_child_nodes(node):
                visit(child, owners)

        for path in sorted(src.glob("*.py")):
            visit(ast.parse(path.read_text()), ())
        assert len(calls) == 1
        name, owners = calls[0]
        assert name == "quadrature.py" and owners[0] == "_iterated"

    def test_wave_sums_start_no_blas_threads(self):
        # a matrix-vector product would hand the Gauss-Kronrod sums to the
        # BLAS thread pool, which burns a second core for no wall time:
        # _eval_segments reduces each row itself
        tree = ast.parse(Path(quadrature_module.__file__).read_text())
        fn = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_eval_segments")
        products = [
            node for node in ast.walk(fn)
            if isinstance(getattr(node, "op", None), ast.MatMult)
            or (isinstance(node, ast.Attribute)
                and node.attr in ("dot", "matmul", "vdot", "inner",
                                  "tensordot"))]
        assert products == []
