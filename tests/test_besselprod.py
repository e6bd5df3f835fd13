"""Closed forms F3/F4, branch classification, the G kernel, the Weber
integral, and F5/F6 against 30-digit values."""

import functools
import itertools
import math

import numpy as np
import pytest

from eikamp import (BoundaryCaseError, Branch, QuadratureConfig,
                    bessel_i0e, delta3_sq, delta4_sq, f3_eval, f4_classify,
                    f4_eval, f5_eval, f6_eval, weber_integral)
from eikamp.besselprod import (_M1_FLOOR, _PI2, _delta4_sq_values,
                               _f3_values, _f4_modulus_one_points,
                               _f4_support_lo, _f4_values, _g_values,
                               _modulus_one_gap)
from eikamp.special import _elliptic_k_core
from helpers import f5_f6_mpmath, integrate_1d

TIGHT = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14)


class TestDiscriminants:
    def test_delta3_heron(self):
        # Delta3 is 4x the triangle area: (3,4,5) right triangle -> area 6
        assert delta3_sq(3.0, 4.0, 5.0) == pytest.approx(36.0, rel=1e-14)

    def test_delta3_permutation_bitwise(self):
        vals = {delta3_sq(*p) for p in itertools.permutations((1.3, 2.7, 3.1))}
        assert len(vals) == 1

    def test_delta4_factored_vs_four_factor(self):
        # 16 Delta4^2 is also the product of the four signed sums
        # (a+b+c-d)(a+b+d-c)(a+c+d-b)(b+c+d-a)
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b, c, d = sorted(rng.uniform(0.3, 4.0, size=4))
            s = a + b + c + d
            f2 = (s - 2 * d) * (s - 2 * c) * (s - 2 * b) * (s - 2 * a) / 16.0
            assert delta4_sq(a, b, c, d) == pytest.approx(f2, rel=1e-12,
                                                          abs=1e-14)

    def test_delta4_permutation_bitwise(self):
        vals = {delta4_sq(*p)
                for p in itertools.permutations((0.8, 1.1, 2.0, 2.5))}
        assert len(vals) == 1

    def test_zero_reduction_and_negative_rejection(self):
        # zeros are legal in the invariants (the d -> 0 reduction relies
        # on them); negatives are not, and the evaluators additionally
        # require strictly positive scales
        assert delta4_sq(1.0, 2.0, 2.5, 0.0) == pytest.approx(
            delta3_sq(1.0, 2.0, 2.5), rel=1e-12)
        with pytest.raises(ValueError):
            delta3_sq(-0.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            delta4_sq(1.0, -1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            f3_eval(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            f4_eval(1.0, 0.0, 1.0, 1.0)


class TestF3:
    def test_right_triangle(self):
        assert f3_eval(3.0, 4.0, 5.0) == pytest.approx(1.0 / (12.0 * math.pi),
                                                       rel=1e-14)

    def test_no_triangle_vanishes(self):
        assert f3_eval(1.0, 2.0, 5.0) == 0.0

    def test_degenerate_triangle_raises(self):
        with pytest.raises(BoundaryCaseError):
            f3_eval(1.0, 1.0, 2.0)

    def test_permutation_invariance(self):
        vals = {f3_eval(*p) for p in itertools.permutations((1.1, 1.9, 2.4))}
        assert len(vals) == 1

    def test_positive_on_support(self):
        rng = np.random.default_rng(2)
        n = 0
        while n < 30:
            a, b, c = rng.uniform(0.5, 5.0, size=3)
            if delta3_sq(a, b, c) > 0.1:
                assert f3_eval(a, b, c) > 0.0
                n += 1


class TestF4Classification:
    def test_super_branch(self):
        rep = f4_classify(3.0, 4.0, 5.0, 0.1)
        assert rep.branch is Branch.SUPER
        assert rep.delta_sq > rep.product_abcd

    def test_sub_branch(self):
        rep = f4_classify(0.5, 0.6, 2.0, 2.2)
        assert rep.branch is Branch.SUB
        assert 0.0 < rep.delta_sq < rep.product_abcd

    def test_vanish_branch(self):
        rep = f4_classify(1.0, 1.0, 1.0, 4.0)
        assert rep.branch is Branch.VANISH
        assert rep.delta_sq < 0.0

    def test_zero_boundary(self):
        rep = f4_classify(1.0, 1.0, 1.0, 3.0)
        assert rep.branch is Branch.BOUNDARY
        assert rep.boundary_kind == "zero"

    def test_modulus_one_boundary(self):
        rep = f4_classify(1.0, 1.0, 1.0, 1.0)
        assert rep.branch is Branch.BOUNDARY
        assert rep.boundary_kind == "modulus_one"

    def test_classification_permutation_invariant(self):
        for params in ((3.0, 4.0, 5.0, 0.1), (0.5, 0.6, 2.0, 2.2),
                       (1.0, 1.0, 1.0, 4.0)):
            branches = {f4_classify(*p).branch
                        for p in itertools.permutations(params)}
            assert len(branches) == 1


class TestF4Values:
    def test_zero_boundary_jump_value(self):
        assert f4_eval(1.0, 1.0, 1.0, 3.0) == pytest.approx(
            1.0 / (2.0 * math.pi * math.sqrt(3.0)), rel=1e-14)

    def test_vanish(self):
        assert f4_eval(1.0, 1.0, 1.0, 4.0) == 0.0

    def test_modulus_one_raises(self):
        with pytest.raises(BoundaryCaseError):
            f4_eval(1.0, 1.0, 1.0, 1.0)

    def test_small_fourth_argument_approaches_f3(self):
        target = f3_eval(3.0, 4.0, 5.0)
        got = f4_eval(3.0, 4.0, 5.0, 1e-6)
        assert abs(got - target) / target < 1e-4

    def test_consistency_chain_convergence_order(self):
        # |F4(a,b,c,eps) - F3(a,b,c)| must shrink with order >= 1 in eps
        a, b, c = 2.0, 2.5, 3.0
        target = f3_eval(a, b, c)
        errs = [abs(f4_eval(a, b, c, eps) - target) / target
                for eps in (1e-2, 1e-3, 1e-4)]
        assert errs[2] <= 1e-3
        order01 = math.log10(errs[0] / errs[1])
        order12 = math.log10(errs[1] / errs[2])
        assert order01 >= 1.0
        assert order12 >= 1.0

    def test_permutation_invariance(self):
        for params in ((3.0, 4.0, 5.0, 0.1), (0.5, 0.6, 2.0, 2.2),
                       (1.3044872137612549, 1.067516963558979,
                        1.579627444597215, 0.5543205160881426)):
            vals = {f4_eval(*p) for p in itertools.permutations(params)}
            assert len(vals) == 1

    def test_positive_on_support(self):
        rng = np.random.default_rng(4)
        n = 0
        while n < 30:
            p = rng.uniform(0.5, 3.0, size=4)
            rep = f4_classify(*p)
            if rep.branch in (Branch.SUPER, Branch.SUB):
                assert f4_eval(*p) > 0.0
                n += 1


class TestVectorizedValues:
    @staticmethod
    def broadcast_f3(a, b, c):
        # the explicitly broadcast form of _f3_values
        a, b, c = np.broadcast_arrays(*(np.asarray(v, float)
                                        for v in (a, b, c)))
        d2 = ((c * c - (a - b) ** 2) * ((a + b) ** 2 - c * c)) / 16.0
        out = np.zeros_like(d2)
        pos = d2 > 0.0
        out[pos] = 1.0 / (2.0 * math.pi * np.sqrt(d2[pos]))
        return out

    @staticmethod
    def broadcast_f4(a, b, c, d):
        # the explicitly broadcast form of _f4_values
        a, b, c, d = np.broadcast_arrays(*(np.asarray(v, float)
                                           for v in (a, b, c, d)))
        d2 = _delta4_sq_values(a, b, c, d)
        gap = _modulus_one_gap(a, b, c, d)
        den = np.where(gap > 0.0, d2, a * b * c * d)
        out = np.zeros(d2.shape)
        live = d2 >= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            m1 = np.maximum(np.abs(gap[live]) / den[live], _M1_FLOOR)
        out[live] = _elliptic_k_core(m1) / (_PI2 * np.sqrt(den[live]))
        return out

    def test_scalar_sides_broadcast_to_the_bit(self):
        # F5 and F6 call _f3_values and _f4_values with scalar parameters
        # against an array of t: letting the arithmetic broadcast the
        # scalars gives the explicitly broadcast values bit for bit, on
        # draws where every fifth one vanishes (one parameter 1.25 to 1.6
        # times the sum of the others) and on t spanning both supports.
        # The first draw has a + b = 1.5070..., whose square as a numpy
        # scalar ** 2 is one ulp off the array's; about 1 in 1,000 values
        # is, so the draws are many
        rng = np.random.default_rng(21)
        draws = [np.array([0.6285940564053194, 0.8784229233302765,
                           1.7440278689382005])]
        for k in range(1, 1500):
            p = rng.uniform(0.5, 2.0, 3)
            if k % 5 == 0:
                p[k % 3] = rng.uniform(1.25, 1.6) * (p.sum() - p[k % 3])
            draws.append(p)
        for p in draws:
            t = np.concatenate([rng.uniform(0.0, 8.0, 20), p])
            a, b, c = map(float, p)
            for got, want in ((_f3_values(a, b, t), self.broadcast_f3(a, b, t)),
                              (_f4_values(a, b, c, t),
                               self.broadcast_f4(a, b, c, t)),
                              (_f4_values(t, a, b, c),
                               self.broadcast_f4(t, a, b, c))):
                assert got.shape == want.shape == t.shape
                assert got.tobytes() == want.tobytes()


def g_kernel(xp, xm, x3):
    """A3's kernel G(xp, xm, x3) at one point, through
    :func:`_g_values` and A3's variables x1 = xp + xm, x2 = xp - xm."""
    return float(_g_values(np.array([xp + xm]), np.array([xp - xm]),
                           np.array([float(x3)]))[0])


class TestGKernel:
    def test_identity_with_f4_unit_argument(self):
        # G = F4(xp, xm, x3, 1) against the scalar branch table
        rng = np.random.default_rng(9)
        n = 0
        while n < 100:
            x, xp, xpp = rng.uniform(0.2, 3.0, size=3)
            rep = f4_classify(x, xp, xpp, 1.0)
            if rep.branch is Branch.BOUNDARY:
                continue
            assert g_kernel(x, xp, xpp) == pytest.approx(
                f4_eval(x, xp, xpp, 1.0), rel=1e-10)
            n += 1

    def test_zero_arguments_allowed(self):
        # the triple integral touches x2 = x1 where one scaled momentum
        # vanishes; the kernel must continue to the three-factor value
        # there, not raise (the xp xm x3 measure factor in the integrand
        # already kills the contribution)
        assert g_kernel(1.0, 0.0, 1.0) == pytest.approx(
            f3_eval(1.0, 1.0, 1.0), rel=1e-12)

    def test_outside_support(self):
        # xp beyond xm + x3 + 1, i.e. x3 below x2 - 1
        assert g_kernel(5.0, 1.0, 1.0) == 0.0


class TestModulusOneClamp:
    def test_vectorized_kernels_finite_at_modulus_one(self):
        # x3 = 1 + xp - xm = 1 + x2 is a log-singular point of G; with
        # these binary fractions Delta4^2 = abcd holds exactly, so the
        # complementary parameter is exactly 0 and only its floor keeps K
        # (and G) finite there: both kernels give K at the floor on the
        # SUB branch
        x1, x2, x3 = np.array([1.0]), np.array([0.5]), np.array([1.5])
        xp, xm = 0.5 * (x1 + x2), 0.5 * (x1 - x2)
        assert _delta4_sq_values(xp, xm, x3, 1.0) == xp * xm * x3
        expected = (_elliptic_k_core(_M1_FLOOR)
                    / (math.pi ** 2 * np.sqrt(xp * xm * x3)))
        g, f4 = _g_values(x1, x2, x3), _f4_values(xp, xm, x3, 1.0)
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(f4))
        assert g == f4
        assert g == pytest.approx(expected, rel=1e-15)


class TestGFromRegionVariables:
    def test_matches_f4_at_unit_fourth_side(self):
        # G from (x1, x2, x3) against the generic F4 evaluator at
        # (xp, xm, x3, 1) on seeded points of A3's region, x1 in [0, 12],
        # x2 in [0, x1], x3 in [max(0, 1 - x1, x2 - 1), x1 + 1]
        rng = np.random.default_rng(2015)
        n = 100_000
        x1 = rng.uniform(0.0, 12.0, n)
        x2 = x1 * rng.uniform(0.0, 1.0, n)
        lo = np.maximum(np.maximum(1.0 - x1, x2 - 1.0), 0.0)
        x3 = lo + (x1 + 1.0 - lo) * rng.uniform(0.0, 1.0, n)
        args = (x1.copy(), x2.copy(), x3.copy())
        g = _g_values(x1, x2, x3)
        f4 = _f4_values(0.5 * (x1 + x2), 0.5 * (x1 - x2), x3, 1.0)
        assert np.all(f4 > 0.0)
        assert np.max(np.abs(g - f4) / f4) <= 1e-10
        for before, after in zip(args, (x1, x2, x3)):
            assert np.array_equal(before, after)

    def test_zero_outside_support(self):
        # x3 beyond x1 + 1 or below 1 - x1: Delta4^2 < 0, G = 0 as for F4
        x1, x2 = np.array([0.5, 3.0]), np.array([0.25, 0.5])
        x3 = np.array([0.25, 4.5])
        assert np.all(_f4_values(0.5 * (x1 + x2), 0.5 * (x1 - x2), x3, 1.0)
                      == 0.0)
        assert np.all(_g_values(x1, x2, x3) == 0.0)


class TestModulusOnePoints:
    def test_closed_form_points_are_every_sign_change(self):
        # F5/F6 panel edges: phi(t) = Delta4^2(c, d, e, t) - c d e t must
        # vanish at each point, and a dense scan over the F4 support finds
        # no sign change of phi away from them
        rng = np.random.default_rng(17)
        for _ in range(200):
            c, d, e = rng.uniform(0.5, 2.0, size=3)
            lo, hi = _f4_support_lo(c, d, e), c + d + e

            def phi(t):
                return _delta4_sq_values(c, d, e, t) - c * d * e * t

            pts = np.array(_f4_modulus_one_points(c, d, e))
            assert np.all(np.abs(phi(pts)) <= 1e-13 * hi ** 4)
            inside = pts[(pts > lo) & (pts < hi)]
            t = np.linspace(lo, hi, 4001)[1:-1]
            flips = np.nonzero(np.sign(phi(t[:-1])) * np.sign(phi(t[1:])) < 0)[0]
            for j in flips:
                assert np.any((inside >= t[j]) & (inside <= t[j + 1]))


class TestSupportRule:
    def test_f3_f4_vanish_when_one_scale_dominates(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            vals = sorted(rng.uniform(0.5, 2.0, size=3))
            big = sum(vals) * 1.2
            assert f3_eval(vals[0], vals[1], big) == 0.0
            vals4 = sorted(rng.uniform(0.5, 2.0, size=3))
            big4 = sum(vals4) * 1.2
            assert f4_eval(vals4[0], vals4[1], vals4[2], big4) == 0.0


class TestWeberIntegral:
    def test_frozen_value(self):
        # (1/2) e^{-1/2} I0(1/2), confirmed against direct quadrature of
        # the defining integral at 30 digits
        assert weber_integral(1.0, 1.0, 1.0) == pytest.approx(
            0.32251763522457503, rel=1e-12)

    def test_second_frozen_value(self):
        assert weber_integral(2.0, 0.5, 0.8) == pytest.approx(
            0.17206497581210370, rel=1e-12)

    def test_against_defining_integral(self):
        for (a, b, p) in ((1.0, 1.0, 1.0), (2.0, 0.5, 0.8), (1.5, 1.5, 0.3)):
            from eikamp import bessel_j0

            def f(x):
                return x * bessel_j0(a * x) * bessel_j0(b * x) \
                    * np.exp(-(p * x) ** 2)

            cut = math.sqrt(-math.log(1e-18)) / p
            res = integrate_1d(f, 0.0, cut, TIGHT)
            assert weber_integral(a, b, p) == pytest.approx(res.value,
                                                            rel=1e-9)

    def test_small_p_off_diagonal_concentrates_to_zero(self):
        assert weber_integral(1.0, 2.0, 0.01) == 0.0
        assert weber_integral(1.0, 1.2, 0.005) < 1e-80

    def test_no_overflow_at_small_p_on_diagonal(self):
        # naive exp * I0 overflows here; the scaled form must not
        v = weber_integral(1.0, 1.0, 1e-3)
        assert math.isfinite(v)
        assert v == pytest.approx(
            0.5e6 * bessel_i0e(0.5e6), rel=1e-12)

    def test_smearing_reproduces_smooth_function(self):
        # int db sqrt(ab) I_W(a, b; p) g(b) -> g(a) as p -> 0, accelerated
        # by one Richardson step in p^2 over p = 0.1, 0.05, 0.025
        a = 2.0
        g = lambda b: np.exp(-((b - 2.0) / 1.5) ** 2)

        def smeared(p):
            lo = max(0.0, a - 40.0 * p)
            hi = a + 40.0 * p
            f = lambda b: np.sqrt(a * b) * weber_integral(a, b, p) * g(b)
            return integrate_1d(f, lo, hi, TIGHT).value

        v1, v2, v3 = smeared(0.1), smeared(0.05), smeared(0.025)
        r12 = (4.0 * v2 - v1) / 3.0
        r23 = (4.0 * v3 - v2) / 3.0
        extrap = (16.0 * r23 - r12) / 15.0
        assert extrap == pytest.approx(float(g(a)), rel=1e-6)
        # convergence is second order: errors shrink ~4x per halving
        e1, e2, e3 = (abs(v - g(a)) for v in (v1, v2, v3))
        assert e2 < e1 / 2.5
        assert e3 < e2 / 2.5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            weber_integral(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            weber_integral(1.0, 1.0, 0.0)



# Draws of the moments bench, keyed seed/order/index: the two F5 whose
# bench reference quad_f5 is off by 3.2e-9 and 5.6e-9 (seeds 8 and 205),
# the seed-9 F5 that |K15 - G7| / 40 under-reports, and the draws with the
# smallest reported/true ratios over the 960 non-vanishing F5/F6 draws of
# seeds 1, 8, 9 and 205, two of which put a tanh-sinh node onto a
# modulus-one point
MOMENT_DRAWS = {
    "8/5/147": (0.9833506380289437, 1.683911705732129, 1.5430565086287447,
                0.5232983535414479, 1.7206134783367513),
    "205/5/60": (0.5180344426341468, 1.6862457287850514, 0.9550083891871366,
                 1.2232011121160578, 1.0079554517830875),
    "9/5/88": (1.1329590128558868, 1.7157375255937515, 1.9592920707667472,
               1.9670776590206662, 0.5785284333727253),
    "8/5/66": (0.9439641642748948, 0.9736433911133839, 0.5091474715030658,
               1.8496898771120112, 0.7626824106779913),
    "1/5/123": (1.7387581340729625, 0.8041316601596264, 0.5615669658406393,
                1.5761308055994703, 1.5445027383466858),
    "9/5/10": (0.6145126343838685, 1.7647041707331488, 0.7260060806985275,
               0.9110814550696675, 0.9703388888803999),
    "8/6/43": (1.1605220797197389, 1.4854921763751872, 1.842169026740434,
               1.1325591563192225, 0.6108818275519008, 1.6454440758102797),
    "9/6/78": (0.5772013523344406, 1.6576956184408587, 1.6577027616041295,
               0.8558782471599232, 1.912201665341071, 1.9040462425786653),
    "9/6/42": (1.7953822208567418, 1.5817007046013762, 1.6956181725311135,
               1.451962178851263, 1.4516812524862155, 0.704042222825376),
    "8/6/70": (0.9700046255395722, 1.8708787995445733, 1.2798617005511106,
               1.956078429714151, 1.182576562516485, 1.1821734572246416),
    "205/6/53": (1.9890486408772077, 1.0244352060958644, 1.2224223450299947,
                 1.3866087370393472, 0.5505760186590477, 1.3860172817220906),
    "9/6/31": (0.6911216156169023, 1.4201432015789661, 1.1704990176749661,
               1.188707522590704, 1.8882989254918061, 1.3415890347808292),
}

# at rel 1e-10 this F6 lands 6.94e-12 from its value and reports 6.22e-12;
# at rel 1e-9 and 1e-11 its estimate holds
_UNDER_REPORTED = {("9/6/31", 1e-10)}


@functools.cache
def moment_truth(draw):
    pytest.importorskip("mpmath")
    return f5_f6_mpmath(MOMENT_DRAWS[draw])


class TestF5F6AgainstThirtyDigits:
    def test_reference_values(self):
        # the 30-digit values quoted for the two bench F5 draws
        assert moment_truth("8/5/147") == pytest.approx(
            0.184661183833081142, abs=1e-15)
        assert moment_truth("205/5/60") == pytest.approx(
            0.271766809495053030, abs=1e-15)

    @pytest.mark.parametrize("draw, rel", [
        pytest.param(draw, rel, marks=pytest.mark.xfail(
            strict=True, reason="F6 estimate below its true error")
            if (draw, rel) in _UNDER_REPORTED else ())
        for draw in MOMENT_DRAWS for rel in (1e-6, 1e-10)])
    def test_reported_error_bounds_the_true_error(self, draw, rel):
        params = MOMENT_DRAWS[draw]
        fn = f5_eval if len(params) == 5 else f6_eval
        res = fn(*params, cfg=QuadratureConfig(rel_tol=rel, abs_tol=1e-15))
        assert abs(res.value - moment_truth(draw)) <= res.error_estimate
