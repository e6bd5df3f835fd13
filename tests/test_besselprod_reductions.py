"""Cross-route checks for the five- and six-factor Bessel moment
reductions.

Each n >= 5 moment has two independent evaluation routes: a fast form
that reuses the four-factor closed expressions under one quadrature, and
a deliberately separate form reduced through three-factor expressions
only, kept in ``helpers``.  Agreement within the combined reported error estimates is the
main correctness evidence for both.
"""

import math

import numpy as np
import pytest

from eikamp.besselprod import Branch, f4_classify, f4_eval, f5_eval, f6_eval
from eikamp import quadrature as quadrature_module
from eikamp.exceptions import BoundaryCaseError
from eikamp.quadrature import QuadratureConfig, _build_tasks
from helpers import _chain_q_rows, f5_eval_symmetric, f6_eval_chain

# the triple-nested chain route is expensive at tight tolerance; the
# dual-route bound scales with the reported errors, so a looser config
# keeps the check honest while fast
CHAIN_CFG = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-7)


def _within_combined(r1, r2, factor=2.0, floor=1e-12):
    dev = abs(r1.value - r2.value)
    bound = factor * (r1.error_estimate + r2.error_estimate) + floor
    assert dev <= bound, f"routes disagree: dev {dev:.3e} > bound {bound:.3e}"


class TestF5DualRoute:
    def test_ten_random_sets_agree(self):
        rng = np.random.default_rng(41)
        nonzero = 0
        for _ in range(10):
            p = rng.uniform(0.5, 2.5, size=5)
            r1 = f5_eval(*p)
            r2 = f5_eval_symmetric(*p)
            _within_combined(r1, r2)
            if abs(r1.value) > 1e-12:
                nonzero += 1
        assert nonzero == 10

    def test_scaling_relation(self):
        # F5(lam * args) = F5(args) / lam^2 (substitute x -> x / lam)
        p = np.array([1.2, 1.0, 0.8, 0.9, 1.1])
        lam = 1.7
        base = f5_eval(*p)
        scaled = f5_eval(*(lam * p))
        assert scaled.value * lam ** 2 == pytest.approx(base.value, rel=1e-7)

    def test_permutation_invariance(self):
        # permutations that move arguments across the internal split into
        # a three-factor pair and a four-factor triple take genuinely
        # different quadrature paths and must still agree
        base = (1.3, 0.9, 1.6, 0.7, 1.1)
        r0 = f5_eval(*base)
        for order in ((1, 0, 3, 2, 4), (2, 3, 0, 1, 4), (4, 2, 1, 3, 0),
                      (3, 4, 2, 0, 1), (2, 0, 4, 1, 3)):
            ri = f5_eval(*(base[i] for i in order))
            _within_combined(ri, r0)

    def test_nonzero_sanity(self):
        # a = b and c = d = e puts support-edge collisions at both ends
        # of every nested range, and all three modulus-one points of the
        # F4 factor at t = 0.5
        r1 = f5_eval(1.0, 1.0, 0.5, 0.5, 0.5)
        r2 = f5_eval_symmetric(1.0, 1.0, 0.5, 0.5, 0.5)
        assert r1.value > 0.5
        _within_combined(r1, r2)

    def test_degenerate_point_against_mpmath(self):
        # F5(1, 1, .5, .5, .5): at t = 0.5 the complementary parameter of
        # the F4 factor vanishes like (0.5 - t)^3, the deepest log spike a
        # reduction meets; each route must land within its own reported
        # error of an independent 30-digit value
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            half = mp.mpf(1) / 2

            def k_of_m1(m1):
                # K at the complementary parameter m1; below 1e-20 the
                # two-term log asymptote is exact to working precision
                if m1 < mp.mpf(10) ** -20:
                    big = mp.log(4 / mp.sqrt(m1))
                    return big + m1 / 4 * (big - 1)
                return mp.ellipk(1 - m1)

            def integrand(t):
                # t F3(1, 1, t) = 2 / (pi sqrt(4 - t^2)) times
                # F4(1/2, 1/2, 1/2, t) from Delta4^2, abcd and their gap
                d2 = (half + t) ** 3 * (3 * half - t) / 16
                pr = t / 8
                gap = (half - t) ** 3 * (3 * half + t) / 16
                den = d2 if gap > 0 else pr
                f4 = k_of_m1(abs(gap) / den) / (mp.pi ** 2 * mp.sqrt(den))
                return 2 * f4 / (mp.pi * mp.sqrt(4 - t * t))

            truth = float(mp.quad(integrand, [0, half, 3 * half]))
        assert truth == pytest.approx(0.6109148913082683, rel=1e-14)
        for route in (f5_eval, f5_eval_symmetric):
            r = route(1.0, 1.0, 0.5, 0.5, 0.5)
            assert abs(r.value - truth) <= r.error_estimate, route.__name__


class TestF6DualRoute:
    def test_five_random_sets_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            p = rng.uniform(0.6, 2.0, size=6)
            r1 = f6_eval(*p)
            r2 = f6_eval_chain(*p, cfg=CHAIN_CFG)
            _within_combined(r1, r2)
            assert r1.value > 0.0

    def test_q_edge_rows_build_the_per_node_panels(self):
        # the chain route's q-tasks come as clipped, sorted rows; on the
        # five draws above they must build the same panels as one
        # np.unique list of in-range kinks per outer node
        rng = np.random.default_rng(13)
        for _ in range(5):
            a, b, c, d, e, f = rng.uniform(0.6, 2.0, size=6)
            lo, hi, g, h = abs(c - d), c + d, abs(e - f), e + f
            # outer nodes across the t-range, and every t where a kink
            # meets a q-range edge
            ts = np.linspace(abs(a - b), a + b, 203)[1:-1]
            hits = [s * (q - w) for q in (lo, hi) for w in (g, -g, h, -h)
                    for s in (1.0, -1.0)] + [q + w for q in (lo, hi)
                                             for w in (g, -g, h, -h)]
            ts = np.concatenate([ts, [t for t in hits
                                      if abs(a - b) < t < a + b]])
            lists = [np.unique(np.array(
                [lo, *[q for q in (t - g, t + g, g - t, h - t, t - h, h + t)
                       if lo < q < hi], hi])) for t in ts]
            for got, want in zip(_build_tasks(_chain_q_rows(c, d, e, f, ts),
                                              "sqrt"),
                                 _build_tasks(lists, "sqrt")):
                np.testing.assert_array_equal(got, want)

    def test_scaling_relation(self):
        p = np.array([1.0, 1.2, 0.8, 1.4, 1.1, 0.9])
        lam = 0.6
        base = f6_eval(*p)
        scaled = f6_eval(*(lam * p))
        assert scaled.value * lam ** 2 == pytest.approx(base.value, rel=1e-7)


class TestWaveSlices:
    def test_seeded_draws_are_unchanged_by_the_wave_slice(self, monkeypatch):
        # waves evaluated 16 segments at a time give every value, error
        # and count of whole waves, on both routes of F5 and F6
        rng = np.random.default_rng(11)
        f5s = [rng.uniform(0.5, 2.0, 5) for _ in range(5)]
        f6s = [rng.uniform(0.5, 2.0, 6) for _ in range(5)]
        loose = QuadratureConfig(rel_tol=1e-3, abs_tol=1e-6)

        def runs():
            out = [f5_eval(*p) for p in f5s] + [f6_eval(*p) for p in f6s]
            out += [f5_eval_symmetric(*p, cfg=CHAIN_CFG) for p in f5s]
            out.append(f6_eval_chain(*f6s[0], cfg=loose))
            return [(r.value, r.error_estimate, r.evaluations) for r in out]

        whole = runs()
        monkeypatch.setattr(quadrature_module, "_WAVE_SLICE", 16)
        assert runs() == whole


class TestVanishingRule:
    # one scale larger than the sum of all others: the supports cannot
    # overlap and every route must return exactly zero without quadrature
    def test_five_factor_vanishes(self):
        assert f5_eval(5.0, 1.0, 0.5, 0.5, 0.5).value == 0.0
        assert f5_eval_symmetric(5.0, 1.0, 0.5, 0.5, 0.5).value == 0.0
        # dominant scale in the four-factor slot
        assert f5_eval(0.5, 0.5, 5.0, 1.0, 0.5).value == 0.0

    def test_six_factor_vanishes(self):
        assert f6_eval(6.0, 1.0, 1.0, 0.5, 0.5, 0.5).value == 0.0
        assert f6_eval_chain(6.0, 1.0, 1.0, 0.5, 0.5, 0.5).value == 0.0


class TestArithmeticProgressionBoundary:
    # for any four scales in arithmetic progression m -+ 3h, m -+ h the
    # factored invariant gives Delta4^2 = (m-3h)(m-h)(m+h)(m+3h) = abcd
    # identically, so every such quadruple sits exactly on the elliptic
    # modulus-one boundary
    @pytest.mark.parametrize("m,h", [(1.15, 0.05), (2.0, 0.3), (0.7, 0.1)])
    def test_progressions_classify_as_modulus_one(self, m, h):
        q = (m - 3 * h, m - h, m + h, m + 3 * h)
        rep = f4_classify(*q)
        assert rep.branch is Branch.BOUNDARY
        assert rep.boundary_kind == "modulus_one"
        with pytest.raises(BoundaryCaseError):
            f4_eval(*q)


class TestDegenerateArgumentChains:
    def test_f5_approaches_f4_as_one_scale_vanishes(self):
        # J0(eps x) -> 1, so the five-factor moment collapses onto the
        # four-factor one; convergence is measured as roughly second order
        target = f4_eval(1.5, 0.9, 1.1, 1.4)
        errs = [abs(f5_eval(1.5, eps, 0.9, 1.1, 1.4).value - target)
                / abs(target) for eps in (1e-2, 1e-3)]
        assert errs[1] < 2e-5
        assert math.log10(errs[0] / errs[1]) >= 1.5

    def test_f6_approaches_f5_as_one_scale_vanishes(self):
        target = f5_eval(1.4, 1.1, 1.0, 1.2, 0.8)
        errs = [abs(f6_eval(1.0, 1.2, 0.8, 1.4, 1.1, eps).value
                    - target.value) / abs(target.value)
                for eps in (1e-2, 1e-3)]
        assert errs[1] < 1e-6
        assert math.log10(errs[0] / errs[1]) >= 1.5
