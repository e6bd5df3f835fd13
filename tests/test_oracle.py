"""Tests for the independent reference computations.

The oracles are the outside witnesses for the oscillation-free pipeline,
so they are checked against closed forms and against each other, never
against the code they are meant to certify (except where the test is
exactly that cross-check, run at desk-scale kinematics).
"""

import math

import numpy as np
import pytest

from eikamp import oracle as oracle_module
from eikamp import quadrature as quadrature_module
from eikamp.besselprod import f3_eval, f6_eval
from eikamp.exceptions import ExtrapolationDivergenceError, NonConvergenceError
from eikamp.eikonal import build_profile
from eikamp.models import (ExponentialPoleBorn, GaussianBorn, Kinematics,
                           TabulatedBorn)
from eikamp.oracle import (OracleConfig, direct_eikonal_amplitude,
                           gaussian_series_amplitude,
                           integrate_damped_bessel_product,
                           reference_besselproduct)
from eikamp.quadrature import QuadratureConfig
from helpers import integrate_1d


def gaussian_with_chi0(chi0, lam=1.0):
    return GaussianBorn(g=4.0 * math.pi * chi0 / lam ** 2, lam=lam)


def auto_b_max(monkeypatch, model):
    """The b_max that direct_eikonal_amplitude picks for ``model`` when
    none is configured, read off its call of the panel integrator."""
    seen = []

    def panels(f, hi, n, rel_tol, abs_tol=0.0):
        seen.append(hi)
        return 0.0, 0.0, 0

    monkeypatch.setattr(oracle_module, "_gauss_panels", panels)
    direct_eikonal_amplitude(model, Kinematics(s=50.0, t=-1.0))
    return seen[0]


class TestReferenceBesselProduct:
    def test_right_triangle_value(self):
        r = reference_besselproduct((3.0, 4.0, 5.0))
        assert r.value == pytest.approx(1.0 / (12.0 * math.pi), rel=1e-8)
        assert 0.0 < r.error_estimate < 1e-6

    def test_matches_triangle_closed_form(self):
        got = f3_eval(1.1, 0.7, 1.5)
        r = reference_besselproduct((1.1, 0.7, 1.5))
        assert r.value == pytest.approx(got, rel=1e-7)

    def test_support_boundary_one_sided(self):
        # at max = sum-of-rest the integral jumps; the one-sided limit
        # must land on the inside value 1/(2 pi sqrt(abcd)), not on the
        # midpoint of the jump
        r = reference_besselproduct((1.0, 1.0, 1.0, 3.0))
        inside = 1.0 / (2.0 * math.pi * math.sqrt(3.0))
        assert r.value == pytest.approx(inside, rel=1e-5)

    def test_vanishing_configuration(self):
        # one parameter exceeding the sum of the others kills the support
        r = reference_besselproduct((1.0, 1.0, 1.0, 1.0, 5.0))
        assert abs(r.value) < 1e-8

    def test_six_parameter_beat_scaling(self):
        # nearly equal parameters produce a tiny beat frequency among the
        # sign combinations; the auto-scaled damping must sit below it or
        # the extrapolation lands on a crossover
        params = (1.0, 1.1, 0.9, 1.2, 1.0, 1.3)
        r = reference_besselproduct(params)
        f = f6_eval(*params, cfg=QuadratureConfig(rel_tol=1e-6,
                                                  abs_tol=1e-9))
        assert r.value == pytest.approx(f.value, rel=1e-6)

    def test_degenerate_triangle_raises(self):
        with pytest.raises(ExtrapolationDivergenceError):
            reference_besselproduct((1.0, 1.0, 2.0))

    def test_interior_boundary_flagged(self):
        # an arithmetic-progression quadruple sits exactly on the
        # modulus-one boundary, where the closed form diverges
        # logarithmically; the damped limit grows too slowly to always
        # trip the divergence detector, so the honest outcome is either
        # the raise or an error estimate orders of magnitude above the
        # regular 1e-6 scale
        try:
            r = reference_besselproduct((0.85, 0.95, 1.05, 1.15))
        except ExtrapolationDivergenceError:
            return
        assert r.error_estimate > 1e-3

    def test_parameter_count_validation(self):
        with pytest.raises(ValueError, match="3 to 6"):
            reference_besselproduct((1.0, 1.0))
        with pytest.raises(ValueError, match="3 to 6"):
            reference_besselproduct((1.0,) * 7)

    def test_parameter_value_validation(self):
        with pytest.raises(ValueError, match="positive"):
            reference_besselproduct((1.0, -1.0, 1.0))
        with pytest.raises(ValueError, match="positive"):
            reference_besselproduct((1.0, math.inf, 1.0))


class TestDirectAmplitude:
    def test_agrees_with_gaussian_series(self):
        m = gaussian_with_chi0(0.3)
        kin = Kinematics(s=50.0, t=-1.0)
        d = direct_eikonal_amplitude(m, kin)
        srs = gaussian_series_amplitude(m.g, 1.0, kin)
        assert d == pytest.approx(srs, rel=1e-8)

    def test_fixed_b_max_override(self):
        m = gaussian_with_chi0(0.3)
        kin = Kinematics(s=50.0, t=-1.0)
        d_fix = direct_eikonal_amplitude(m, kin, OracleConfig(b_max=9.0))
        d_auto = direct_eikonal_amplitude(m, kin)
        assert d_fix == pytest.approx(d_auto, rel=1e-9)

    def test_born_limit_ratio(self):
        # as the coupling shrinks the full amplitude collapses onto the
        # Born term, with a deviation of order chi0
        kin = Kinematics(s=50.0, t=-1.0)
        devs = []
        for chi0 in (0.2, 0.1, 0.05):
            m = gaussian_with_chi0(chi0)
            born = 1j * m.g * kin.s * math.exp(kin.t / 2.0)
            d = direct_eikonal_amplitude(m, kin)
            dev = abs(d / born - 1.0)
            assert dev <= 0.5 * chi0
            devs.append(dev)
        assert devs[0] > devs[1] > devs[2]

    def test_forward_limit_finite(self):
        # t -> 0 removes the Bessel factor; the oracle must go smoothly
        # to the plain impact-parameter integral
        m = gaussian_with_chi0(0.3)
        kin = Kinematics(s=50.0, t=-1e-10)
        d = direct_eikonal_amplitude(m, kin)
        chi = m.chi_closed()
        res = integrate_1d(lambda b: b * (1.0 - np.exp(1j * chi(b))),
                           0.0, 12.0,
                           QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15))
        ref = 4.0j * math.pi * kin.s * res.value
        assert d == pytest.approx(ref, rel=1e-8)

    def test_oscillation_budget_refusal(self):
        # extreme |t| demands more oscillation panels than the oracle
        # allows; it must refuse, not return something half-converged
        m = gaussian_with_chi0(0.3)
        with pytest.raises(NonConvergenceError, match="panel budget"):
            direct_eikonal_amplitude(m, Kinematics(s=50.0, t=-4e8))

    @pytest.mark.parametrize("model", [
        gaussian_with_chi0(0.3), ExponentialPoleBorn(c=1.1, slope_b=0.7),
    ], ids=["gaussian", "exponential_pole"])
    def test_auto_b_max_reaches_decay_level(self, monkeypatch, model):
        b = auto_b_max(monkeypatch, model)
        assert abs(model.chi_closed()(b)) <= 2e-12

    @pytest.mark.parametrize("model", [
        gaussian_with_chi0(0.3), ExponentialPoleBorn(c=1.1, slope_b=0.7),
        TabulatedBorn([0.0, 0.5, 1.0, 1.5, 2.0],
                      [1.0, 0.87, 0.55, 0.28, 0.12], [0.0] * 5, 2.1, 1.2),
    ], ids=["gaussian", "exponential_pole", "tabulated"])
    def test_auto_b_max_is_the_gate_cutoff(self, monkeypatch, model):
        # one cutoff, stated by the model, serves the gate and the oracle
        assert (auto_b_max(monkeypatch, model)
                == build_profile(model, 50.0).b_cutoff)


class TestExtremeSlopes:
    def test_auto_b_max_finite_at_a_tiny_slope(self, monkeypatch):
        # lam^2 overflows at slope 5e-324; the automatic b_max is the
        # model's finite cutoff, which used to raise OverflowError
        model = ExponentialPoleBorn(c=1.0, slope_b=5e-324)
        b = auto_b_max(monkeypatch, model)
        assert 0.0 < b < math.inf
        assert b == model.chi_b_cutoff(1e-12)

    def test_auto_b_max_finite_at_a_huge_slope(self):
        # 1 / lam^2 overflows at slope 8e307; the automatic b_max is
        # finite, so the oracle refuses it by its oscillation budget
        # rather than by an OverflowError from an infinite b_max
        model = ExponentialPoleBorn(c=1.0, slope_b=8e307)
        assert 0.0 < model.chi_b_cutoff(1e-12) < math.inf
        with pytest.raises(NonConvergenceError, match="oscillation count"):
            direct_eikonal_amplitude(model, Kinematics(s=50.0, t=-1.0),
                                     OracleConfig())


class TestGaussianSeries:
    KIN = Kinematics(s=50.0, t=-1.0)

    @staticmethod
    def closed_terms(chi0, lam=1.0):
        s, t = 50.0, -1.0
        g = 4.0 * math.pi * chi0 / lam ** 2
        a1 = 1j * g * s * math.exp(t / (2.0 * lam ** 2))
        a2 = (-math.pi * s * chi0 ** 2 / lam ** 2
              * math.exp(t / (4.0 * lam ** 2)))
        a3 = (-2j * math.pi * s * chi0 ** 3 / (9.0 * lam ** 2)
              * math.exp(t / (6.0 * lam ** 2)))
        return g, a1, a2, a3

    def test_partial_sums_reproduce_term_ladder(self):
        # the n-th series term is exactly the n-th amplitude term of the
        # moderately-small expansion for the Gaussian model
        g, a1, a2, a3 = self.closed_terms(0.3)
        p1 = gaussian_series_amplitude(g, 1.0, self.KIN,
                                       OracleConfig(series_terms=1))
        p2 = gaussian_series_amplitude(g, 1.0, self.KIN,
                                       OracleConfig(series_terms=2))
        p3 = gaussian_series_amplitude(g, 1.0, self.KIN,
                                       OracleConfig(series_terms=3))
        assert p1 == pytest.approx(a1, rel=1e-14)
        assert p2 - p1 == pytest.approx(1j * a2, rel=1e-14)
        assert p3 == pytest.approx((a1 - a3) + 1j * a2, rel=1e-14)

    def test_auto_termination_matches_long_sum(self):
        g = 4.0 * math.pi * 0.4
        auto = gaussian_series_amplitude(g, 1.0, self.KIN)
        full = gaussian_series_amplitude(g, 1.0, self.KIN,
                                         OracleConfig(series_terms=200))
        assert auto == pytest.approx(full, rel=1e-13)

    def test_scale_invariance(self):
        # chi0 and t lam^2 fixed, s fixed: A/s depends only on lam^-2
        g1, *_ = self.closed_terms(0.25, lam=1.0)
        g2, *_ = self.closed_terms(0.25, lam=2.0)
        a_one = gaussian_series_amplitude(g1, 1.0, Kinematics(50.0, -1.0))
        a_two = gaussian_series_amplitude(g2, 2.0, Kinematics(50.0, -4.0))
        assert a_one == pytest.approx(4.0 * a_two, rel=1e-13)


class TestOracleConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(b_max=0.0),
        dict(b_max=-2.0),
        dict(b_max=math.inf),
        dict(b_max=math.nan),
        dict(series_terms=0),
        dict(p_damping=(0.1, 0.05)),
        dict(p_damping=(0.1, 0.2, 0.3)),
        dict(p_damping=(0.3, -0.1, 0.05)),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OracleConfig(**kwargs)

    def test_defaults_mean_automatic(self):
        cfg = OracleConfig()
        assert cfg.b_max is None
        assert cfg.p_damping is None
        assert cfg.series_terms is None


class TestIndependence:
    def test_oracles_run_without_the_engine(self, monkeypatch):
        # the README promises oracles that share no quadrature code with
        # the production engine: with its entry points disabled they must
        # still return exactly what they return with them
        m = gaussian_with_chi0(0.3)
        kin = Kinematics(s=50.0, t=-1.0)
        calls = [lambda: reference_besselproduct((3.0, 4.0, 5.0)),
                 lambda: integrate_damped_bessel_product((3.0, 4.0, 5.0)),
                 lambda: direct_eikonal_amplitude(m, kin)]
        want = [c() for c in calls]

        def refuse(*args, **kwargs):
            raise AssertionError("an oracle entered the quadrature engine")

        monkeypatch.setattr(quadrature_module, "_solve_batched", refuse)
        monkeypatch.setattr(quadrature_module, "_iterated", refuse)
        assert [c() for c in calls] == want
