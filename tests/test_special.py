"""Special functions against independent series/definition oracles."""

import math

import numpy as np
import pytest
import scipy.special as sps

from eikamp import EikampError, bessel_i0e, bessel_j0, elliptic_k
from eikamp.besselprod import _M1_FLOOR
from eikamp.special import _elliptic_k_core
from helpers import i0_series, j0_series, k_by_definition

J0_FIRST_ROOT = 2.404825557695773


def bessel_i0(x):
    """I0 from the package's scaled form, I0(x) = e^|x| i0e(x); refuses
    |x| > 700, where e^x overflows float64.  The package itself needs only
    the scaled form."""
    if np.any(np.abs(x) > 700.0):
        raise EikampError("bessel_i0: |x| > 700 overflows; use bessel_i0e")
    return bessel_i0e(x) * np.exp(np.abs(x))


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_root(self):
        assert abs(bessel_j0(J0_FIRST_ROOT)) < 1e-12

    def test_against_maclaurin_oracle(self):
        for x in (0.25, 1.0, 2.0, 3.7, 5.0, 7.9):
            assert bessel_j0(x) == pytest.approx(j0_series(x), rel=1e-12,
                                                 abs=1e-14)

    def test_evenness_exact(self):
        xs = np.linspace(0.1, 900.0, 57)
        assert np.array_equal(bessel_j0(xs), bessel_j0(-xs))

    def test_against_scipy_sweep(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.0, 1e4, size=500)
        mine = bessel_j0(xs)
        ref = sps.j0(xs)
        # amplitude decays like sqrt(2/(pi x)); compare on that scale.
        # The reference forms x - pi/4 before its sin/cos, which costs it
        # about x*eps of phase at large x, so the bound covers that too.
        scale = np.maximum(np.abs(ref), np.sqrt(2.0 / (np.pi * np.maximum(xs, 1.0))))
        assert np.all(np.abs(mine - ref) <= 2e-12 * scale)

    def test_against_mpmath_subsample(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.0, 1e4, size=25):
            x = float(x)
            exact = float(mp.besselj(0, mp.mpf(x)))
            scale = max(abs(exact), math.sqrt(2.0 / (math.pi * max(x, 1.0))))
            assert abs(bessel_j0(x) - exact) <= 1e-13 * scale

    def test_branch_seam_continuity(self):
        # series/asymptotic handoff at |x| = 5: both branches must match
        # the series oracle; the raw left/right gap is just 2 eps |J1(5)|
        left = bessel_j0(5.0 - 1e-9)
        right = bessel_j0(5.0 + 1e-9)
        assert left == pytest.approx(j0_series(5.0 - 1e-9), rel=1e-13)
        assert right == pytest.approx(j0_series(5.0 + 1e-9), rel=1e-13)
        assert abs(left - right) < 1e-8

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.0, 1.0, 10.0, 100.0])
        vec = bessel_j0(xs)
        assert vec.shape == xs.shape
        for i, x in enumerate(xs):
            assert vec[i] == bessel_j0(float(x))

    def test_nonfinite_rejected(self):
        with pytest.raises(EikampError):
            bessel_j0(math.nan)
        with pytest.raises(EikampError):
            bessel_j0(math.inf)


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_at_one(self):
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-12)

    def test_against_series_oracle(self):
        for x in (0.5, 2.0, 7.5, 15.0):
            assert bessel_i0(x) == pytest.approx(i0_series(x), rel=1e-12)

    def test_asymptotic_consistency(self):
        x = 50.0
        asym = math.exp(x) / math.sqrt(2.0 * math.pi * x)
        assert bessel_i0(x) == pytest.approx(asym, rel=1e-2)

    def test_evenness(self):
        assert bessel_i0(-3.25) == bessel_i0(3.25)

    def test_lower_bound(self):
        xs = np.linspace(-20.0, 20.0, 41)
        assert np.all(bessel_i0(xs) >= 1.0)

    def test_overflow_guard(self):
        with pytest.raises(EikampError):
            bessel_i0(701.0)

    def test_scaled_form_beyond_guard(self):
        # i0e carries the exponent out; finite far past the i0 guard
        v = bessel_i0e(5000.0)
        assert 0.0 < v < 1.0
        assert v == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 5000.0),
                                  rel=1e-2)

    def test_scaled_consistency(self):
        for x in (0.5, 10.0, 300.0):
            assert bessel_i0e(x) == pytest.approx(
                bessel_i0(x) * math.exp(-x), rel=1e-12)


class TestEllipticK:
    def test_at_zero_machine_exact(self):
        assert elliptic_k(0.0) == pytest.approx(math.pi / 2.0, abs=5e-16)

    def test_half_sqrt_two(self):
        assert elliptic_k(1.0 / math.sqrt(2.0)) == pytest.approx(
            1.854074677301372, rel=1e-13)

    def test_against_definition_quadrature(self):
        rng = np.random.default_rng(11)
        for k in rng.uniform(0.0, 0.95, size=20):
            assert elliptic_k(float(k)) == pytest.approx(
                k_by_definition(float(k)), rel=1e-10)

    def test_monotone_increasing(self):
        ks = np.sort(np.random.default_rng(3).uniform(0.0, 0.999999, 50))
        vals = np.array([elliptic_k(float(k)) for k in ks])
        assert np.all(np.diff(vals) > 0.0)

    def test_lower_bound(self):
        for k in (0.0, 0.3, 0.9, 0.9999):
            assert elliptic_k(k) >= math.pi / 2.0

    def test_log_asymptotic_near_one(self):
        k = 0.999
        asym = math.log(4.0 / math.sqrt(1.0 - k * k))
        assert abs(elliptic_k(k) - asym) / elliptic_k(k) < 5e-3

    def test_log_crossover_region(self):
        # the core takes the complementary parameter m1 = 1 - k^2 itself:
        # m1 down to 1e-16 and the floor of the vectorized kernels, through
        # the vectorized core, each against K(1 - m1) at enough digits to
        # resolve 1 - m1
        mp = pytest.importorskip("mpmath")
        m1s = [1e-13, 1e-14, 1e-16, _M1_FLOOR]
        core = _elliptic_k_core(np.array(m1s))
        for m1, vec in zip(m1s, core):
            with mp.workdps(40 - int(math.log10(m1))):
                ref = float(mp.ellipk(1 - mp.mpf(m1)))
            assert vec == pytest.approx(ref, rel=1e-14)
        # the modulus entry point near k = 1, at the exact float modulus
        # (sqrt then squaring does not round-trip here)
        for m1 in m1s[:3]:
            k = math.sqrt(1.0 - m1)
            with mp.workdps(40):
                ref = float(mp.ellipk(mp.mpf(k) ** 2))
            assert elliptic_k(k) == pytest.approx(ref, rel=1e-14)

    def test_domain_errors(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(EikampError):
                elliptic_k(bad)
