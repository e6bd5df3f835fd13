"""Special functions used by the closed-form Bessel-product integrals.

All three functions accept scalars or numpy arrays and are safe to call on
the node batches produced by the adaptive quadrature engine.

``bessel_j0`` follows the classic Cephes decomposition (Moshier 1989): a
zero-factored rational approximation on [0, 5] and the Hankel asymptotic
form with rational P, Q beyond 5.  Peak error is ~4e-16 absolute, far
inside the 1e-13 relative contract away from the zeros of J0.

J0 stays in-house because ``scipy.special.j0`` is not accurate enough for
that contract at large argument: on 25 points drawn from [0, 1e4] its
error against mpmath, scaled by max(|J0|, sqrt(2/(pi x))), reaches 5.4e-13
(at x ~ 9955), where this port stays below 4e-16.

``bessel_i0e`` is ``scipy.special.i0e``, the exponentially scaled I0.

``elliptic_k`` takes the MODULUS k, not the parameter m = k^2.  This is the
convention every closed form in :mod:`eikamp.besselprod` is written in;
mixing it up with scipy's ``ellipk(m)`` is the classic mistake the docstring
warns about.  K itself comes from ``scipy.special.ellipkm1`` evaluated on
the complementary parameter m1 = 1 - k^2, formed as (1 - k)(1 + k) so that
it keeps its digits as k -> 1.  The core ``_elliptic_k_core`` takes m1
itself: the elliptic kernels of :mod:`eikamp.besselprod` form m1 from a
closed factorisation that keeps its relative precision right up to a
modulus-one point, where no k rounded to a float could.

``scipy.special`` is imported on the first call of ``bessel_i0e`` or
``_elliptic_k_core`` (:func:`_scipy_special`), which pays its load of
about 0.3 s once.  ``import eikamp`` and the whole ``eikamp table`` path
(J0, the chi gate and the A2 / A3 convolutions) never load it.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import EikampError

__all__ = ["bessel_j0", "bessel_i0e", "elliptic_k"]

SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2/pi)

# Rational coefficients, Cephes Math Library Release 2.1 (public constants).
# Interval [0, 5]: J0(x) = (w - DR1)(w - DR2) RP(w)/RQ(w), w = x^2, with
# DR1, DR2 the first two zeros of J0 squared.
_RP = np.array([
    -4.79443220978201773821e9,
    1.95617491946556577543e12,
    -2.49248344360967716204e14,
    9.70862251047306323952e15,
])
_RQ = np.array([  # leading coefficient 1.0 implicit
    4.99563147152651017219e2,
    1.73785401676374683123e5,
    4.84409658339962045305e7,
    1.11855537045356834862e10,
    2.11277520115489217587e12,
    3.10518229857422583814e14,
    3.18121955943204943306e16,
    1.71086294081043136091e18,
])
# Interval (5, inf): Hankel form sqrt(2/(pi x)) [P cos(x-pi/4) - (5/x) Q sin(x-pi/4)]
_PP = np.array([
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
])
_PQ = np.array([
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
])
_QP = np.array([
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
])
_QQ = np.array([  # leading coefficient 1.0 implicit
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
])
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1


@functools.cache
def _scipy_special():
    """The ``scipy.special`` module, imported on the first call only: an
    import statement inside each caller would pay about 1 us a call."""
    import scipy.special

    return scipy.special


def _polevl(x, coef):
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    # Leading coefficient 1.0 implicit.
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Parameters
    ----------
    x : float or ndarray
        Finite argument(s).  J0 is even, so the sign is dropped.

    Returns
    -------
    float or ndarray
        J0(x); relative accuracy <= 1e-13 for |x| <= 1e4 away from the
        zeros of J0 (absolute ~4e-16 everywhere), degrading gracefully
        beyond as the trigonometric phase loses significance.

    Raises
    ------
    EikampError
        Only for non-finite input.
    """
    arr, scalar = _as_array(x)
    if not np.all(np.isfinite(arr)):
        raise EikampError("bessel_j0: argument must be finite")
    ax = np.abs(arr)
    out = np.empty_like(ax)

    small = ax <= 5.0
    if np.any(small):
        z = ax[small] ** 2
        p = (z - _DR1) * (z - _DR2)
        out[small] = p * _polevl(z, _RP) / _p1evl(z, _RQ)
    large = ~small
    if np.any(large):
        xl = ax[large]
        w = 5.0 / xl
        q = w * w
        p = _polevl(q, _PP) / _polevl(q, _PQ)
        qf = _polevl(q, _QP) / _p1evl(q, _QQ)
        # cos(x - pi/4), sin(x - pi/4) expanded through cos x, sin x: forming
        # x - pi/4 first loses ulp(x) of phase for x in the thousands.
        c, s = np.cos(xl), np.sin(xl)
        cos_xn = (c + s) / np.sqrt(2.0)
        sin_xn = (s - c) / np.sqrt(2.0)
        out[large] = SQ2OPI * (p * cos_xn - w * qf * sin_xn) / np.sqrt(xl)

    return float(out) if scalar else out


def bessel_i0e(x):
    """Exponentially scaled modified Bessel function, e^{-|x|} I0(x).

    Safe for arbitrarily large |x|; used by the Weber integral in log space.
    Evaluated by ``scipy.special.i0e``.
    """
    arr, scalar = _as_array(x)
    out = _scipy_special().i0e(arr)
    return float(out) if scalar else out


def elliptic_k(k):
    """Complete elliptic integral of the first kind, K(k).

    CONVENTION: the argument is the MODULUS k, i.e.

        K(k) = integral_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta),

    NOT the parameter m = k^2 used by scipy.special.ellipk.  K(0) = pi/2
    exactly; K is strictly increasing; K(k) -> log(4/sqrt(1-k^2)) as k -> 1.

    Evaluated as ``scipy.special.ellipkm1((1 - k)(1 + k))``, which keeps
    full relative precision up to the largest k below 1.

    Raises
    ------
    EikampError
        For any k outside 0 <= k < 1, NaN included (the integral diverges
        at k = 1).
    """
    arr, scalar = _as_array(k)
    if not np.all((arr >= 0.0) & (arr < 1.0)):
        raise EikampError("elliptic_k: modulus must satisfy 0 <= k < 1 "
                          "(argument is the modulus k, not the parameter m = k^2)")
    # (1-k)(1+k) keeps precision for k near 1 better than 1 - k*k.
    out = _elliptic_k_core((1.0 - arr) * (1.0 + arr))
    return float(out) if scalar else out


def _elliptic_k_core(m1):
    """K at the complementary parameter m1 = 1 - k^2 > 0 (scalar or array),
    without domain checks."""
    return _scipy_special().ellipkm1(m1)
