"""Reference values computed apart from eikamp.

Nothing here imports eikamp.  Each function evaluates a quantity the
program also computes, by a route the program does not take:

* the Gaussian model's A2, A3 and all-orders amplitude in closed form;
* a tabulated model's A2 and A3 as impact-parameter moments of its phase
  chi(b), with chi built from the table rows by scipy's PCHIP, the
  documented exponential tail and ``scipy.special.j0`` on fixed
  Gauss-Legendre panels;
* F3 by Heron's formula, F4 by the four-factor invariant and
  ``scipy.special.ellipk``, and the F5/F6 reductions by
  ``scipy.integrate.quad``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, optimize, special
from scipy.interpolate import PchipInterpolator

_GL16 = np.polynomial.legendre.leggauss(16)
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


# ---------------------------------------------------------------------------
# Gaussian model: a(q) = i g exp(-q^2 / (2 lam^2)), chi0 = g lam^2 / (4 pi)
# ---------------------------------------------------------------------------

def gaussian_series_term(n, g, lam, s, t):
    """n-th term of the all-orders eikonal series of the Gaussian model,

        T_n = -(4 pi i s / lam^2) (-chi0)^n / (n! n) exp(t / (2 n lam^2)),

    so that A1 = T1, i A2 = T2 and -A3 = T3.
    """
    chi0 = g * lam * lam / (4.0 * math.pi)
    return (-4.0j * math.pi * s / (lam * lam) * (-chi0) ** n
            / (math.factorial(n) * n) * math.exp(t / (2.0 * n * lam * lam)))


def gaussian_terms(g, lam, s, t):
    """Closed (a1, a2, a3) of the Gaussian model from the series terms."""
    return (gaussian_series_term(1, g, lam, s, t),
            gaussian_series_term(2, g, lam, s, t) / 1j,
            -gaussian_series_term(3, g, lam, s, t))


def gaussian_series_sum(g, lam, s, t, first=1, n_max=60):
    """Sum of the series terms n = first .. n_max (terms fall like
    chi0^n / n!, so 60 terms exhaust double precision for chi0 < 2)."""
    return sum(gaussian_series_term(n, g, lam, s, t)
               for n in range(first, n_max + 1))


# ---------------------------------------------------------------------------
# tabulated model: impact-parameter moments of chi(b)
# ---------------------------------------------------------------------------

def _panels(edges, width):
    """Gauss-Legendre nodes and weights on panels no wider than ``width``
    between consecutive ``edges``."""
    x0, w0 = _GL16
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(1, int(math.ceil((hi - lo) / width)))
        e = np.linspace(lo, hi, n + 1)
        half = 0.5 * np.diff(e)[:, None]
        xs.append((0.5 * (e[:-1] + e[1:]))[:, None] + half * x0[None, :])
        ws.append(half * w0[None, :])
    return np.concatenate([x.ravel() for x in xs]), np.concatenate(
        [w.ravel() for w in ws])


def tabulated_reduced(rows):
    """a(q) of a table of (q, Re a, Im a) rows: PCHIP inside the grid and
    a_N exp(-kappa_tail (q - q_N)) beyond, with kappa_tail fitted from the
    magnitudes of the last two rows.  Returns (a, q_N, kappa_tail)."""
    rows = np.asarray(rows, dtype=float)
    q, re, im = rows[:, 0], rows[:, 1], rows[:, 2]
    pre, pim = PchipInterpolator(q, re), PchipInterpolator(q, im)
    mag = np.hypot(re, im)
    kappa_tail = math.log(mag[-2] / mag[-1]) / (q[-1] - q[-2])
    a_end = complex(re[-1], im[-1])

    def a(x):
        x = np.asarray(x, dtype=float)
        inside = x <= q[-1]
        xin = np.where(inside, x, q[-1])
        tail = a_end * np.exp(-kappa_tail * np.maximum(x - q[-1], 0.0))
        return np.where(inside, pre(xin) + 1j * pim(xin), tail)

    return a, q, kappa_tail


def _chi_on(bs, a, q_edges, q_far, width):
    """chi(b) = (1/4 pi) int_0^q_far q J0(q b) a(q) dq on the nodes ``bs``,
    with panel edges on the table nodes and panels at most ``width``
    wide."""
    qs, wq = _panels(np.append(q_edges, q_far), width)
    wa = wq * qs * a(qs) / (4.0 * math.pi)
    out = np.empty(bs.size, dtype=complex)
    for i in range(0, bs.size, 64):
        out[i:i + 64] = special.j0(np.outer(bs[i:i + 64], qs)) @ wa
    return out


def _b_moments(a, q_edges, q_far, qt, b_max, b_bands, scale):
    """(int b J0(qt b) chi^2 db, int b J0(qt b) chi^3 db) over [0, b_max];
    ``scale`` stretches every panel width, so two scales give an error
    estimate."""
    bands = [0.0] + [b for b in b_bands if b < b_max] + [b_max]
    m2 = m3 = 0.0
    for lo, hi in zip(bands[:-1], bands[1:]):
        bs, wb = _panels(np.array([lo, hi]), 0.5 * scale)
        chi = _chi_on(bs, a, q_edges, q_far, min(0.1, 2.0 / hi) * scale)
        w = wb * bs * special.j0(qt * bs)
        m2 += w @ chi ** 2
        m3 += w @ chi ** 3
    return m2, m3


def tabulated_a2_a3(rows, s, t, b_max=40.0):
    """A2 = 2 pi s int b J0(qb) chi^2 db and A3 = (2 pi / 3) s int b J0(qb)
    chi^3 db with q = sqrt(-t), each with an error estimate: the change
    between a coarse and a fine node set, plus the truncated tail at
    b_max, bounded from |chi| <= c / b^3 fitted at b_max.

    Returns ((a2, a2_err), (a3, a3_err)).
    """
    qt = math.sqrt(-t)
    a, q_edges, kappa_tail = tabulated_reduced(rows)
    # the tail a(q) has fallen below 1e-18 at q_far
    q_far = q_edges[-1] + math.log(abs(a(q_edges[-1])) / 1e-18) / kappa_tail
    bands = (4.0, 16.0)
    fine = _b_moments(a, q_edges, q_far, qt, b_max, bands, 1.0)
    coarse = _b_moments(a, q_edges, q_far, qt, b_max, bands, 1.6)
    # |chi(b)| b^3 over the last stretch bounds the algebraic tail
    b_tail = np.linspace(0.75 * b_max, b_max, 64)
    c3 = float(np.max(np.abs(_chi_on(b_tail, a, q_edges, q_far, 2.0 / b_max))
                      * b_tail ** 3))
    out = []
    for k, pref in ((0, 2.0 * math.pi * s), (1, 2.0 * math.pi * s / 3.0)):
        n = k + 2
        # int_B^inf b |J0| (c/b^3)^n db with |J0(x)| <= 1
        tail = c3 ** n * b_max ** (2 - 3 * n) / (3 * n - 2)
        err = abs(fine[k] - coarse[k]) + tail
        out.append((pref * fine[k], abs(pref) * err))
    return tuple(out)


# ---------------------------------------------------------------------------
# Bessel-product moments
# ---------------------------------------------------------------------------

def heron_f3(a, b, c):
    """F3 = 1 / (2 pi Delta3), Delta3 the area of the triangle (a, b, c) by
    Heron's formula; 0 when no triangle closes."""
    p = 0.5 * (a + b + c)
    area_sq = p * (p - a) * (p - b) * (p - c)
    return 1.0 / (2.0 * math.pi * math.sqrt(area_sq)) if area_sq > 0 else 0.0


def _delta4_sq(a, b, c, d):
    s = a + b + c + d
    return (s - 2 * a) * (s - 2 * b) * (s - 2 * c) * (s - 2 * d) / 16.0


def elliptic_f4(a, b, c, d):
    """F4 from the four-factor invariant Delta^2 and P = abcd:
    ellipk(P / Delta^2) / (pi^2 Delta) for Delta^2 > P,
    ellipk(Delta^2 / P) / (pi^2 sqrt P) for 0 < Delta^2 < P, else 0.
    ``ellipk`` takes the parameter m = k^2."""
    d2 = _delta4_sq(a, b, c, d)
    p = a * b * c * d
    if d2 <= 0.0:
        return 0.0
    # quad nodes next to a modulus-one point can round onto it
    if d2 > p:
        return special.ellipk(min(p / d2, _BELOW_ONE)) / (
            math.pi ** 2 * math.sqrt(d2))
    return special.ellipk(min(d2 / p, _BELOW_ONE)) / (
        math.pi ** 2 * math.sqrt(p))


def _f4_support(a, b, c):
    return max(0.0, 2.0 * max(a, b, c) - (a + b + c)), a + b + c


def _modulus_one_points(a, b, c, lo, hi, n_scan=400):
    """t in (lo, hi) where Delta^2(a, b, c, t) = abct: the points where
    F4(a, b, c, t) has a logarithmic spike."""
    def phi(t):
        return _delta4_sq(a, b, c, t) - a * b * c * t

    ts = np.linspace(lo, hi, n_scan + 2)[1:-1]
    v = phi(ts)
    return [optimize.brentq(phi, ts[i], ts[i + 1], xtol=1e-15, rtol=1e-15)
            for i in np.nonzero(v[:-1] * v[1:] < 0)[0]]


def _quad_on(f, lo, hi, points):
    """int_lo^hi f(t) dt after t = lo + (hi - lo)(1 - cos th) / 2, which
    absorbs inverse-square-root edges; interior ``points`` are passed
    to quad as breaks.  Returns (value, error estimate)."""
    half = 0.5 * (hi - lo)

    def g(th):
        return f(lo + half * (1.0 - math.cos(th))) * half * math.sin(th)

    brk = sorted(math.acos(1.0 - (p - lo) / half) for p in points
                 if lo < p < hi)
    with warnings.catch_warnings():
        # a roundoff warning still leaves a usable error estimate, which
        # the checks add to the allowed deviation
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(g, 0.0, math.pi, points=brk or None,
                                  epsabs=1e-15, epsrel=1e-11, limit=400)
    return val, err


def quad_f5(a, b, c, d, e):
    """F5 = int t F3(a, b, t) F4(c, d, e, t) dt by scipy quad.
    Returns (value, error estimate)."""
    lo4, hi4 = _f4_support(c, d, e)
    lo, hi = max(abs(a - b), lo4), min(a + b, hi4)
    if not hi > lo:
        return 0.0, 0.0
    pts = _modulus_one_points(c, d, e, lo, hi)
    return _quad_on(lambda t: t * heron_f3(a, b, t) * elliptic_f4(c, d, e, t),
                    lo, hi, pts)


def quad_f6(a, b, c, d, e, f):
    """F6 = int t F4(a, b, c, t) F4(d, e, f, t) dt by scipy quad.
    Returns (value, error estimate)."""
    lo1, hi1 = _f4_support(a, b, c)
    lo2, hi2 = _f4_support(d, e, f)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if not hi > lo:
        return 0.0, 0.0
    pts = (_modulus_one_points(a, b, c, lo, hi)
           + _modulus_one_points(d, e, f, lo, hi))
    return _quad_on(
        lambda t: t * elliptic_f4(a, b, c, t) * elliptic_f4(d, e, f, t),
        lo, hi, pts)
