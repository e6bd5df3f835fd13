"""Closed forms for moment integrals of products of Bessel functions.

The central objects are

    F_n(a_1..a_n) = int_0^inf x J0(a_1 x) ... J0(a_n x) dx

for n = 3..6.  F3 and F4 have algebraic/elliptic closed forms governed by
the quadrilateral invariant Delta^2; F5 and F6 reduce to one quadrature
over F3 and F4 each (the tests hold them to second routes that chain F3
alone).  All F_n vanish when one parameter exceeds the sum of the others
(the "polygon inequality" support rule), and F3/F4 have branch boundaries
where the closed forms jump or diverge, classified here with an explicit
tolerance so callers never silently evaluate on a boundary.

Scalar entry points validate and raise on boundaries; the vectorized
``*_values`` helpers are branch-safe and exist for quadrature integrands,
where nodes never coincide with a boundary but may come arbitrarily close.
Both take K at the complementary parameter m1 = 1 - k^2 formed from the
closed factorisation of Delta4^2 - abcd, so m1 keeps its relative
precision however close a node comes to a modulus-one point; the
vectorized helpers floor m1 at 1e-300, where K is about 347, so an exact
root stays finite.  A3's kernel G = F4(xp, xm, x3, 1) has a helper of its
own, :func:`_g_values`, which takes A3's variables (x1, x2, x3) with
xp, xm = (x1 +/- x2) / 2 and forms every invariant from their sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import BoundaryCaseError
from .quadrature import IntegralResult, QuadratureConfig, _iterated
from .special import _elliptic_k_core, bessel_i0e

__all__ = [
    "Branch",
    "BranchReport",
    "delta3_sq",
    "delta4_sq",
    "f3_eval",
    "f4_classify",
    "f4_eval",
    "f5_eval",
    "f6_eval",
    "weber_integral",
]

# Relative half-width of the boundary window: |Delta^2 - threshold| within
# this (normalized by max(|Delta^2|, |threshold|, 1)) counts as ON the
# boundary and is an error for the scalar evaluators.
BOUNDARY_REL_TOL = 1e-12

_PI2 = math.pi * math.pi
# Floor of the complementary parameter m1 = 1 - k^2 inside vectorized
# integrands: m1 = 0 at an exact modulus-one root, and K there is infinite
# but integrable; K at the floor is about 347.
_M1_FLOOR = 1e-300


class Branch(Enum):
    SUPER = "super"        # Delta^2 > abcd: K(sqrt(abcd)/Delta)/(pi^2 Delta)
    SUB = "sub"            # 0 < Delta^2 < abcd: K(Delta/sqrt(abcd))/(pi^2 sqrt(abcd))
    BOUNDARY = "boundary"  # Delta^2 = 0 (jump value) or Delta^2 = abcd (undefined)
    VANISH = "vanish"      # Delta^2 < 0: integral is zero


@dataclass(frozen=True)
class BranchReport:
    """Classification of a 4-parameter configuration.

    ``boundary_kind`` distinguishes the two boundaries lumped under
    BOUNDARY: "zero" (Delta^2 = 0, where the closed form takes the finite
    jump value) and "modulus_one" (Delta^2 = abcd, where the elliptic
    modulus reaches 1 and the value is not defined).
    """

    delta_sq: float
    product_abcd: float
    branch: Branch
    boundary_kind: str | None = None


def _check_positive(names, *vals):
    for n, v in zip(names.split(), vals):
        if not (v > 0.0) or not math.isfinite(v):
            raise ValueError(f"{n} must be positive and finite, got {v!r}")


def _near(x, thr):
    return abs(x - thr) <= BOUNDARY_REL_TOL * max(abs(x), abs(thr), 1.0)


def delta3_sq(a, b, c):
    """Triangle invariant: 16 Delta3^2 = [c^2-(a-b)^2][(a+b)^2-c^2].

    Delta3 is the area of a triangle with sides a, b, c when one exists;
    Delta3^2 < 0 means no triangle closes.  Arguments are sorted first, so
    the result is bitwise identical under permutations.
    """
    for v in (a, b, c):
        if not (v >= 0.0) or not math.isfinite(v):
            raise ValueError("sides must be nonnegative and finite")
    a, b, c = sorted((float(a), float(b), float(c)))
    return (c * c - (a - b) ** 2) * ((a + b) ** 2 - c * c) / 16.0


def delta4_sq(a, b, c, d):
    """Quadrilateral invariant in factored form:

        16 Delta4^2 = [(c+d)^2 - (a-b)^2] [(a+b)^2 - (c-d)^2]

    evaluated on sorted arguments, so permutations give bitwise identical
    results; reduces to delta3_sq at d = 0.  The factored grouping is
    better conditioned near the boundaries than expanding the product.
    """
    for v in (a, b, c, d):
        if not (v >= 0.0) or not math.isfinite(v):
            raise ValueError("parameters must be nonnegative and finite")
    a, b, c, d = sorted((float(a), float(b), float(c), float(d)))
    return ((c + d) ** 2 - (a - b) ** 2) * ((a + b) ** 2 - (c - d) ** 2) / 16.0


def f3_eval(a, b, c):
    """F3(a,b,c) = 1/(2 pi Delta3) for Delta3^2 > 0, 0 for Delta3^2 < 0.

    Raises BoundaryCaseError on the degenerate triangle Delta3^2 = 0,
    where the integral diverges.
    """
    _check_positive("a b c", a, b, c)
    d2 = delta3_sq(a, b, c)
    if _near(d2, 0.0):
        raise BoundaryCaseError(
            f"F3 divergent: degenerate triangle, Delta3^2 = {d2:.3e}")
    if d2 < 0.0:
        return 0.0
    return 1.0 / (2.0 * math.pi * math.sqrt(d2))


def f4_classify(a, b, c, d):
    """Classify (a,b,c,d) into the F4 branch table with explicit
    boundary windows (relative half-width 1e-12)."""
    _check_positive("a b c d", a, b, c, d)
    d2 = delta4_sq(a, b, c, d)
    # product of the sorted arguments, so every permutation classifies
    # (and evaluates) bitwise identically
    w, x, y, z = sorted((float(a), float(b), float(c), float(d)))
    pr = w * x * y * z
    if _near(d2, pr):
        return BranchReport(d2, pr, Branch.BOUNDARY, "modulus_one")
    if _near(d2, 0.0):
        return BranchReport(d2, pr, Branch.BOUNDARY, "zero")
    if d2 < 0.0:
        return BranchReport(d2, pr, Branch.VANISH)
    if d2 > pr:
        return BranchReport(d2, pr, Branch.SUPER)
    return BranchReport(d2, pr, Branch.SUB)


def _modulus_one_gap(a, b, c, d):
    """Delta4^2 - abcd in closed factored form,

        -(a-b-c+d)(a-b+c-d)(a+b-c-d)(a+b+c+d) / 16,

    positive on the SUPER branch and negative on the SUB branch.  Near a
    modulus-one point one factor is small and formed without cancellation,
    so the gap keeps its relative precision there.  Scalars or arrays."""
    return -(a - b - c + d) * (a - b + c - d) * (a + b - c - d) * (a + b + c + d) / 16.0


def _k_branch(den, gap):
    """K / (pi^2 sqrt(den)) for a scalar off every boundary: den is
    Delta4^2 on the SUPER branch (k^2 = abcd / Delta4^2) and abcd on the
    SUB branch (k^2 = Delta4^2 / abcd); either way 1 - k^2 = |gap| / den."""
    return float(_elliptic_k_core(abs(gap) / den)) / (_PI2 * math.sqrt(den))


def f4_eval(a, b, c, d):
    """F4(a,b,c,d) by the elliptic branch table.

    SUPER (Delta4^2 > abcd):  K(sqrt(abcd)/Delta4) / (pi^2 Delta4)
    SUB (0 < Delta4^2 < abcd): K(Delta4/sqrt(abcd)) / (pi^2 sqrt(abcd))
    Delta4^2 = 0:              1/(2 pi sqrt(abcd))   (jump value)
    Delta4^2 < 0:              0

    Raises BoundaryCaseError at Delta4^2 = abcd, where the modulus reaches
    1 and the closed form diverges.
    """
    rep = f4_classify(a, b, c, d)
    if rep.branch is Branch.VANISH:
        return 0.0
    if rep.branch is Branch.BOUNDARY:
        if rep.boundary_kind == "zero":
            # finite jump value on the Delta4^2 = 0 line (the limit from
            # inside the support)
            return 1.0 / (2.0 * math.pi * math.sqrt(rep.product_abcd))
        raise BoundaryCaseError(
            "F4 not defined at Delta4^2 = abcd (elliptic modulus 1): "
            f"Delta4^2 = {rep.delta_sq:.6e}")
    gap = _modulus_one_gap(*sorted((float(a), float(b), float(c), float(d))))
    den = rep.delta_sq if rep.branch is Branch.SUPER else rep.product_abcd
    return _k_branch(den, gap)


# ---------------------------------------------------------------------------
# vectorized branch-safe evaluators (quadrature integrand internals)
# ---------------------------------------------------------------------------

def _delta4_sq_values(a, b, c, d):
    """Factored-form invariant, broadcasting, no canonical sorting.
    Squares are products: a numpy scalar's ``** 2`` goes through pow and
    is not always the correctly rounded x * x that an array's is."""
    s, u, v, w = c + d, a - b, a + b, c - d
    return ((s * s - u * u) * (v * v - w * w)) / 16.0


def _f3_values(a, b, c):
    """Vectorized F3; inputs broadcast by the arithmetic, so scalar sides
    cost one operation each.  0 outside support, no boundary errors
    (nodes close to a boundary see the genuine 1/Delta3 growth)."""
    a, b, c = (np.asarray(v, float) for v in (a, b, c))
    u, v = a - b, a + b     # products, as in _delta4_sq_values
    d2 = ((c * c - u * u) * (v * v - c * c)) / 16.0
    out = np.zeros_like(d2)
    pos = d2 > 0.0
    out[pos] = 1.0 / (2.0 * math.pi * np.sqrt(d2[pos]))
    return out


def _f4_values(a, b, c, d):
    """Vectorized F4; inputs broadcast by the arithmetic, no boundary
    errors.

    The branch is the sign of the factored gap Delta4^2 - abcd (SUPER
    where it is positive), and K takes the complementary parameter
    m1 = |gap| / den straight from it, floored at ``_M1_FLOOR`` so that an
    exact modulus-one root stays finite."""
    a, b, c, d = (np.asarray(v, float) for v in (a, b, c, d))
    d2 = _delta4_sq_values(a, b, c, d)
    gap = _modulus_one_gap(a, b, c, d)
    den = np.where(gap > 0.0, d2, a * b * c * d)
    out = np.zeros(d2.shape, dtype=float)
    live = d2 >= 0.0
    if np.count_nonzero(live):
        den = den[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            m1 = np.maximum(np.abs(gap[live]) / den, _M1_FLOOR)
        out[live] = _elliptic_k_core(m1) / (_PI2 * np.sqrt(den))
    return out


def _g_values(x1, x2, x3):
    """Vectorized kernel G(xp, xm, x3) = F4(xp, xm, x3, 1) at
    xp = (x1 + x2) / 2, xm = (x1 - x2) / 2, from A3's own variables.

    With the fourth side 1 every invariant of :func:`_f4_values` factors
    into sums of x1, x2 and x3, so neither xp nor xm is formed:

        16 Delta4^2           = (x3+1-x2)(x3+1+x2)(x1-x3+1)(x1+x3-1)
        -16 (Delta4^2 - abcd) = (x2-x3+1)(x2+x3-1)(x1-x3-1)(x1+x3+1)
        16 abcd               = 4 (x1-x2)(x1+x2) x3

    Branches, m1 and its floor are those of :func:`_f4_values`; with
    every quantity scaled by 16, G = K(m1) / ((pi^2 / 4) sqrt(16 den)).
    The arguments are arrays of one shape and are left intact."""
    u, w, p, m = x3 + 1.0, x3 - 1.0, x1 + x3, x1 - x3
    sq = u - x2                        # 16 Delta4^2
    sq *= np.add(u, x2, out=u)
    sq *= np.add(m, 1.0, out=u)
    sq *= np.subtract(p, 1.0, out=u)
    gap = x2 - w                       # -16 (Delta4^2 - abcd)
    gap *= np.add(x2, w, out=w)
    gap *= np.subtract(m, 1.0, out=m)
    gap *= np.add(p, 1.0, out=p)
    den = x1 - x2                      # 16 abcd, then 16 den
    den *= np.add(x1, x2, out=p)
    den *= x3
    den *= 4.0
    # SUPER where Delta4^2 > abcd, i.e. where -16 gap < 0
    np.copyto(den, sq, where=gap < 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        m1 = np.abs(gap, out=gap)
        m1 /= den
        g = _elliptic_k_core(np.maximum(m1, _M1_FLOOR, out=m1))
        g /= np.sqrt(den, out=den) * (0.25 * _PI2)
    g[sq < 0.0] = 0.0
    return g


# ---------------------------------------------------------------------------
# F5/F6 reductions
# ---------------------------------------------------------------------------

def _f4_support_lo(c, d, e):
    return max(0.0, 2.0 * max(c, d, e) - (c + d + e))


def _f4_modulus_one_points(c, d, e):
    """The t where F4(c, d, e, t) is log-singular: Delta4^2 = c d e t, the
    elliptic modulus reaching 1.  The difference factorises,

        Delta4^2 - wxyz = -(w-x-y+z)(w-x+y-z)(w+x-y-z)(w+x+y+z) / 16,

    so the points are t = d+e-c, c-d+e and c+d-e; callers clip them into
    the support, where one outside it only adds a zero-length panel."""
    return [d + e - c, c - d + e, c + d - e]


def _empty_result():
    return IntegralResult(value=0.0, error_estimate=0.0, evaluations=1)


def _reduction(lo, hi, log_points, integrand, cfg):
    """int_lo^hi integrand(t) dt, one log-graded panel between each pair
    of consecutive edges among lo, hi and ``log_points`` clipped into
    [lo, hi]; a value of 0 with zero error when the support is empty
    (the vanishing rule)."""
    if not hi > lo + 1e-14 * max(1.0, hi):
        return _empty_result()
    edges = np.minimum(np.maximum(np.array([lo, *log_points, hi]), lo), hi)
    edges.sort()
    return _iterated(integrand, [(lambda: edges[None], "log", None)],
                     cfg or QuadratureConfig())


def f5_eval(a, b, c, d, e, cfg=None):
    """F5(a,b,c,d,e) reduced to a single quadrature:

        F5 = int dt t F3(a,b,t) F4(c,d,e,t)

    over the overlap of the two supports, with panel breakpoints at the
    interior points where the F4 elliptic modulus crosses 1 (logarithmic
    spikes of K).  Returns an IntegralResult; a value of 0 with zero error
    when the supports do not overlap (the vanishing rule).
    """
    _check_positive("a b c d e", a, b, c, d, e)

    def integrand(t):
        return t * _f3_values(a, b, t) * _f4_values(c, d, e, t)

    return _reduction(max(abs(a - b), _f4_support_lo(c, d, e)),
                      min(a + b, c + d + e),
                      _f4_modulus_one_points(c, d, e), integrand, cfg)


def f6_eval(a, b, c, d, e, f, cfg=None):
    """F6(a..f) = int dt t F4(a,b,c,t) F4(d,e,f,t) over the support
    overlap, with breakpoints at both factors' modulus-1 crossings."""
    _check_positive("a b c d e f", a, b, c, d, e, f)

    def integrand(t):
        return t * _f4_values(a, b, c, t) * _f4_values(d, e, f, t)

    return _reduction(max(_f4_support_lo(a, b, c), _f4_support_lo(d, e, f)),
                      min(a + b + c, d + e + f),
                      _f4_modulus_one_points(a, b, c)
                      + _f4_modulus_one_points(d, e, f), integrand, cfg)


# ---------------------------------------------------------------------------
# damped two-factor product
# ---------------------------------------------------------------------------

def weber_integral(a, b, p):
    """Weber's second exponential integral,

        int_0^inf x e^{-p^2 x^2} J0(a x) J0(b x) dx
            = 1/(2 p^2) exp(-(a^2+b^2)/(4 p^2)) I0(a b / (2 p^2)),

    evaluated in log space: the exponential and the Bessel growth cancel
    to exp(-(a-b)^2/(4 p^2)) times the scaled I0, so no overflow occurs
    for small p where both factors alone overflow float64.

    a and b may be scalars or arrays (broadcast together); p is a scalar.
    """
    if not (p > 0.0) or not math.isfinite(p):
        raise ValueError("p must be positive and finite")
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if (not np.all(np.isfinite(aa)) or not np.all(np.isfinite(bb))
            or np.any(aa < 0.0) or np.any(bb < 0.0)):
        raise ValueError("a, b must be nonnegative and finite")
    inv = 1.0 / (2.0 * p * p)
    out = inv * np.exp(-((aa - bb) ** 2) * inv * 0.5) * bessel_i0e(aa * bb * inv)
    if aa.ndim == 0 and bb.ndim == 0:
        return float(out)
    return out

