"""Shared reference computations for the test suite.

Everything here is intentionally independent of the package's production
code paths: direct power series for the special functions, scipy
quadrature of defining integrals, F5/F6 reductions in mpmath at 30
digits, and a scan-plus-bisection resolver for the raw support indicator
of the triple-kernel region.  Where a helper
does lean on package internals it says so explicitly: the second F5/F6
routes, the paper's five-block split of the A3 region, the full-plane
nodes of A2 / s and the 1D and nested integrals below run on the
package's engine and F3 kernel.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate as sp_integrate

from eikamp.besselprod import _check_positive, _empty_result, _f3_values
from eikamp.eikonal import _phase_split
from eikamp.quadrature import QuadratureConfig, _iterated, _limits


# ---------------------------------------------------------------------------
# series / definition oracles for special functions
# ---------------------------------------------------------------------------

def j0_series(x, terms=50):
    """Maclaurin J0(x) = sum (-x^2/4)^m / (m!)^2; accurate for |x| <= ~12."""
    q = -0.25 * x * x
    term = 1.0
    acc = 1.0
    for m in range(1, terms):
        term *= q / (m * m)
        acc += term
    return acc


def i0_series(x, terms=60):
    """Power series I0(x) = sum (x^2/4)^m / (m!)^2."""
    q = 0.25 * x * x
    term = 1.0
    acc = 1.0
    for m in range(1, terms):
        term *= q / (m * m)
        acc += term
    return acc


def k_by_definition(k):
    """K(k) by adaptive quadrature of the defining theta integral."""
    val, _ = sp_integrate.quad(
        lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2),
        0.0, 0.5 * math.pi, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


# ---------------------------------------------------------------------------
# raw-indicator region of the A3 triple integral
# ---------------------------------------------------------------------------

def theta_argument(x1, x2, x3):
    """The raw support argument ((x3+1)^2 - x2^2)(x1^2 - (x3-1)^2).

    The constrained region is where this product is positive; no use is
    made of the five-block case analysis.
    """
    return ((x3 + 1.0) ** 2 - x2 * x2) * (x1 * x1 - (x3 - 1.0) ** 2)


def x3_support_segments(x1, x2, x3_hi, n_scan=401, iters=60):
    """Numerically resolve {x3 in [0, x3_hi] : theta_argument > 0}.

    Dense sign scan followed by bisection on each sign flip; returns a
    list of (lo, hi) segments.  Endpoint signs are sampled slightly
    inside the range.
    """
    if x3_hi <= 0.0:
        return []
    grid = np.linspace(0.0, x3_hi, n_scan)
    grid[0] += 1e-12 * x3_hi
    grid[-1] -= 1e-12 * x3_hi
    sign = np.sign(theta_argument(x1, x2, grid))
    sign[sign == 0.0] = 1.0
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    roots = []
    for i in flips:
        lo, hi = grid[i], grid[i + 1]
        flo = theta_argument(x1, x2, lo)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            fm = theta_argument(x1, x2, mid)
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    edges = [0.0] + roots + [x3_hi]
    segments = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        if hi > lo and theta_argument(x1, x2, mid) > 0.0:
            segments.append((lo, hi))
    return segments


def indicator_integral(inner_on_segments, x1_max, epsabs=1e-10, epsrel=1e-9):
    """Integral over {0 <= x2 <= x1 <= x1_max} of an inner x3 reduction.

    ``inner_on_segments(x1, x2, segments)`` receives the numerically
    resolved positive-indicator x3 segments on [0, x1 + 1] and returns
    the inner x3 integral.  The outer double integral runs through scipy
    with interior kinks at x1 = 1, 2 and x2 = 1 passed as points.
    """

    def inner(x2, x1):
        segs = x3_support_segments(x1, x2, x1 + 1.0)
        return inner_on_segments(x1, x2, segs)

    def outer(x1):
        pts = [p for p in (1.0,) if 0.0 < p < x1]
        val, _ = sp_integrate.quad(inner, 0.0, x1, args=(x1,),
                                   epsabs=epsabs * 0.1, epsrel=epsrel * 0.1,
                                   limit=200, points=pts or None)
        return val

    pts = [p for p in (1.0, 2.0) if 0.0 < p < x1_max]
    val, _ = sp_integrate.quad(outer, 0.0, x1_max, epsabs=epsabs,
                               epsrel=epsrel, limit=200, points=pts or None)
    return val


def modulus_one_points(xp, xm, lo, hi, n_scan=257):
    """x3 roots of Delta4^2(xp, xm, x3, 1) - xp*xm*x3 on (lo, hi).

    Locates the log-singular points of the kernel for the indicator-form
    oracle.  Self-contained: uses the discriminant's factored definition
    directly rather than the production classifier.
    """
    if hi <= lo:
        return []

    def phi(x3):
        a, b, c, d = xp, xm, x3, 1.0
        sixteen = (((c + d) ** 2 - (a - b) ** 2)
                   * ((a + b) ** 2 - (c - d) ** 2))
        return sixteen / 16.0 - a * b * c * d

    grid = np.linspace(lo + 1e-12 * (hi - lo), hi - 1e-12 * (hi - lo), n_scan)
    vals = phi(grid)
    sign = np.sign(vals)
    sign[sign == 0.0] = 1.0
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    roots = []
    for i in flips:
        a, b = grid[i], grid[i + 1]
        fa = phi(a)
        for _ in range(60):
            mid = 0.5 * (a + b)
            fm = phi(mid)
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return roots


def gauss_panels(edges, order=24):
    """Gauss-Legendre nodes/weights tiled over consecutive panel edges."""
    nodes, weights = leggauss(order)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        xs.append(0.5 * (lo + hi) + half * nodes)
        ws.append(half * weights)
    return np.concatenate(xs), np.concatenate(ws)


# ---------------------------------------------------------------------------
# 1D and nested integrals over iterated limits (run on the package engine)
# ---------------------------------------------------------------------------

def integrate_1d(f, a, b, cfg=None, breakpoints=None):
    """Adaptive integral of f over the finite range (a, b): a one-level
    nest of :func:`_iterated` with the ``"sqrt"`` grading.

    Parameters
    ----------
    f : callable
        Vectorized integrand: maps an ndarray of abscissae to an ndarray of
        values (real or complex).  Never called at a, b, or any breakpoint.
    a, b : float
        Finite limits, a < b.
    breakpoints : sequence of float, optional
        Interior points of known bad behavior (integrable log singularities,
        jumps); they become panel edges, the panels on both sides are
        graded toward them by x = x0 +/- u^2, and nodes never touch them.
        The endpoints are graded the same way, which removes x^{-1/2}
        singularities there.  Points outside (a, b) are ignored.

    Raises
    ------
    NonConvergenceError
        If the subdivision budget is exhausted before reaching tolerance.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_1d takes finite limits only")
    if not b > a:
        raise ValueError("require a < b")
    brk = () if breakpoints is None else breakpoints
    edges = np.unique(np.clip([a, *brk, b], a, b))
    return _iterated(f, [(lambda: edges[None], "sqrt", None)],
                     cfg or QuadratureConfig())


def integrate_nested(f, ranges, cfg=None):
    """Iterated integral of ``f(x_0, ..., x_n)`` over x_k in ranges[k],
    each limit a constant or a vectorized callable of the outer
    variables; every level takes square-root graded panels."""
    return _iterated(f, [(_limits(*r), "sqrt", None) for r in ranges],
                     cfg or QuadratureConfig())


# ---------------------------------------------------------------------------
# second F5/F6 routes, through F3 alone (run on the package engine)
# ---------------------------------------------------------------------------

def f5_eval_symmetric(a, b, c, d, e, cfg=None):
    """Cross-check form of F5 as a double reduction through F3 only:

        F5 = int dt t F3(a,b,t) int dq q F3(c,d,q) F3(e,t,q).

    Slower than f5_eval and kept deliberately independent of the F4 branch
    table.  The outer integrand has integrable kinks/log points where the
    inner support edges collide; those t are supplied as breakpoints.
    """
    _check_positive("a b c d e", a, b, c, d, e)
    cfg = cfg or QuadratureConfig()
    t_lo, t_hi = abs(a - b), a + b
    if not t_hi > t_lo:
        return _empty_result()
    # inner q-support: (|c-d|, c+d) intersect (|e-t|, e+t); collisions at:
    coll = [e - abs(c - d), e + abs(c - d), c + d - e, e - (c + d), e + (c + d)]
    t_edges = np.unique([t_lo, *(t for t in coll if t_lo < t < t_hi), t_hi])
    # Outer nodes arbitrarily close to a collision t ask for inner
    # integrals with a log(1/distance) spike whose tolerance is limited by
    # the rounding noise of Delta3^2 near a support edge.  Inner
    # non-convergence is therefore not raised; the leftover inner error is
    # propagated into the outer estimate, which is what actually matters.
    return _iterated(
        lambda t, q: q * _f3_values(c, d, q) * _f3_values(e, t, q),
        [(lambda: t_edges[None], "sqrt", lambda t: t * _f3_values(a, b, t)),
         (_limits(lambda t: np.maximum(abs(c - d), np.abs(e - t)),
                  lambda t: np.minimum(c + d, e + t)), "sqrt", None)],
        cfg, strict=False)


def _chain_q_rows(c, d, e, f, t):
    """Edges of the q-tasks of :func:`f6_eval_chain`, one row per outer
    node t: the q-range [|c-d|, c+d] and, clipped into it, the q where the
    inner p-support edges |t-q| and t+q meet |e-f| and e+f (kinks of the
    inner integral).  A kink outside the range lands on one of its ends,
    where it only adds a zero-length panel."""
    lo, hi = abs(c - d), c + d
    g, h = abs(e - f), e + f
    kinks = np.clip(np.stack([t - g, t + g, g - t, h - t, t - h, h + t],
                             axis=1), lo, hi)
    ends = np.broadcast_to([[lo, hi]], (t.size, 2))
    return np.sort(np.column_stack([ends, kinks]), axis=1)


def f6_eval_chain(a, b, c, d, e, f, cfg=None):
    """Cross-check form of F6 as a triple reduction through F3 only:

        F6 = int dt t F3(a,b,t) int dq q F3(c,d,q) int dp p F3(e,f,p) F3(t,q,p).

    As in :func:`f5_eval_symmetric`, inner shortfalls are not raised but
    propagate into the outer error estimate.
    """
    _check_positive("a b c d e f", a, b, c, d, e, f)
    cfg = cfg or QuadratureConfig()
    t_lo, t_hi = abs(a - b), a + b
    if not t_hi > t_lo:
        return _empty_result()

    # the q-kinks of _chain_q_rows cross the q-range edges |c-d|, c+d at
    # finitely many t, which become outer breakpoints
    outer_brk = set()
    for qedge in (abs(c - d), c + d):
        for shift in (abs(e - f), -abs(e - f), e + f, -(e + f)):
            for tval in (qedge - shift, shift - qedge, qedge + shift):
                if t_lo < tval < t_hi:
                    outer_brk.add(tval)
    t_edges = np.unique([t_lo, *outer_brk, t_hi])
    return _iterated(
        lambda t, q, p: p * _f3_values(e, f, p) * _f3_values(t, q, p),
        [(lambda: t_edges[None], "sqrt", lambda t: t * _f3_values(a, b, t)),
         (lambda t: _chain_q_rows(c, d, e, f, t), "sqrt",
          lambda t, q: q * _f3_values(c, d, q)),
         (_limits(lambda t, q: np.maximum(abs(e - f), np.abs(t - q)),
                  lambda t, q: np.minimum(e + f, t + q)), "sqrt", None)],
        cfg, strict=False)


# ---------------------------------------------------------------------------
# F5/F6 to 30 digits (mpmath, independent of the package)
# ---------------------------------------------------------------------------

def f5_f6_mpmath(params, dps=30):
    """F5 (five parameters) or F6 (six) to ``dps`` digits: the reduction
    int dt t F3(a,b,t) F4(c,d,e,t), or int dt t F4(a,b,c,t) F4(d,e,f,t),
    by mpmath's tanh-sinh rule, split at the support edges and at every
    modulus-one point, so each singularity is a panel end.

    F3 and F4 are written out here from their invariants.  K takes its
    complementary parameter m1 = |Delta4^2 - abcd| / den from the
    factored gap, and K(1 - m1) is formed 100 digits deeper: at ``dps``
    digits 1 - m1 rounds to 1, and K to inf, at nodes within 10^-dps of
    a modulus-one point."""
    from mpmath import mp

    with mp.workdps(dps):
        p = [mp.mpf(x) for x in params]

        def f3(a, b, t):
            d2 = (t * t - (a - b) ** 2) * ((a + b) ** 2 - t * t) / 16
            return 1 / (2 * mp.pi * mp.sqrt(d2)) if d2 > 0 else mp.zero

        def f4(a, b, c, d):
            s = a + b + c + d
            d2 = (s - 2 * a) * (s - 2 * b) * (s - 2 * c) * (s - 2 * d) / 16
            if d2 <= 0:
                return mp.zero
            gap = -(a - b - c + d) * (a - b + c - d) * (a + b - c - d) * s / 16
            den = d2 if gap > 0 else a * b * c * d
            # a node that rounds onto a root has m1 = 0; the floor keeps K
            # finite there, at no cost to the sum
            m1 = max(abs(gap) / den, mp.mpf(10) ** -(dps + 50))
            with mp.workdps(dps + 100):
                k = mp.ellipk(1 - m1)
            return k / (mp.pi ** 2 * mp.sqrt(den))

        def support(x, y, z):
            """t-support of F4(x, y, z, t) and its modulus-one points."""
            return (max(0, 2 * max(x, y, z) - (x + y + z)), x + y + z,
                    [y + z - x, x - y + z, x + y - z])

        if len(p) == 5:
            a, b, c, d, e = p
            lo4, hi4, roots = support(c, d, e)
            lo, hi = max(abs(a - b), lo4), min(a + b, hi4)
            factors = (lambda t: f3(a, b, t), lambda t: f4(c, d, e, t))
        else:
            lo1, hi1, r1 = support(*p[:3])
            lo2, hi2, r2 = support(*p[3:])
            lo, hi, roots = max(lo1, lo2), min(hi1, hi2), r1 + r2
            factors = (lambda t: f4(*p[:3], t), lambda t: f4(*p[3:], t))
        if not hi > lo:
            return 0.0
        edges = sorted({lo, hi, *(r for r in roots if lo < r < hi)})
        return float(mp.quad(lambda t: t * factors[0](t) * factors[1](t),
                             edges))


# ---------------------------------------------------------------------------
# the paper's five-block split of the A3 region
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainBlock:
    """One iterated-limit block (x1-range, x2(x1), x3(x1, x2))."""

    x1_range: tuple
    x2_lower: object
    x2_upper: object
    x3_lower: object
    x3_upper: object


def decompose_a3_domain():
    """The five-block decomposition of the constrained 3D region.

    The region {(x1, x2, x3) : x3 >= 0, [(x3+1)^2 - x2^2] [x1^2 - (x3-1)^2] > 0,
    0 <= x2 <= x1} splits into exactly five iterated-limit blocks:

        [0,1] x [0,x1]  x [1-x1, x1+1]
        [1,2] x [0,1]   x [0,    x1+1]
        [1,2] x [1,x1]  x [x2-1, x1+1]
        [2,inf) x [0,1] x [0,    x1+1]
        [2,inf) x [1,x1] x [x2-1, x1+1]

    applied to H(x1, x2, x3) + H(x1, -x2, x3).  All limit callables are
    vectorized.
    """
    inf = math.inf

    def lo_zero(x1):
        return np.zeros_like(np.asarray(x1, dtype=float))

    def hi_one(x1):
        return np.ones_like(np.asarray(x1, dtype=float))

    def hi_x1(x1):
        return np.asarray(x1, dtype=float)

    def lo_one(x1):
        return np.ones_like(np.asarray(x1, dtype=float))

    def x3_zero(x1, x2):
        return np.zeros_like(np.asarray(x1, dtype=float))

    def x3_one_minus(x1, x2):
        return 1.0 - np.asarray(x1, dtype=float)

    def x3_x2_minus(x1, x2):
        return np.asarray(x2, dtype=float) - 1.0

    def x3_hi(x1, x2):
        return np.asarray(x1, dtype=float) + 1.0

    return [
        DomainBlock((0.0, 1.0), lo_zero, hi_x1, x3_one_minus, x3_hi),
        DomainBlock((1.0, 2.0), lo_zero, hi_one, x3_zero, x3_hi),
        DomainBlock((1.0, 2.0), lo_one, hi_x1, x3_x2_minus, x3_hi),
        DomainBlock((2.0, inf), lo_zero, hi_one, x3_zero, x3_hi),
        DomainBlock((2.0, inf), lo_one, hi_x1, x3_x2_minus, x3_hi),
    ]


# ---------------------------------------------------------------------------
# the nodes of A2 / s over the whole plane
# ---------------------------------------------------------------------------

def a2hat_full_plane_nodes(a2hat, ks):
    """Â2 and its error at each k of ``ks``, for the model, knots and
    q_cut of the interpolant ``a2hat``, in one solve of the polar form
    over the whole plane

        (1/8 pi^2) int_0^q_cut dk1 k1 r(k1) int_0^pi dphi r(rho),

    rho = |k - k1 e^{i phi}|, r = a / phase, with one level-0 task per k
    and a tenth of the interpolant's tolerance on Â2 (the second route of
    ``_A2Hat._solve_nodes``, which covers half of the plane).  The k1 axis
    has edges at the knots and at k + q_j, k - q_j and q_j - k, where the
    circle rho = q_j touches phi = 0 or pi (q_0 = 0 is r's cone at the
    origin); the phi axis has them where rho = q_j crosses it.  r is C1
    across each, so every edge is a plain panel edge."""
    ks = np.asarray(ks, dtype=float)
    _phase, red = _phase_split(a2hat.model)
    q = a2hat.knots[None, :]
    qj = q[q > 0.0][None, :]
    q_cut = a2hat.q_cut
    cfg = QuadratureConfig(
        rel_tol=a2hat._node_cfg.rel_tol,
        abs_tol=max(0.1 * a2hat.tol * 8.0 * math.pi ** 2, 1e-300))

    def k1_rows(k):
        k = k[:, None]
        rows = np.concatenate([np.zeros_like(k),
                               np.broadcast_to(q, (k.size, q.size)),
                               k + q, k - q, q - k,
                               np.full_like(k, q_cut)], axis=1)
        return np.sort(np.clip(rows, 0.0, q_cut), axis=1)

    def phi_rows(k, k1):
        k, k1 = k[:, None], k1[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (k * k + k1 * k1 - qj * qj) / (2.0 * k * k1)
        phi = np.arccos(np.clip(np.nan_to_num(c, nan=1.0), -1.0, 1.0))
        return np.sort(np.concatenate(
            [np.zeros_like(k), phi, np.full_like(k, math.pi)], axis=1),
            axis=1)

    def weight(k, k1):
        return k1 * red(k1)

    def f(k, k1, phi):
        s = np.sin(0.5 * phi)
        return red(np.sqrt((k - k1) ** 2 + 4.0 * k * k1 * s * s))

    res = _iterated(f, [(k1_rows, "plain", weight),
                        (phi_rows, "plain", None)],
                    cfg, outer=(ks,))
    norm = 1.0 / (8.0 * math.pi ** 2)
    return norm * res.value, norm * res.error_estimate
