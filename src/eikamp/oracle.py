"""Independent reference computations.

Two oracles validate the oscillation-free pipeline from the outside:

* ``direct_eikonal_amplitude`` evaluates the impact-parameter integral
  A = 4 pi i s int db b J0(b sqrt(-t)) (1 - e^{i chi}) head-on.  It is
  feasible only at desk-scale kinematics; in the extreme regime
  s >> -t >> (hadron scale)^2 the oscillation count explodes and this
  oracle refuses, which is precisely why the oscillation-free formulas
  exist.  Validation there is indirect, through the closed forms this
  oracle certifies at moderate kinematics.  Unless configured, the range
  ends at the model's own ``chi_b_cutoff`` at |chi| = 1e-12, the
  ``b_cutoff`` that the smallness gate reports.

* ``gaussian_series_amplitude`` sums the exact all-orders eikonal series
  of the Gaussian model, whose n-th term is an explicit Gaussian in t.

``reference_besselproduct`` is the uniform entry point for Bessel-product
moments F_n (n = 3..6), wrapping the damped-extrapolation method
(``integrate_damped_bessel_product``) with an automatically scaled damping
sequence and a one-sided treatment of the four-parameter support boundary.

Both oscillatory integrals run on one deliberately simple integrator,
fixed 16-point Gauss-Legendre panels aligned to the oscillation and
refined by global doubling until two sweeps agree; they share no
quadrature code with the production engine.  Only the phase chi of a
tabulated model, which ``direct_eikonal_amplitude`` needs pointwise,
comes from the engine (``eikonal_chi``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .exceptions import ExtrapolationDivergenceError, NonConvergenceError
from .quadrature import IntegralResult, QuadratureConfig
from .special import bessel_j0
from .eikonal import _CHI_CUTOFF_LEVEL, eikonal_chi

__all__ = [
    "OracleConfig",
    "DEFAULT_P_SEQUENCE",
    "direct_eikonal_amplitude",
    "gaussian_series_amplitude",
    "integrate_damped_bessel_product",
    "reference_besselproduct",
]

DEFAULT_P_SEQUENCE = (0.2, 0.1, 0.05, 0.025)

# relative size of the last series term that stops the Gaussian series
_SERIES_STOP = 1e-15

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# panel doublings, and panels per sweep, of the fixed-panel integrator
_MAX_DOUBLINGS = 10
_MAX_PANELS = 2 ** 18
# damping-factor level where a damped Bessel-product integral is cut
_TRUNCATION_DECAY = 1e-16


def _gauss_panels(f, hi, n, rel_tol, abs_tol=0.0):
    """int_0^hi f(x) dx on n equal 16-point Gauss-Legendre panels, the
    panel count doubled until two sweeps agree to max(rel_tol |value|,
    abs_tol).

    Returns (value, |difference of the last two sweeps|, evaluations).
    Raises NonConvergenceError after 10 doublings, or when a sweep would
    exceed 2^18 panels.
    """
    def sweep(n_panels):
        if n_panels > _MAX_PANELS:
            raise NonConvergenceError(
                f"{n_panels} fixed Gauss panels exceed the budget of "
                f"{_MAX_PANELS}")
        edges = np.linspace(0.0, hi, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        y = f(x).reshape(n_panels, _GL_NODES.size)
        return (half * (y @ _GL_WEIGHTS)).sum()

    prev = sweep(n)
    evals = n * _GL_NODES.size
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        cur = sweep(n)
        evals += n * _GL_NODES.size
        diff = abs(cur - prev)
        if diff <= max(rel_tol * abs(cur), abs_tol):
            return cur, float(diff), evals
        prev = cur
    raise NonConvergenceError(
        f"fixed Gauss panels failed to stabilize under {_MAX_DOUBLINGS} "
        "panel doublings")


@dataclass(frozen=True)
class OracleConfig:
    """Reference-computation knobs; None means derive automatically.

    b_max: impact-parameter cutoff, finite (auto: the model's
        ``chi_b_cutoff`` at |chi| = 1e-12, the gate's own b_cutoff).
    series_terms: Gaussian series length (auto: stop when the last term
        falls below 1e-15 of the partial sum).
    """

    b_max: float | None = None
    series_terms: int | None = None

    def __post_init__(self):
        if self.b_max is not None and not 0.0 < self.b_max < math.inf:
            raise ValueError("b_max must be positive and finite")
        if self.series_terms is not None and self.series_terms < 1:
            raise ValueError("series_terms must be >= 1")


def direct_eikonal_amplitude(model, kin, cfg=None, *, quad_cfg=None):
    """Oscillatory reference amplitude

        A(s, t) = 4 pi i s int_0^b_max db b J0(b sqrt(-t)) (1 - e^{i chi(s,b)})

    integrated with fixed 16-point Gauss panels no wider than the J0 zero
    spacing pi/sqrt(-t), refined by global doubling until two sweeps agree
    to 1e-9 relative.  Raises when the oscillation count exceeds the panel
    budget (the extreme-kinematics regime this oracle does not cover).
    """
    cfg = cfg or OracleConfig()
    quad_cfg = quad_cfg or QuadratureConfig()
    s, qt = kin.s, kin.q
    b_max = (cfg.b_max if cfg.b_max is not None
             else model.chi_b_cutoff(_CHI_CUTOFF_LEVEL))
    closed = model.chi_closed()
    if closed is not None:
        chi_fn = closed
    else:
        def chi_fn(b):
            # one solve per b: a sweep holds up to millions of b, whose J0
            # panels would not fit in memory as one solve
            return np.array([eikonal_chi(model, s, bi, quad_cfg) for bi in b])

    def f(b):
        return b * bessel_j0(qt * b) * (1.0 - np.exp(1j * chi_fn(b)))

    zero_spacing = math.pi / qt if qt > 0 else math.inf
    n = max(1, math.ceil(b_max / min(zero_spacing, b_max)))
    if n > 30000:
        raise NonConvergenceError(
            f"oscillation count {n} exceeds the oracle panel budget; "
            "this regime is out of the oscillatory oracle's reach")

    value, _, _ = _gauss_panels(f, b_max, n, 1e-9)
    return 4.0j * math.pi * s * complex(value)


def gaussian_series_amplitude(g, lam, kin, cfg=None):
    """Exact all-orders eikonal amplitude of the Gaussian model,

        A(s, t) = (4 pi i s / lam^2) sum_{n>=1} (-1)^{n+1}
                  chi0^n / (n! n) exp(t / (2 n lam^2)),

    with chi0 = g lam^2 / (4 pi).  Absolutely convergent for every chi0;
    summation stops at cfg.series_terms or when the last term drops below
    1e-15 of the partial sum.
    """
    cfg = cfg or OracleConfig()
    chi0 = g * lam * lam / (4.0 * math.pi)
    n_max = cfg.series_terms if cfg.series_terms is not None else 300
    total = 0.0
    coeff = 1.0  # chi0^n / n!, built iteratively so long sums underflow
    for n in range(1, n_max + 1):
        coeff *= chi0 / n
        term = ((-1.0) ** (n + 1) * coeff / n
                * math.exp(kin.t / (2.0 * n * lam * lam)))
        total += term
        if cfg.series_terms is None and abs(term) < _SERIES_STOP * abs(total):
            break
    return 4.0j * math.pi * kin.s / (lam * lam) * total


# ---------------------------------------------------------------------------
# Bessel-product reference
# ---------------------------------------------------------------------------

def integrate_damped_bessel_product(params, cfg=None,
                                    p_sequence=DEFAULT_P_SEQUENCE):
    """Oracle for F_n = int_0^inf x prod_k J0(a_k x) dx by damping.

    Computes I(p) = int_0^inf x e^{-p^2 x^2} prod_k J0(a_k x) dx for each p
    in ``p_sequence`` (truncated where the damping factor drops below
    1e-16) on fixed Gauss panels, at first two periods of the fastest
    oscillation wide, then extrapolates p^2 -> 0 by Neville's scheme.
    I(p) is even in p at regular points, so the extrapolation converges
    rapidly; at a degenerate (divergent) triangle configuration the
    extrapolant differences grow instead and ExtrapolationDivergenceError
    is raised.

    The error estimate combines the extrapolation residual with the per-p
    quadrature errors propagated through the extrapolation weights.
    """
    cfg = cfg or QuadratureConfig()
    a = np.asarray(params, dtype=float)
    if not 2 <= a.size <= 6 or np.any(a <= 0.0):
        raise ValueError("params must be 2 to 6 positive Bessel scale factors")
    ps = np.asarray(p_sequence, dtype=float)
    if ps.size < 3 or np.any(ps <= 0.0) or np.any(np.diff(ps) >= 0.0):
        raise ValueError("p_sequence must be >= 3 decreasing positive values")

    per_rel = min(1e-9, cfg.rel_tol)
    per_abs = min(1e-13, cfg.abs_tol)
    h0 = 4.0 * np.pi / max(float(a.sum()), 1e-3)

    values, qerrs, evals = [], [], 0
    for p in ps:
        def g(x):
            y = x * np.exp(-(p * x) ** 2)
            for ak in a:
                y = y * bessel_j0(ak * x)
            return y

        cut = math.sqrt(-math.log(_TRUNCATION_DECAY)) / p
        v, e, ev = _gauss_panels(g, cut, max(8, math.ceil(cut / h0)),
                                 per_rel, per_abs)
        values.append(float(v))
        qerrs.append(e)
        evals += ev

    value, extrap_err = _neville_to_zero(ps ** 2, np.array(values),
                                         np.array(qerrs))
    return IntegralResult(value=value, error_estimate=extrap_err,
                          evaluations=evals)


def _neville_to_zero(z, vals, qerrs):
    """Polynomial extrapolation of samples (z_i, v_i) to z = 0.

    Returns (value, error estimate).  The estimate combines the last
    diagonal difference with the quadrature errors propagated through the
    Lagrange weights of the extrapolation.  Raises
    ExtrapolationDivergenceError when successive diagonal differences grow
    beyond what the propagated quadrature noise allows, the signature of a
    non-polynomial (divergent) limit.
    """
    n = z.size
    tab = vals.astype(float).copy()
    diag = [tab[0]]
    for k in range(1, n):
        for i in range(n - k):
            tab[i] = (z[i] * tab[i + 1] - z[i + k] * tab[i]) / (z[i] - z[i + k])
        diag.append(tab[0])
    diffs = np.abs(np.diff(diag))

    w = np.empty(n)
    for i in range(n):
        others = np.delete(z, i)
        w[i] = np.prod(others / (others - z[i]))
    quad_prop = float(np.abs(w) @ qerrs)

    noise = quad_prop + 1e-12 * max(1.0, abs(diag[-1]))
    if n >= 3 and diffs[-1] > diffs[-2] and diffs[-1] > 10.0 * noise:
        raise ExtrapolationDivergenceError(
            "extrapolant differences grow: the p -> 0 limit does not exist "
            "(degenerate or divergent configuration)")
    return float(diag[-1]), float(diffs[-1]) + quad_prop


def _auto_p_sequence(params):
    """Damping sequence scaled to the parameters.

    The J0 product contains slowly-oscillating components cos(sigma x) for
    every sign combination sigma = |a_1 +- a_2 +- ...|; sampling p across
    the smallest nonzero sigma puts the extrapolation on a crossover and
    ruins it.  All five points are placed below sigma_min / 5 (floored and
    capped relative to the mean scale).
    """
    a = np.asarray(params, dtype=float)
    lam = float(a.mean())
    combos = []
    for signs in product((1.0, -1.0), repeat=a.size - 1):
        combos.append(abs(a[0] + float(np.dot(signs, a[1:]))))
    combos = np.asarray(combos)
    nonzero = combos[combos > 1e-6 * lam]
    s_min = float(nonzero.min()) if nonzero.size else lam
    p_max = min(max(s_min / 5.0, 0.01 * lam), 0.5 * lam)
    return p_max * np.array([1.0, 0.5, 0.25, 0.125, 0.0625])


def reference_besselproduct(params, cfg=None):
    """Uniform oracle for F_n(a_1..a_n) = int x J0(a_1 x)...J0(a_n x) dx,
    n = 3..6, by damped extrapolation.

    Two refinements over the raw damped limit:

    * the damping sequence is auto-scaled (see _auto_p_sequence);

    * a four-parameter set sitting on the support boundary
      (max = sum of the rest, where the integral jumps) is evaluated
      one-sidedly: the plain damped limit lands on the jump midpoint,
      i.e. half the inside value, so instead the largest parameter is
      backed off by a decreasing margin delta (damping scaled along with
      it) and the inside limit delta -> 0 is extrapolated.

    Divergent configurations surface loudly rather than silently.
    Degenerate triangles propagate ExtrapolationDivergenceError from the
    damped path.  Interior modulus-one boundaries grow only
    logarithmically as the damping is removed, which can be too slow for
    the divergence detector; they then come back with an error estimate
    inflated by several orders of magnitude instead.
    """
    cfg = cfg or QuadratureConfig()
    a = tuple(float(v) for v in params)
    if not 3 <= len(a) <= 6:
        raise ValueError("reference_besselproduct takes 3 to 6 parameters")
    if any(not (v > 0.0 and math.isfinite(v)) for v in a):
        raise ValueError("parameters must be positive and finite")

    lam = sum(a) / len(a)
    srt = sorted(a)
    margin = srt[-1] - sum(srt[:-1])
    if len(a) == 4 and abs(margin) <= 1e-9 * lam:
        deltas = np.array([0.4, 0.2, 0.1, 0.05, 0.025]) * (lam / 1.5)
        base = np.asarray(DEFAULT_P_SEQUENCE)
        vals, errs, evals = [], [], 0
        for d in deltas:
            shifted = (*srt[:-1], srt[-1] - d)
            r = integrate_damped_bessel_product(shifted, cfg, base * d)
            vals.append(r.value)
            errs.append(r.error_estimate)
            evals += r.evaluations
        value, err = _neville_to_zero(deltas, np.array(vals), np.array(errs))
        return IntegralResult(value=value, error_estimate=err,
                              evaluations=evals)

    return integrate_damped_bessel_product(a, cfg, _auto_p_sequence(a))
