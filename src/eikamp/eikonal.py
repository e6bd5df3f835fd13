"""Oscillation-free eikonal amplitude pipeline.

For a Born model A_B and kinematics (s, t) this module computes the first
three terms of the moderately-small-eikonal expansion,

    A(s, t) ~= [A1(s, t) - A3(s, t)] + i A2(s, t),

where A1 is the Born amplitude itself, A2 / s is the 2D convolution
a * a of the Born amplitude a = A_B / s with itself, and A3 is the 2D
convolution of a with A2, whose kernel for radial functions is the
closed form F3.  A2 / s depends on neither s nor t, so it is interpolated
once per model; A2's row, the interpolant's nodes and A3's row are one
polar solve (:func:`_convolution`).  None of the integrals oscillate:
the Bessel products of the naive impact-parameter representation have
been integrated out in closed form, which is the entire point of the
construction.  The paper's own A3, a 3D integral of
three Born factors against the elliptic kernel G over the region where
G has support, stays as the second route (:func:`_a3_g_route`).

A model of one constant phase, a(q) = phase * r(q) with r real (both
closed families and real or pure-imaginary tables, see
:attr:`eikamp.models.BornModel.phase`), has A2, A3 and the tabulated
phase chi integrated over r in real arithmetic, times phase^2, phase^3
and phase once at the end; a general table keeps complex integrands.
The interpolant of A2 / s holds A2 / (s phase^2), the integral over r.

The expansion is valid while the eikonal phase chi(s, b) stays moderately
small; a gate warns at max|chi| >= 0.5, refuses at >= 1 unless overridden,
and refuses unconditionally above 2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .besselprod import _f4_modulus_one_points, _g_values
from .exceptions import ChiGateError, NonConvergenceError
from .quadrature import QuadratureConfig, _iterated, _limits
from .special import bessel_j0

__all__ = [
    "CHI_WARN_THRESHOLD",
    "CHI_ERROR_THRESHOLD",
    "CHI_HARD_THRESHOLD",
    "EikonalProfile",
    "AmplitudeTerms",
    "eikonal_chi",
    "build_profile",
    "a1_term",
    "a2_term",
    "a3_term",
    "assemble_amplitude",
    "diff_cross_section",
    "compute_terms",
]

CHI_WARN_THRESHOLD = 0.5
CHI_ERROR_THRESHOLD = 1.0
CHI_HARD_THRESHOLD = 2.0

# relative decay level at which semi-infinite integration ranges are cut
_TAIL_DECAY = 1e-16
# |chi| level defining the impact-parameter cutoff of a profile and the
# oracle's automatic b_max
_CHI_CUTOFF_LEVEL = 1e-12
# each x1 slab of A3's G route after the first runs at the absolute
# tolerance _SHARE * rel_tol * |sum of the slabs before it| (see
# _a3_g_route)
_SHARE = 0.1
# the interpolant of A2 / s is held to _A2HAT_SHARE * rel_tol * max|A2 / s|
# (see _A2Hat); its panels start at degree _A2HAT_DEGREE and split after
# _A2HAT_MAX_DEGREE, within _A2HAT_MAX_ROUNDS rounds of new nodes
_A2HAT_SHARE = 0.1
_A2HAT_DEGREE = 8
_A2HAT_MAX_DEGREE = 16
_A2HAT_MAX_ROUNDS = 12


def _phase_split(model):
    """(phase, red) with a(q) = phase * red(q).  For a model of one
    constant phase red(q) is the real array a(q) / phase, read off
    ``model.reduced`` (every Born evaluation goes through it); a general
    model gets phase 1 and red = ``model.reduced``, complex."""
    reduced = model.reduced
    if model.phase is None:
        return 1, reduced
    if model.phase == 1:
        return 1, lambda q: reduced(q).real
    return model.phase, lambda q: reduced(q).imag


def _tail_cut(model):
    """Where semi-infinite q ranges are cut: the model envelope is down
    to _TAIL_DECAY of its value at 0."""
    return model.q_cutoff(_TAIL_DECAY * float(model.envelope(0.0)))


def eikonal_chi(model, s, b, cfg=None):
    """Eikonal phase chi(s, b) = (1/4 pi s) int_0^inf dq q J0(q b) A_B(s, -q^2).

    Gaussian-family models use their closed form (the transform of a
    Gaussian is a Gaussian).  Any other model takes the quadrature route,
    which truncates where the model envelope has decayed by 1e-16 and
    supplies the Bessel zero spacing as panel breakpoints.  An array of b
    is one solve with one task per b, each task refined as it would be
    alone, so every chi is bit for bit that of a scalar call; a scalar b
    returns a complex.  The solve holds every task's panels at once, up
    to 4,000 each, and every task's row of edges is as wide as that of
    the largest b, so a caller with many thousands of b passes them in
    pieces.
    """
    bs = np.asarray(b, dtype=float)
    if not np.all((bs >= 0.0) & (bs < math.inf)):
        raise ValueError("impact parameter b must be >= 0 and finite")
    closed = model.chi_closed()
    if closed is not None:
        out = closed(b)
        return complex(out) if np.ndim(b) == 0 else out

    cfg = cfg or QuadratureConfig()
    q_cut = _tail_cut(model)
    phase, red = _phase_split(model)
    # tabulated interpolants are C1 at the nodes; panel edges there
    # restore full quadrature order
    knots = _knots(model, q_cut)

    def edges(b):
        # panel edges near the J0 oscillation nodes, j pi / b up to q_cut
        # for b q_cut > 2 pi, at most 4,000 of them; q_cut fills the
        # slots a row does not use
        scan = b * q_cut > 2.0 * math.pi
        n = np.where(scan, np.minimum(np.floor(b * q_cut / math.pi), 4000.0),
                     0.0)
        j = np.arange(1, int(n.max(initial=0.0)) + 1)
        brk = np.where(j <= n[:, None],
                       j * (math.pi / np.where(scan, b, 1.0))[:, None], q_cut)
        rows = np.concatenate([np.zeros((b.size, 1)), brk,
                               np.broadcast_to(knots, (b.size, knots.size)),
                               np.full((b.size, 1), q_cut)], axis=1)
        return np.sort(np.clip(rows, 0.0, q_cut), axis=1)

    # the s in the prefactor cancels against A_B = s * a(q)
    def f(b, q):
        return (q / (4.0 * math.pi)) * bessel_j0(q * b) * red(q)

    # no edge is singular (q = 0, J0 half-periods, C1 knots): plain panels
    res = _iterated(f, [(edges, "plain", None)], cfg, outer=(bs.ravel(),))
    chi = np.asarray(phase * res.value, dtype=complex)
    return complex(chi[0]) if bs.ndim == 0 else chi.reshape(bs.shape)


@dataclass(frozen=True)
class EikonalProfile:
    """chi(b) at fixed s with its peak magnitude and decay cutoff."""

    chi: object          # callable b -> complex, vectorized
    max_abs_chi: float
    b_cutoff: float


def _apply_chi_gate(max_abs_chi, override):
    if max_abs_chi >= CHI_HARD_THRESHOLD:
        raise ChiGateError(
            f"max|chi| = {max_abs_chi:.3g} >= {CHI_HARD_THRESHOLD}: far "
            "outside the moderately-small-eikonal regime; refusing even "
            "with override")
    if max_abs_chi >= CHI_ERROR_THRESHOLD:
        if not override:
            raise ChiGateError(
                f"max|chi| = {max_abs_chi:.3g} >= {CHI_ERROR_THRESHOLD}: "
                "moderately small regime violated (set the override to "
                "proceed anyway)")
        warnings.warn(
            f"max|chi| = {max_abs_chi:.3g} >= 1: proceeding under override; "
            "the three-term truncation error is uncontrolled", stacklevel=3)
    elif max_abs_chi >= CHI_WARN_THRESHOLD:
        warnings.warn(
            f"max|chi| = {max_abs_chi:.3g} in [0.5, 1): chi^4 truncation "
            "terms may be visible", stacklevel=3)


def build_profile(model, s, cfg=None, *, override_chi_gate=False):
    """Construct the eikonal profile at fixed s and run the smallness gate.

    For closed-form families the peak is analytic.  Tabulated models get
    their peak from a quadrature scan of 41 b over a few envelope decay
    lengths, one :func:`eikonal_chi` solve for all of them.  The cutoff
    is the model's own (``chi_b_cutoff``).
    """
    cfg = cfg or QuadratureConfig()
    chi = model.chi_closed()
    if chi is not None:
        peak = float(model.chi0)
    else:
        def chi(b):
            return eikonal_chi(model, s, b, cfg)

        # peak scan: |chi| decays on the scale of a few 1/kappa, so a
        # short geometric grid brackets the maximum; extreme b would only
        # drown the quadrature route in J0 oscillation panels
        kappa = model.envelope_kappa
        bs = np.concatenate([[0.0],
                             np.geomspace(1e-2 / kappa, 12.0 / kappa, 40)])
        peak = float(np.abs(chi(bs)).max())
    b_cut = model.chi_b_cutoff(_CHI_CUTOFF_LEVEL)
    _apply_chi_gate(peak, override_chi_gate)
    return EikonalProfile(chi=chi, max_abs_chi=peak, b_cutoff=b_cut)


# ---------------------------------------------------------------------------
# amplitude terms
# ---------------------------------------------------------------------------

def a1_term(model, kin):
    """First term: the Born amplitude itself, A1(s,t) = A_B(s, sqrt(-t)).

    Pure model evaluation; carries no quadrature error.
    """
    return complex(model.value(kin.s, kin.q))


def _knots(model, q_cut):
    """A table's knots below ``q_cut``, q = 0 among them (the cone of r
    at the origin); none for a closed family."""
    grid = model.q_grid
    knots = np.zeros(0) if grid is None else np.asarray(grid, float)
    return knots[knots < q_cut]


def _convolution(red, h, knots, breaks, q_far, ks, cfg, half):
    """C(k) = (1/16 pi^2) int d^2p red(|p|) h(|k - p|), its error and
    the solve's evaluations, at every k of ``ks`` in one solve of the
    polar form

        int_0^q_far dk1 k1 red(k1) int_phi0^pi dphi h(rho),

    rho = |k - k1 e^{i phi}|, with one level-0 task per k and ``cfg`` on
    that integral.  Beyond ``q_far`` the integrand is negligible; red is
    C1 across its ``knots`` and h across its ``breaks``, where 0 stands
    for a cone at the origin.

    With ``half``, h is red and the integrand symmetric under p -> k - p,
    so the solve covers only the half-plane p.k <= k^2 / 2 and doubles
    it: phi0 = arccos(k / 2 k1) for k1 > k / 2 and 0 below (pi / 2 at
    k = 0).  Without, phi0 = 0.  The k1 axis has edges at the knots and
    where a circle rho = b_j touches phi = 0 or pi: |k - b_j| and k + b_j
    over the whole plane, only b_j - k and, for b_j >= k / 2, k - b_j
    within the half-plane, whose phi range starts to shrink at k / 2.
    The phi axis has edges at phi0 and where rho = b_j crosses it.  Every
    edge is plain but k / 2, where the inner integral has a square-root
    point, and a table's last knot: the half-plane's k1 axis is
    square-root graded there and at its ends.  Past the last knot the
    integrand falls exponentially out to q_far, so the panel beyond it
    is graded toward the knot, where its mass is, as well as toward its
    far edge; graded toward that edge alone, its segments next to the
    knot are the widest and their error estimates the most pessimistic.
    """
    b = breaks[None, :]
    last = knots[-1] if knots.size else math.nan

    def k1_rows(k):
        k = k[:, None]
        cuts = ([0.5 * k, np.minimum(k - b, 0.5 * k), b - k] if half
                else [np.abs(k - b), k + b])
        rows = np.concatenate([np.zeros_like(k),
                               np.broadcast_to(knots, (k.size, knots.size)),
                               *cuts,
                               np.full_like(k, q_far)], axis=1)
        rows = np.sort(np.clip(rows, 0.0, q_far), axis=1)
        return (rows, (rows != 0.5 * k) & (rows != last)) if half else rows

    def phi_rows(k, k1):
        k, k1 = k[:, None], k1[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (k * k + k1 * k1 - b * b) / (2.0 * k * k1)
        lo = (np.arccos(np.minimum(0.5 * k / k1, 1.0)) if half
              else np.zeros_like(k))
        # fmax and fmin take c = 0 / 0 (k = 0, k1 = b_j) to -1
        phi = np.arccos(np.fmin(np.fmax(c, -1.0), 1.0))
        return np.sort(np.concatenate(
            [lo, np.maximum(phi, lo), np.full_like(k, math.pi)], axis=1),
            axis=1)

    def weight(k, k1):
        return k1 * red(k1)

    def f(k, k1, phi):
        s = np.sin(0.5 * phi)
        return h(np.sqrt((k - k1) ** 2 + 4.0 * k * k1 * s * s))

    res = _iterated(f, [(k1_rows, "sqrt" if half else "plain", weight),
                        (phi_rows, "plain", None)], cfg, outer=(ks,))
    norm = (2.0 if half else 1.0) / (8.0 * math.pi ** 2)
    return norm * res.value, norm * res.error_estimate, res.evaluations


def _a2_with_error(model, kin, cfg):
    phase, red = _phase_split(model)
    q_cut = _tail_cut(model)
    knots = _knots(model, q_cut)
    c, err, _ = _convolution(red, red, knots, knots, q_cut,
                             np.array([kin.q]), cfg, True)
    return kin.s * phase ** 2 * c.item(), kin.s * err.item()


def a2_term(model, kin, cfg=None):
    """Second term: 2D integral of two Born factors,

        A2 = (1/16 pi^2)(-t/s) int_1^inf dx1 int_0^1 dx2
             (x1^2 - x2^2)/sqrt((x1^2-1)(1-x2^2))
             A_B(s, q(x1+x2)/2) A_B(s, q(x1-x2)/2),

    that is s times the convolution (1/16 pi^2) int d^2p a(p) a(q - p),
    s phase^2 Â2(q) (:class:`_A2Hat`).  It is solved at ``cfg`` in its
    own row, the interpolant's node solve at k = q alone
    (:func:`_convolution` over the half-plane), with a table's knots as
    panel edges and no edge singularity.
    """
    return complex(_a2_with_error(model, kin, cfg or QuadratureConfig())[0])


# ---------------------------------------------------------------------------
# A3 as the convolution of a with A2
# ---------------------------------------------------------------------------

def _lobatto(lo, hi, n):
    """The n + 1 Chebyshev-Lobatto points of [lo, hi], ascending; the
    ends and, for even n, the midpoint are exact, so a panel shares them
    with its halves and its doubled degree."""
    x = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(
        np.pi * np.arange(n + 1) / n)
    x[0], x[-1] = lo, hi
    if n % 2 == 0:
        x[n // 2] = 0.5 * (lo + hi)
    return x


def _lobatto_weights(n):
    """Barycentric weights of the n + 1 Chebyshev-Lobatto points."""
    w = (-1.0) ** np.arange(n + 1)
    w[[0, -1]] *= 0.5
    return w


def _chebyshev_tail(values):
    """The error estimate of the interpolant through ``values`` at a
    panel's Lobatto points, read off its Chebyshev coefficients a_j.

    With P_j = |a_{j-1}| + |a_j| and r the larger of P_n / P_{n-2} and
    P_{n-2} / P_{n-4}, a geometric decay extrapolates past degree n:
    twice the sum of the pairs P_n r + P_n r^2 + ..., which bounds the
    error of an interpolant whose coefficients keep decaying at r
    (Trefethen, Approximation Theory and Approximation Practice, Thm
    8.2), times 4 for a decay that slows past n, 8 P_n r / (1 - r).  It
    is taken only where the decay is clearly geometric: r < 1/16, a_n
    below an eighth of a_{n-1}, so that the decay has not slowed at the
    last step, and neither of the last two coefficients above a quarter
    of the one two degrees before it, so that it has not stalled at the
    noise of the node values.  An algebraic decay, a dip of one
    coefficient or pair and a vanishing pair fail these; the estimate is
    P_n itself wherever they fail."""
    n = len(values) - 1
    half = np.ones(n + 1)
    half[[0, -1]] = 0.5
    j = np.arange(n + 1)
    a = np.abs((np.cos(np.pi * np.outer(j, j) / n) * (half * values))
               .sum(axis=1)) * (2.0 / n)
    a[-1] *= 0.5
    p = a[:-1] + a[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        # a 0 / 0 is NaN, which fails every test below
        r = np.max([p[-1] / p[-3], p[-3] / p[-5]])
    geometric = (r < 1.0 / 16.0 and a[-1] < 0.125 * a[-2]
                 and a[-1] < 0.25 * a[-3] and a[-2] < 0.25 * a[-4])
    return float(8.0 * p[-1] * r / (1.0 - r) if geometric else p[-1])


def _node_error_bound(x, err):
    """The most that node errors ``err`` move the interpolant through the
    Lobatto points ``x``: the supremum over the panel of sum_j |l_j| err_j,
    l_j the Lagrange basis, which is at most the Lebesgue constant times
    max(err).  It is taken at the nodes and at 15 points between each
    pair, within 0.3% of the supremum on random errors."""
    w = _lobatto_weights(len(x) - 1)
    t = (x[:-1, None] + np.diff(x)[:, None] * (np.arange(1, 16) / 16.0))
    c = w / (t.reshape(-1, 1) - x)
    return float(max(((np.abs(c) * err).sum(axis=1)
                      / np.abs(c.sum(axis=1))).max(), err.max()))


def _born_norms(model, cfg):
    """int_0^q_cut q |a(q)|^p dq for p = 1 and 2 in one solve at ``cfg``,
    a table's knots as panel edges, with one value and error per p.  The
    first bounds the eikonal phase (:func:`_chi_bound`) and the error
    the interpolant of A2 / s spreads into a convolution; the second sets
    the interpolant's tolerance (:class:`_A2Hat`)."""
    _phase, red = _phase_split(model)
    q_cut = _tail_cut(model)
    q_edges = np.unique(np.concatenate([[0.0], _knots(model, q_cut),
                                        [q_cut]]))
    return _iterated(
        lambda p, q: q * np.abs(red(q)) ** p,
        [(lambda p: np.broadcast_to(q_edges, (p.size, q_edges.size)),
          "plain", None)],
        cfg, outer=(np.array([1.0, 2.0]),))


def _chi_bound(norms):
    """A bound on max_b |chi(s, b)| from the model's norms
    (:func:`_born_norms`): |J0| <= 1, so |chi| is at most
    (1/4 pi) int q |a| dq, here with its error; the two are equal, at
    b = 0, for an amplitude of one sign.  The tail beyond q_cut, 1e-16 of
    the envelope, is below the rounding of the sum."""
    return float(norms.value[0] + norms.error_estimate[0]) / (4.0 * math.pi)


def _a2_cap(model, level):
    """The k beyond which the model's decreasing bound on |A2(s, -k^2)|
    / s stays at or below ``level``, to about 1e-12 relative."""
    lo, hi = 0.0, 1.0
    while model.a2_bound(hi) > level:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if model.a2_bound(mid) <= level else (mid, hi)
    return hi


class _A2Hat:
    """A2 of the model as a function of momentum, built once for every
    s and t: Â2(k) = A2(s, -k^2) / (s phase^2), which depends on neither.

    A piecewise Chebyshev-Lobatto interpolant on [0, k_cap], evaluated in
    barycentric form, and 0 beyond k_cap.  Panels start dyadic, [0, w],
    [w, 2w], [2w, 4w], ..., w the width over which the envelope falls by
    e, at degree :data:`_A2HAT_DEGREE`; a panel whose estimate misses the
    tolerance doubles its degree up to :data:`_A2HAT_MAX_DEGREE`, then
    splits in two.  The estimate follows the decay of the panel's
    Chebyshev coefficients, extrapolated past its degree where the decay
    is clearly geometric and the last two coefficients elsewhere
    (:func:`_chebyshev_tail`).  Each round of new nodes is one solve of
    the convolution a * a over the half-plane (:meth:`_solve_nodes`), to a
    tenth of the tolerance.

    The tolerance, _A2HAT_SHARE rel_tol max |Â2|, is on the supremum norm,
    with max |Â2| <= (1/8 pi) int k |a|^2 dk (equal for a model of one
    phase, at k = 0) as the scale rather than |Â2(k)|, which may cross
    zero; k_cap is where the model's bound on |Â2| (``a2_bound``) falls
    to half of it.  ``error`` bounds |Â2 - interpolant| over every
    k >= 0: the worst panel's estimate plus the most its nodes'
    quadrature errors move it (:func:`_node_error_bound`), or that bound
    at k_cap, whichever is larger.  ``l1`` is 2 pi int k |a(k)| dk, so
    an error e of Â2 moves a convolution with a by at most e l1.  The
    model's norms (:func:`_born_norms`), which give ``l1`` and the
    tolerance, are solved here unless passed, as ``table`` passes those
    its gate has read.
    """

    def __init__(self, model, cfg, norms=None):
        self.model = model
        self.q_cut = _tail_cut(model)
        self.knots = _knots(model, self.q_cut)
        if norms is None:
            norms = _born_norms(model, cfg)
        self.l1 = 2.0 * math.pi * float(norms.value[0])
        self.tol = (_A2HAT_SHARE * cfg.rel_tol * float(norms.value[1])
                    / (8.0 * math.pi))
        self.k_cap = _a2_cap(model, 0.5 * self.tol)
        # a tenth of tol on Â2, that is on the half-plane integral times
        # the half-plane's norm 2 / 8 pi^2 (see _convolution)
        self._node_cfg = QuadratureConfig(
            rel_tol=0.1 * _A2HAT_SHARE * cfg.rel_tol,
            abs_tol=max(0.1 * self.tol * 4.0 * math.pi ** 2, 1e-300))
        self.evaluations = norms.evaluations
        self._cache = {}

        edges = [0.0, min(model.q_cutoff(float(model.envelope(0.0)) / math.e),
                          self.k_cap)]
        while 2.0 * edges[-1] < 0.75 * self.k_cap:
            edges.append(2.0 * edges[-1])
        edges[-1] = self.k_cap
        pending = [(lo, hi, _A2HAT_DEGREE) for lo, hi in zip(edges, edges[1:])]
        done = []
        for _ in range(_A2HAT_MAX_ROUNDS):
            points = [_lobatto(lo, hi, n) for lo, hi, n in pending]
            self._solve_nodes(np.concatenate(points))
            refine = []
            for (lo, hi, n), x in zip(pending, points):
                f, err = (np.array(c) for c in zip(*map(self._cache.get, x)))
                est = _chebyshev_tail(f)
                if est <= self.tol:
                    done.append((lo, x, f, est + _node_error_bound(x, err)))
                elif n < _A2HAT_MAX_DEGREE:
                    refine.append((lo, hi, 2 * n))
                else:
                    mid = 0.5 * (lo + hi)
                    refine += [(lo, mid, _A2HAT_DEGREE),
                               (mid, hi, _A2HAT_DEGREE)]
            pending = refine
            if not pending:
                break
        if pending:
            raise NonConvergenceError(
                f"A2 interpolant did not reach {self.tol:.3e} in "
                f"{_A2HAT_MAX_ROUNDS} rounds: {len(pending)} panels left")
        done.sort(key=lambda p: p[0])
        self.edges = np.array([p[0] for p in done] + [self.k_cap])
        self.panels = [(x, f, _lobatto_weights(len(x) - 1))
                       for _lo, x, f, _e in done]
        self.error = max(max(p[3] for p in done),
                         model.a2_bound(self.k_cap))

    def _solve_nodes(self, ks):
        """Â2 at every k not yet known, in one :func:`_convolution` of r
        with itself over the half-plane, at half the absolute tolerance
        of the whole plane, so that twice its integral keeps the whole
        plane's budget."""
        ks = np.array(sorted(set(ks.tolist()) - self._cache.keys()))
        if ks.size == 0:
            return
        _phase, red = _phase_split(self.model)
        c, err, evals = _convolution(red, red, self.knots, self.knots,
                                     self.q_cut, ks, self._node_cfg, True)
        self.evaluations += evals
        self._cache.update(zip(ks.tolist(), zip(c.tolist(), err.tolist())))

    def __call__(self, k):
        """The interpolant at an array of k >= 0; 0 beyond k_cap."""
        panel = np.searchsorted(self.edges, k, side="right") - 1
        out = np.zeros(k.shape, dtype=self.panels[0][1].dtype)
        for p, (x, f, w) in enumerate(self.panels):
            at = np.flatnonzero(panel == p)
            if at.size == 0:
                continue
            d = k[at, None] - x[None, :]
            exact = d == 0.0
            d[exact] = 1.0
            c = w / d
            y = (c * f).sum(axis=1) / c.sum(axis=1)
            hit = exact.any(axis=1)
            y[hit] = f[exact.argmax(axis=1)[hit]]
            out[at] = y
        return out


def _a3_with_error(model, kin, cfg, a2hat=None):
    """A3, its error estimate and its evaluations, as the 2D convolution
    of a with A2 (see :func:`a3_term`), given the model's interpolant of
    A2 / s (:class:`_A2Hat`, built here if not passed).

    One :func:`_convolution` of r with the interpolant over the whole
    plane, whose breaks are its panel edges, 0 and k_cap among them, and
    whose k1 axis ends at min(q_cut, q + k_cap), beyond which Â2 is 0; at
    half of ``cfg``'s tolerances, so that the interpolant's share fits
    beside it.  The error is the solve's, plus (s / 24 pi^2) times the
    interpolant's error bound times 2 pi int k |a| dk.  That bound holds
    |Â2| to its maximum, so on a row whose parts cancel it can exceed
    rel_tol |A3|.  Returns the evaluations of the row's solve; those of
    the build are its own (``a2hat.evaluations``).
    """
    a2hat = a2hat or _A2Hat(model, cfg)
    phase, red = _phase_split(model)
    c, err, evals = _convolution(
        red, a2hat, a2hat.knots, a2hat.edges,
        min(a2hat.q_cut, kin.q + a2hat.k_cap), np.array([kin.q]),
        replace(cfg, rel_tol=0.5 * cfg.rel_tol, abs_tol=0.5 * cfg.abs_tol),
        False)
    # (1/24 pi^2) int d^2k against (1/16 pi^2) in C
    pref = 2.0 / 3.0 * kin.s
    spread = kin.s / (24.0 * math.pi ** 2) * a2hat.error * a2hat.l1
    return (pref * phase ** 3 * complex(c.item()),
            pref * err.item() + spread, evals)


def a3_term(model, kin, cfg=None):
    """Third term: the 2D convolution of the Born amplitude with A2,

        A3(q) = (1/24 pi^2) int d^2k a(k) A2(s, -|q - k|^2),

    since A3 is the transform of chi^3 = chi chi^2.  For radial functions
    the kernel of this convolution is the paper's F3 = 1/(2 pi Delta), so
    no oscillatory integral is evaluated.  With Â2 = A2 / s interpolated
    once per model (:class:`_A2Hat`), each (s, t) is one solve of the
    polar form over the whole plane (:func:`_a3_with_error`), the same
    routine as A2's row and the interpolant's nodes.  The paper's
    three-factor route over the elliptic kernel G stays as the
    cross-check (:func:`_a3_g_route`).
    """
    return complex(_a3_with_error(model, kin, cfg or QuadratureConfig())[0])


# ---------------------------------------------------------------------------
# A3's second route: three Born factors against the elliptic kernel G
# ---------------------------------------------------------------------------

def _x3_breakpoints(xp, xm, lo3, hi3):
    """Per-task x3 in [lo3, hi3] where the kernel G is log-singular.

    There the elliptic modulus reaches 1, A^2(xp, xm, x3) = B = xp xm x3:
    G = F4(xp, xm, x3, 1), so these are the modulus-one points of F4 with
    the fixed sides (1, xp, xm), xp+xm-1, 1-xp+xm and 1+xp-xm
    (:func:`eikamp.besselprod._f4_modulus_one_points`).

    Returns an array of shape (tasks, 3), one row per task, holding the
    roots clipped into [lo3, hi3]: a root outside the range lands on one
    of its ends, where it only adds a zero-length panel.
    """
    roots = np.stack(_f4_modulus_one_points(1.0, xp, xm), axis=1)
    return np.clip(roots, lo3[:, None], hi3[:, None])


def _a3_block(model, qt, x1_lo, x1_hi, cfg, x3_cap, counters):
    """The slab x1 in [x1_lo, x1_hi] of the A3 triple integral (without
    the global prefactor), using reduced amplitudes:

        int dx1 int dx2 int dx3 (xp xm x3) a(qt xp) a(qt xm) a(qt x3)
                                G(xp, xm, x3)

    with xp = (x1+x2)/2, xm = (x1-x2)/2.  The weight xp xm x3 is the
    radial measure q dq of each momentum axis in the scaled variables;
    together with the 1/2 Jacobian of (x, x') -> (x1, x2) it exactly
    absorbs the x2 -> -x2 doubling, because the full integrand is even in
    x2 (the sign flip swaps xp and xm, a symmetry of both the kernel and
    the Born product).

    The region is described once: x2 in [0, x1] with a panel edge at
    min(1, x1), x3 in [max(0, 1 - x1, x2 - 1), min(x1 + 1, x3_cap)].  Its
    kinks lie on panel edges (x2 = 1 here, x1 = 1 on a slab edge), and
    over x1 >= 0 it is the union of the paper's five blocks: x1 in
    [0, 1], then x1 in [1, 2] and in [2, inf), each split at x2 = 1.

    Each middle node (x1, x2) is one inner task along x3.  Its factor
    xp xm a(qt xp) a(qt xm) is the same at every x3 node, so it is the x2
    level's weight, formed once per middle node; the inner integrand
    evaluates only x3 a(qt x3) G(xp, xm, x3) per x3 node, with G taken
    straight from (x1, x2, x3) (:func:`eikamp.besselprod._g_values`).
    For a model of one constant phase the nest integrates the real
    a / phase and the slab's value is multiplied by phase^3 once.

    Only the inner axis is graded (``"log"``), and only at the task ends
    and the kernel's modulus-one points, where G has a log spike.  For
    tabulated models the PCHIP knots, where a(qt x3) is C1, are panel
    edges marked smooth, with no graded map of their own
    (:func:`eikamp.quadrature._build_tasks`).  The x2 and x1 integrands
    are inner integrals, smooth at their panel edges, so those axes take
    plain panels: graded halves would only double the middle nodes, each
    of which costs a whole inner task.

    The nest runs on :func:`eikamp.quadrature._iterated` at
    ``cfg.rel_tol``; a slab whose middle or outer value cancels is rerun
    tighter inside this call, and an inner or middle task that does not
    converge raises NonConvergenceError.
    """
    if not x1_hi > x1_lo:
        return 0.0 + 0.0j, 0.0
    phase, red = _phase_split(model)
    # a tabulated a(qt x3) is only C1 at its grid knots: panel edges there
    # restore full quadrature order on the inner axis, with no graded map
    grid = model.q_grid
    knots = None if grid is None else grid[None, 1:] / qt

    def x2_rows(x1):
        return np.column_stack([np.zeros_like(x1), np.minimum(x1, 1.0), x1])

    def x3_rows(x1, x2):
        lo3 = np.maximum(np.maximum(1.0 - x1, x2 - 1.0), 0.0)
        hi3 = np.maximum(np.minimum(x1 + 1.0, x3_cap), lo3)
        roots = _x3_breakpoints(0.5 * (x1 + x2), 0.5 * (x1 - x2), lo3, hi3)
        if knots is None:
            return np.sort(np.column_stack([lo3, roots, hi3]), axis=1)
        lo3, hi3 = lo3[:, None], hi3[:, None]
        k = np.clip(knots, lo3, hi3)
        rows = np.concatenate([lo3, roots, k, hi3], axis=1)
        # a knot is smooth strictly inside the task and off every root;
        # a clipped knot sits on a task end, which may carry 1/sqrt
        smooth = np.zeros(rows.shape, dtype=bool)
        smooth[:, 1 + roots.shape[1]:-1] = (
            (k > lo3) & (k < hi3)
            & ~(k[:, :, None] == roots[:, None, :]).any(axis=2))
        order = np.argsort(rows, axis=1)
        return (np.take_along_axis(rows, order, axis=1),
                np.take_along_axis(smooth, order, axis=1))

    def pair(x1, x2):
        xp, xm = 0.5 * (x1 + x2), 0.5 * (x1 - x2)
        return xp * xm * red(qt * xp) * red(qt * xm)

    def inner(x1, x2, x3):
        g = _g_values(x1, x2, x3)
        g *= x3
        return red(qt * x3) * g

    res = _iterated(inner, [(_limits(x1_lo, x1_hi), "plain", None),
                            (x2_rows, "plain", pair),
                            (x3_rows, "log", None)], cfg)
    counters[0] += res.evaluations
    return phase ** 3 * complex(res.value), res.error_estimate


def _a3_caps(model, qt, env0, floor):
    """x1_cap, x3_cap and the tail bound of a slab run at the absolute
    tolerance ``floor``.  The semi-infinite ranges are cut where the
    product of the three envelope factors falls below thr = floor * 1e-2,
    env(q) env0^2 <= thr.  Beyond a cap one Born factor is below
    thr / env0^2 and the other two below env0, so the integrand is below
    thr times the kernel weight; the crude tail bound is
    thr (x1_cap + x3_cap)."""
    thr = max(floor * 1e-2, 1e-300)
    q_far = model.q_cutoff(min(thr / env0 ** 2, 0.5 * env0))
    x1_cap = max(2.0 * q_far / qt, 4.0)
    x3_cap = max(q_far / qt, 4.0)
    return x1_cap, x3_cap, thr * (x1_cap + x3_cap)


def _a3_g_route(model, kin, cfg):
    """A3, its error estimate and its inner evaluations by the paper's
    route, a 3D integral of three Born factors against the elliptic
    kernel G, the cross-check of the convolution (:func:`a3_term`):

        A3 = (1/96 pi^2)(-t/s)^2
             int dx1 dx2 dx3 (xp xm x3) A_B(qt xp) A_B(qt xm) A_B(qt x3)
                             G(xp, xm, x3),

    xp = (x1+x2)/2, xm = (x1-x2)/2, qt = sqrt(-t), over the region where
    the kernel has support, which the paper splits into five blocks;
    here it is one region (:func:`_a3_block`).  Semi-infinite ranges
    truncate on the model envelope with a tail bound added to the error
    estimate; the kernel's log-singular surfaces (elliptic modulus 1) are
    planes in closed form, inserted as graded breakpoints on the
    innermost axis, where a table's knots are ungraded panel edges.  An
    inner integral that does not converge raises NonConvergenceError.

    The region is summed over the dyadic x1 slabs [0, 1], [1, 2], [2, 4],
    ... up to the x1 cap of ``cfg.abs_tol``, one :func:`_a3_block` each,
    so no x1 node (a whole 2D middle integral) is spent on a bisected
    parent panel.  ``cfg.rel_tol`` is A3's: each slab runs at the absolute
    tolerance max(abs_tol, _SHARE rel_tol |sum of the slabs before it|),
    with caps and tail bound from it (:func:`_a3_caps`).  If slabs cancel
    so that the summed error misses max(abs_tol, rel_tol |A3|), every slab
    is rerun once at the floor of |A3| and at rel_tol |A3| / sum |slab|,
    unless that changes neither of its tolerances.
    """
    s, qt = kin.s, kin.q
    env0 = float(model.envelope(0.0))
    counters = [0]

    def floor_of(total):
        return max(cfg.abs_tol, _SHARE * cfg.rel_tol * abs(total))

    def run(slab, floor, rel):
        x1_cap, x3_cap, _ = _a3_caps(model, qt, env0, floor)
        return _a3_block(model, qt, slab[0], min(slab[1], x1_cap),
                         replace(cfg, rel_tol=rel, abs_tol=floor), x3_cap,
                         counters)

    def summed(parts, tols):
        # the ranges every slab cut lie beyond the caps of the largest
        # floor, so its one tail bound covers them all
        tail = _a3_caps(model, qt, env0, max(f for f, _ in tols))[2]
        return sum(v for v, _ in parts), sum(e for _, e in parts) + tail

    x1_cap = _a3_caps(model, qt, env0, cfg.abs_tol)[0]
    edges = [0.0, 1.0, 2.0]
    while 2.0 * edges[-1] < x1_cap:
        edges.append(2.0 * edges[-1])
    slabs = list(zip(edges, edges[1:] + [x1_cap]))

    tols, parts = [], []
    for slab in slabs:
        tols.append((floor_of(sum(v for v, _ in parts)), cfg.rel_tol))
        parts.append(run(slab, *tols[-1]))
    total, err = summed(parts, tols)
    if err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        spread = max(sum(abs(v) for v, _ in parts), 1e-300)
        tol = (floor_of(total),
               min(cfg.rel_tol, max(cfg.rel_tol * abs(total) / spread, 5e-15)))
        for k, slab in enumerate(slabs):
            if tols[k] != tol:
                tols[k] = tol
                parts[k] = run(slab, *tol)
        total, err = summed(parts, tols)
    pref = s * kin.t ** 2 / (96.0 * math.pi ** 2)
    return pref * complex(total), abs(pref) * err, counters[0]


# ---------------------------------------------------------------------------
# assembly and observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeTerms:
    """The three computed terms with their quadrature error estimates
    (a1 is exact, so only a2 and a3 carry errors)."""

    a1: complex
    a2: complex
    a3: complex
    a2_error: float = 0.0
    a3_error: float = 0.0


def assemble_amplitude(terms):
    """A(s,t) ~= (A1 - A3) + i A2."""
    return (terms.a1 - terms.a3) + 1j * terms.a2


def diff_cross_section(terms, kin):
    """Differential cross section to chi^3 accuracy,

        dsigma/dt = (1/16 pi s^2) { |A1|^2 + 2 Im(A1 A2*) + |A2|^2
                                    - 2 Re(A1 A3*) },

    dropping the chi^4-and-beyond pieces |A3|^2, A2 A3 cross terms, etc.
    For a model of one constant phase the off-phase parts of the terms
    are exact zeros, and this expression gives the bits of its
    restriction: r1^2 + r2^2 - 2 r1 r3 on the real parts for a real
    model, h1^2 + 2 h1 h2 + h2^2 - 2 h1 h3 with h1 = Im A1, h2 = Re A2,
    h3 = Im A3 for a pure-imaginary one.
    """
    a1, a2, a3 = terms.a1, terms.a2, terms.a3
    norm = 1.0 / (16.0 * math.pi * kin.s ** 2)
    val = (abs(a1) ** 2 + 2.0 * (a1 * np.conj(a2)).imag + abs(a2) ** 2
           - 2.0 * (a1 * np.conj(a3)).real)
    return norm * float(val)


def compute_terms(model, kin, cfg=None, *, override_chi_gate=False):
    """Run the full pipeline at one (s, t): gate on max|chi|, then compute
    A1 (exact), A2, and A3 with error estimates."""
    cfg = cfg or QuadratureConfig()
    build_profile(model, kin.s, cfg, override_chi_gate=override_chi_gate)
    return _gated_terms(model, kin, cfg)


def _gated_terms(model, kin, cfg, a2hat=None):
    """A1, A2 and A3 at one (s, t) for a model already gated at s; the
    gate depends on s alone, so one :func:`build_profile` serves every t,
    and A2 / s depends on neither, so one :class:`_A2Hat` of the model at
    ``cfg`` (built here if not passed) serves every (s, t)."""
    a1 = a1_term(model, kin)
    a2, a2_err = _a2_with_error(model, kin, cfg)
    a3, a3_err, _ = _a3_with_error(model, kin, cfg, a2hat)
    return AmplitudeTerms(a1=a1, a2=complex(a2), a3=complex(a3),
                          a2_error=a2_err, a3_error=a3_err)
