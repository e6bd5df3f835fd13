"""Oscillation-free eikonal amplitude pipeline.

For a Born model A_B and kinematics (s, t) this module computes the first
three terms of the moderately-small-eikonal expansion,

    A(s, t) ~= [A1(s, t) - A3(s, t)] + i A2(s, t),

where A1 is the Born amplitude itself, A2 is a 2D integral of two Born
factors against an algebraic weight, and A3 is a 3D integral of three
Born factors against the elliptic kernel G over the one region where G
has support, summed over dyadic x1 slabs.  None of the
integrals oscillate: the Bessel products of the naive impact-parameter
representation have been integrated out in closed form, which is the
entire point of the construction.

A model of one constant phase, a(q) = phase * r(q) with r real (both
closed families and real or pure-imaginary tables, see
:attr:`eikamp.models.BornModel.phase`), has A2, A3 and the tabulated
phase chi integrated over r in real arithmetic, times phase^2, phase^3
and phase once at the end; a general table keeps complex integrands.

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
from .exceptions import ChiGateError
from .models import BornKind
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
# |chi| level defining the impact-parameter cutoff of a profile
_CHI_CUTOFF_LEVEL = 1e-12
# each A3 x1 slab after the first runs at the absolute tolerance
# _SHARE * rel_tol * |sum of the slabs before it| (see _a3_with_error)
_SHARE = 0.1


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


def eikonal_chi(model, s, b, cfg=None):
    """Eikonal phase chi(s, b) = (1/4 pi s) int_0^inf dq q J0(q b) A_B(s, -q^2).

    Gaussian-family models use their closed form (the transform of a
    Gaussian is a Gaussian).  Any other model takes the quadrature route,
    which truncates where the model envelope has decayed by 1e-16 and
    supplies the Bessel zero spacing as panel breakpoints.  An array of b
    is one solve with one task per b, each task refined as it would be
    alone, so every chi is bit for bit that of a scalar call; a scalar b
    returns a complex.  The solve holds every task's panels at once, up
    to 4,000 each, so a caller with many thousands of b passes them in
    pieces.
    """
    closed = model.chi_closed()
    if closed is not None:
        out = closed(b)
        return complex(out) if np.ndim(b) == 0 else out

    cfg = cfg or QuadratureConfig()
    bs = np.asarray(b, dtype=float)
    if np.any(bs < 0.0):
        raise ValueError("impact parameter b must be >= 0")
    env0 = float(model.envelope(0.0))
    q_cut = model.q_cutoff(_TAIL_DECAY * env0)
    phase, red = _phase_split(model)
    # tabulated interpolants are C1 at the nodes; panel edges there
    # restore full quadrature order
    grid = getattr(model, "q_grid", None)
    knots = [] if grid is None else [float(qn) for qn in grid
                                     if 0.0 < qn < q_cut]

    def edges(b):
        rows = []
        for bi in b:
            brk = []
            if bi * q_cut > 2.0 * math.pi:
                # panel edges near the J0 oscillation nodes
                n = min(int(bi * q_cut / math.pi), 4000)
                brk = (np.arange(1, n + 1) * (math.pi / bi)).tolist()
            rows.append(np.unique(np.clip([0.0, *brk, *knots, q_cut],
                                          0.0, q_cut)))
        return rows

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


def _envelope_b_cutoff(model, level):
    """Impact parameter beyond which |chi| is certainly below ``level``.

    With |a(q)| <= M exp(-kappa q) the phase obeys the closed Hankel
    transform bound of the envelope,

        |chi(b)| <~ (M / 4 pi) kappa / (kappa^2 + b^2)^(3/2),

    which decays like b^-3; a 30x pad keeps the estimate conservative for
    tables that do not saturate their envelope profile.  The quadrature
    route cannot certify levels this small at such b (the J0 oscillation
    noise floor sits above them), so the cutoff must be analytic.
    """
    env0 = float(model.envelope(0.0))
    kappa = model.envelope_kappa
    scale = 30.0 * env0 * kappa / (4.0 * math.pi * level)
    return max(scale ** (1.0 / 3.0), 12.0 / kappa)


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

    For closed-form families the peak and cutoff are analytic.  Tabulated
    models get their peak from a quadrature scan of 41 b over a few
    envelope decay lengths, one :func:`eikonal_chi` solve for all of
    them, and their cutoff from the decay bound of the envelope transform.
    """
    cfg = cfg or QuadratureConfig()
    closed = model.chi_closed()
    if closed is not None:
        peak = float(model.chi0)
        # |chi| = chi0 exp(-beta b^2) for both closed families
        if model.kind is BornKind.GAUSSIAN:
            beta = 0.5 * model.lam ** 2
        else:
            beta = 1.0 / (4.0 * model.slope_b)
        arg = max(peak / _CHI_CUTOFF_LEVEL, math.e)
        b_cut = math.sqrt(math.log(arg) / beta)
        _apply_chi_gate(peak, override_chi_gate)
        return EikonalProfile(chi=closed, max_abs_chi=peak, b_cutoff=b_cut)

    def chi(b):
        return eikonal_chi(model, s, b, cfg)

    # peak scan: |chi| decays on the scale of a few 1/kappa, so a short
    # geometric grid brackets the maximum; pushing the quadrature route to
    # extreme b would drown in J0 oscillation panels for no benefit
    kappa = model.envelope_kappa
    bs = np.concatenate([[0.0], np.geomspace(1e-2 / kappa, 12.0 / kappa, 40)])
    mags = np.abs(chi(bs))
    peak = float(mags.max())
    b_cut = _envelope_b_cutoff(model, _CHI_CUTOFF_LEVEL)
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


def _a2_with_error(model, kin, cfg):
    s, qt = kin.s, kin.q
    env0 = float(model.envelope(0.0))
    q_cut = model.q_cutoff(_TAIL_DECAY * env0)
    # A_B(q-) may stay large, but A_B(q+) decays once cosh u is big:
    # q+ >= qt (cosh u - 1) / 2 pins the u-range
    u_max = math.acosh(1.0 + 2.0 * q_cut / qt + 2.0)
    phase, red = _phase_split(model)

    # substitutions x1 = cosh u, x2 = sin v absorb both 1/sqrt edge
    # factors; the transformed weight is just (cosh^2 u - sin^2 v)
    def integrand(u, v):
        ch = np.cosh(u)
        sv = np.sin(v)
        qp = 0.5 * qt * (ch + sv)
        qm = 0.5 * qt * (ch - sv)
        return (ch * ch - sv * sv) * red(qp) * red(qm)

    # the substituted integrand is smooth at every edge: plain panels
    res = _iterated(integrand, [(_limits(0.0, u_max), "plain", None),
                                (_limits(0.0, 0.5 * math.pi), "plain", None)],
                    cfg)
    pref = s * (-kin.t) / (16.0 * math.pi ** 2)
    return pref * phase ** 2 * res.value, abs(pref) * res.error_estimate


def a2_term(model, kin, cfg=None):
    """Second term: 2D integral of two Born factors,

        A2 = (1/16 pi^2)(-t/s) int_1^inf dx1 int_0^1 dx2
             (x1^2 - x2^2)/sqrt((x1^2-1)(1-x2^2))
             A_B(s, q(x1+x2)/2) A_B(s, q(x1-x2)/2),

    computed after x1 = cosh u, x2 = sin v, which removes both edge
    singularities.  The u-range comes from the model envelope.
    """
    cfg = cfg or QuadratureConfig()
    value, _err = _a2_with_error(model, kin, cfg)
    return complex(value)


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
    grid = getattr(model, "q_grid", None)
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


def _a3_with_error(model, kin, cfg):
    """A3, its error estimate and its inner evaluations.

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


def a3_term(model, kin, cfg=None):
    """Third term: a 3D integral of three Born factors against the
    elliptic kernel G,

        A3 = (1/96 pi^2)(-t/s)^2
             int dx1 dx2 dx3 (xp xm x3) A_B(qt xp) A_B(qt xm) A_B(qt x3)
                             G(xp, xm, x3),

    xp = (x1+x2)/2, xm = (x1-x2)/2, qt = sqrt(-t), over the region where
    the kernel has support, which the paper splits into five blocks;
    here it is one region, integrated in dyadic x1 slabs
    (:func:`_a3_block`).  The relative tolerance is A3's, not each
    slab's (:func:`_a3_with_error`).  Semi-infinite ranges truncate
    on the model envelope with a tail bound added to the error estimate;
    the kernel's log-singular surfaces (elliptic modulus 1) are planes in
    closed form, inserted as graded breakpoints on the innermost axis,
    where a table's knots are ungraded panel edges.  An inner integral
    that does not converge raises NonConvergenceError.
    """
    cfg = cfg or QuadratureConfig()
    value, _err, _n = _a3_with_error(model, kin, cfg)
    return complex(value)


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


def _gated_terms(model, kin, cfg):
    """A1, A2 and A3 at one (s, t) for a model already gated at s; the
    gate depends on s alone, so one :func:`build_profile` serves every t."""
    a1 = a1_term(model, kin)
    a2, a2_err = _a2_with_error(model, kin, cfg)
    a3, a3_err, _ = _a3_with_error(model, kin, cfg)
    return AmplitudeTerms(a1=a1, a2=complex(a2), a3=complex(a3),
                          a2_error=a2_err, a3_error=a3_err)
