"""Adaptive multidimensional quadrature on a Gauss-Kronrod 7/15 pair.

The engine processes many independent 1D integrals ("tasks") at once: each
refinement wave gathers every panel that still dominates its task's error
budget, bisects them all, and evaluates all new Kronrod nodes in a single
vectorized call.  This is the same worst-first panel selection a
priority-queue implementation performs, executed in batches; in Python the
batching is what keeps the triply nested amplitude integrals inside their
runtime budget.

Geometry per initial segment is carried by a map; every task is finite
and takes one of three gradings:

* ``"plain"``: the identity map, for integrands smooth at every edge;
* ``"sqrt"``: each panel between two consecutive edges is split into two
  halves, one graded toward each edge by x = x0 +/- u^2; this removes
  inverse-square-root singularities and turns log|x - x0| into u log u,
  at endpoints and breakpoints alike;
* ``"log"``: as ``"sqrt"`` at a task's first and last edges, which may
  carry inverse-square-root singularities, but x = x0 +/- u^4 at every
  interior edge, which turns log|x - x0| into u^3 log u, so a known
  logarithmic point costs a few bisections instead of a dozen per side.

A level may mark interior edges of a ``"sqrt"`` or ``"log"`` task as
smooth: knots where the integrand is only C1, such as those of a
tabulated interpolant.  A panel edge there restores full order, so a
knot gets no graded map: a panel between two knots is one plain segment,
and one between a knot and a graded edge is one segment graded toward
that edge only.  Only the singular points and a task's ends are then
graded.

Kronrod nodes are strictly interior, and a graded node keeps at least one
float spacing from its anchor even where u^2 or u^4 underflows against
it, so integrands are never evaluated exactly at endpoints or listed
breakpoints.

Each segment's own error estimate is the smaller of two formed from its
15 samples.  QUADPACK's, resasc min(1, (200 |K15 - G7| / resasc)^1.5),
assumes an analytic integrand and overstates the error of K15 about a
million times at tight tolerances.  The other follows Berntsen and
Espelid (ACM TOMS 17, 1991, 233-255): six null rules, the weights
w_i p_j(x_i) of the polynomials p_14 .. p_9 orthonormal under the K15
sum, each scaled to the norm of the K15 weights, give three pair
magnitudes E1, E2, E3 from the highest degree down, whose decay ratio
r = max(E1 / E2, E2 / E3) extrapolates E1 to 80 r^4 E1 where r <= 1/2
shows asymptotic decay, and falls back to 10 r E1 up to r = 1 and to
10 max(E) beyond.  On a quartic-graded segment, where a log point
leaves u^3 log u and K15 converges only algebraically, |K15 - G7| alone
already overstates K15's error, so such a segment takes the smaller of
that too.

A floor that subdividing cannot reduce is reported apart and never
blocks convergence; the own error alone is tested against tolerance.
It is 50 eps times the L1 norm of the integrand, plus, on a segment
square-root graded toward a nonzero anchor a, the rounding of the node
offsets: x = a +/- u^2 is rounded to the spacing of a, which an
inverse-square-root singularity at a turns into a relative error of up
to eps |a| / |x - a| in its samples.  The node nearest a carries nearly
all of it, so the floor takes that node's share of the sum, capped at
E1, since the null rules see such noise as they see the decay.  A node
with u^2 below the spacing s of a sits at a +/- s, where such a
singularity is sqrt(s) / u times smaller than at a +/- u^2; once every
node of a segment sits there its samples fall on a line in u, which the
null rules read as exact, so the floor adds that factor times each such
node's share in full.

Every integral runs on one routine, :func:`_iterated`, which takes
per-level edges, grading and weight; the 1D ones (F5, F6, the eikonal
phase) are one-level nests.  Every level runs at the caller's relative
tolerance, and every task carries its own absolute tolerance: the inner
integral a node starts gets its own parent task's, divided by that
task's span (at least 1), so that inner errors integrated over the task
fit its budget.  An outer integrand that is itself an inner integral
returns the inner errors with its values, and the engine keeps that
propagated part apart from each panel's own Kronrod error: a panel is
split only when its own error exceeds what the propagated part leaves of
the budget, and a task whose propagated error alone reaches its target
stops at once, since bisecting cannot reduce it.  The nest is then rerun
with its inner levels 10x tighter, and if need be 100x, then 1000x, so
only a parent whose value cancels pays for tighter children.  The ladder
reruns one level-0 task, not the whole nest: when a level-0 task of a
nest of several (one per table row, node or b) stops, the others finish
in the batch and it alone is solved again, as a nest of its own from the
10x rung, and when a level below stops, each level-0 task is solved
again with a ladder of its own, so a task that needs no rerun keeps the
bits it has alone.  An inner integral on
which K15 converges geometrically may already report far below its own
target and keep that error at 10x and 100x: only a target below its
estimate makes it bisect, after which its error collapses.

A node of an outer level costs a whole inner integral, so a panel that is
bisected spends its 15 nodes' inner integrals on a parent that is thrown
away; callers that know where an outer axis will need panels (the x1
axis of A3's G route, summed over dyadic slabs) supply them as edges.
Every wave, at every level, is evaluated in slices of at most
:data:`_WAVE_SLICE` (512) segments, so its memory, and that of the inner
solves a slice starts, stays bounded however wide the wave, and each
slice's temporaries (60 KB for a real node array) stay small enough for
the allocator to reuse their pages rather than map and fault in fresh
ones each wave.  Since no tolerance depends on the rest of a wave,
slicing changes no value, error or count.  The Gauss-Kronrod sums are
per-row reductions, so no BLAS thread pool starts.  A slice's fixed
cost, a few dozen numpy calls, is about 41 us on a 2-core machine for a
few plain segments and 68 us for graded ones, and a one-task solve of
four log-graded panels that converges on its first wave about 96 us:
each wave's sums take three reductions, a slice of plain segments maps
no node, and a solve that converges reuses the totals of its last wave.

The engine meets the tolerance it is given.  How a sum of separate nests
shares one tolerance is the caller's decision: A3's G route gives each
of its x1 slabs after the first an absolute tolerance from the slabs
summed before it (:func:`eikamp.eikonal._a3_g_route`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonConvergenceError

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
]

# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 nodes and weights (QUADPACK qk15 constants)
# ---------------------------------------------------------------------------

_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Ascending 15-node arrays on [-1, 1]; Gauss nodes sit at the odd
# positions, so the G7 weights on the 15 nodes are zero at the even ones.
_X15 = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_W15 = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_W7 = np.zeros(15)
_W7[1::2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_EPS = float(np.finfo(float).eps)


def _null_rules():
    """Six null rules on the 15 Kronrod nodes, rows from the highest
    degree down, each scaled to the Euclidean norm of the K15 weights.

    With p_0 .. p_14 orthonormal under the K15 sum sum_i w_i f(x_i) g(x_i)
    (Gram-Schmidt on the Legendre polynomials, each step done twice), the
    rule of p_j has the weights w_i p_j(x_i) and sums every polynomial of
    degree below j to zero; the rows are p_14 .. p_9."""
    p = np.empty((15, 15))
    p[0], p[1] = 1.0, _X15
    for n in range(1, 14):
        p[n + 1] = ((2 * n + 1) * _X15 * p[n] - n * p[n - 1]) / (n + 1)
    # row sums rather than matrix products: a first BLAS call at import
    # would cost more than the rest of the module's import
    for j in range(15):
        for _ in range(2):
            p[j] -= (((p[:j] * _W15) * p[j]).sum(axis=1)[:, None]
                     * p[:j]).sum(axis=0)
        p[j] /= math.sqrt((_W15 * p[j] * p[j]).sum())
    null = p[:8:-1] * _W15
    scale = np.sqrt((_W15 * _W15).sum() / (null * null).sum(axis=1))
    return null * scale[:, None]


_NULL = _null_rules()
# K15 - G7 also sums every polynomial of degree below 14 to zero, so it
# is the first null rule times this factor, up to sign
_KG_PER_NULL = math.sqrt(((_W15 - _W7) ** 2).sum() / (_W15 * _W15).sum())
# the K15 weights and the null rules, one row each, summed in one pass
_GK_ROWS = np.concatenate([_W15[None], _NULL])

# Segment map kinds; 0 is the identity
_SQRT_LEFT = 1      # x = anchor + u^2
_SQRT_RIGHT = 2     # x = anchor - u^2
_QUARTIC_LEFT = 4   # x = anchor + u^4
_QUARTIC_RIGHT = 5  # x = anchor - u^4
# direction of each kind's map away from its anchor, indexed by kind
_MAP_SIGN = np.array([0.0, 1.0, -1.0, 0.0, 1.0, -1.0])

# Panel gradings of finite tasks (see the module docstring)
_GRADINGS = ("plain", "sqrt", "log")
# the kinds of a graded panel's left and right halves
_SQRT_PAIR = np.array([_SQRT_LEFT, _SQRT_RIGHT], dtype=np.int8)
_QUARTIC_PAIR = np.array([_QUARTIC_LEFT, _QUARTIC_RIGHT], dtype=np.int8)
_PAIR = np.arange(2)
# kinds whose node offsets the floor adds, indexed by kind
_SQRT_KIND = np.array([False, True, True, False, False, False])

_MAX_TOTAL_SEGMENTS = 4_000_000
# panel bisections per 1D task, at every level of a nest
_MAX_SUBDIVISIONS = 2000
# refinement waves per 1D solve
_MAX_WAVES = 240
# segments per integrand call within a wave (see _eval_segments)
_WAVE_SLICE = 512

# how much tighter than its parent each inner level runs, per attempt of a
# nest (see _iterated)
_RETRY_TIGHTENING = (1.0, 10.0, 100.0, 1000.0)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the adaptive integrators.

    Convergence requires the refinable error estimate to drop below
    max(abs_tol, rel_tol * |value|).
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf
                and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class IntegralResult:
    """Value, error estimate and integrand-evaluation count; per task
    arrays of value and error for a solve of many level-0 tasks (see
    :func:`_iterated`).  The error is the sum of every segment's own
    error, the inner errors propagated into it and the rounding floor."""

    value: complex | float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int

    def __post_init__(self):
        err = self.error_estimate
        # a float skips np.any, which would cost microseconds per solve
        if (err < 0.0).any() if isinstance(err, np.ndarray) else err < 0.0:
            raise ValueError("error_estimate must be >= 0")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")


# ---------------------------------------------------------------------------
# batched engine
# ---------------------------------------------------------------------------

def _build_tasks(edges, grading, smooth=None):
    """Turn task rows of edges into flat segment arrays with maps.

    ``edges`` is a 2D array with one row of edges per task.  Rows of
    different lengths are padded to one width by repeating their last
    edge: repeated edges give zero-length panels, which are dropped, so
    a padded row builds the segments of the unpadded one.  A task whose
    last edge does not exceed its first is empty: it contributes 0 and is
    converged at once.  Otherwise its edges must be sorted ascending.
    ``grading`` is one of :data:`_GRADINGS`: ``"plain"`` keeps each panel
    whole; ``"sqrt"`` and ``"log"`` split it into two halves, one
    anchored at each of its edges, with the square-root map at every edge
    (``"sqrt"``) or at the task's first and last edges and the quartic
    map at its interior ones (``"log"``).

    ``smooth``, a bool mask of the shape of ``edges``, marks edges where
    the integrand is smooth on either side (a C1 knot): a panel edge
    there restores full order, and no map is anchored on it.  A graded
    panel with one smooth edge is one segment graded toward the other
    over its full width, and one with two is one plain segment.  Flags on
    a task's first and last edges, which may carry 1/sqrt, and on edges
    of zero-length panels (the padding among them) are ignored.

    A graded panel's two halves are built side by side, as one row of
    (n, 2) arrays, and raveled into left, right order.
    """
    if grading not in _GRADINGS:
        raise ValueError(f"grading must be one of {_GRADINGS}, got {grading!r}")
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:, :-1], edges[:, 1:]
    live = edges[:, -1:] > edges[:, :1]
    if np.count_nonzero((hi < lo) & live):
        raise ValueError("task edges must be sorted ascending")
    # each kept panel's flat index among the panels, its task, and the
    # flat index of its left edge among the edges (one more per row)
    panel = ((hi > lo) & live).ravel().nonzero()[0]
    tid = panel // max(edges.shape[1] - 1, 1)
    at = panel + tid
    flat = edges.ravel()
    if grading == "plain":
        return (tid, np.zeros(tid.size, dtype=np.int8), np.zeros(tid.size),
                flat[at], flat[at + 1])
    pair = at[:, None] + _PAIR
    anc = flat[pair]
    width = anc[:, 1] - anc[:, 0]
    half = 0.5 * width
    if grading == "log":
        # a panel edge strictly inside its task's range is interior
        inner = ((edges > edges[:, :1]) & (edges < edges[:, -1:])).ravel()
        kind = np.where(inner[pair], _QUARTIC_PAIR, _SQRT_PAIR)
    else:
        kind = _SQRT_PAIR[None].repeat(tid.size, axis=0)
    if smooth is None:
        u_hi = np.sqrt(half[:, None].repeat(2, axis=1))
    else:
        # an edge counts as smooth only strictly apart from both its
        # neighbours: off its task's ends and off any zero-length panel
        sm = np.zeros(edges.shape, dtype=bool)
        sm[:, 1:-1] = (np.asarray(smooth, dtype=bool)[:, 1:-1]
                       & (edges[:, :-2] < edges[:, 1:-1])
                       & (edges[:, 1:-1] < edges[:, 2:]))
        s2 = sm.ravel()[pair]
        # a half whose far edge is smooth spans the whole panel
        u_hi = np.sqrt(np.where(s2[:, ::-1] & ~s2, width[:, None],
                                half[:, None]))
    if grading == "log":
        u_hi = np.where(kind >= _QUARTIC_LEFT, np.sqrt(u_hi), u_hi)
    if smooth is None:
        return (tid.repeat(2), kind.ravel(), anc.ravel(),
                np.zeros(2 * tid.size), u_hi.ravel())
    # a panel smooth at both edges keeps its left half as a plain segment
    both = s2[:, 0] & s2[:, 1]
    u_lo = np.zeros(anc.shape)
    kind[both, 0], u_lo[both, 0], u_hi[both, 0] = 0, anc[both, 0], anc[both, 1]
    anc[both, 0] = 0.0
    kept = ~s2
    kept[both, 0] = True
    kept = kept.ravel().nonzero()[0]
    return (tid[kept // 2], *(a.ravel()[kept] for a in (kind, anc, u_lo, u_hi)))


def _map_nodes(kind, anc, u):
    """Apply per-segment maps to node matrix u; returns (x, jacobian).

    One pass over every row, each segment's power and sign taken from its
    kind; plain rows keep u and a unit jacobian, and a wave of plain rows
    alone skips the pass.  A graded node keeps at least one float spacing
    from its anchor, so the anchor itself is never evaluated."""
    if not np.count_nonzero(kind):
        return u, np.ones_like(u)
    a = anc[:, None]
    sq = u * u
    quartic = kind >= _QUARTIC_LEFT
    if np.count_nonzero(quartic):
        quartic = quartic[:, None]
        power, slope = np.where(quartic, sq * sq, sq), np.where(quartic,
                                                                4.0 * sq, 2.0)
    else:
        power, slope = sq, 2.0
    x = a + _MAP_SIGN[kind, None] * np.maximum(power, np.spacing(np.abs(a)))
    jac = slope * u
    if np.count_nonzero(kind) < kind.size:
        plain = (kind == 0)[:, None]
        np.copyto(x, u, where=plain)
        np.copyto(jac, 1.0, where=plain)
    return x, jac


def _null_error(e1, e2, e3):
    """Berntsen and Espelid's error estimate of K15 on each segment from
    the magnitudes E1, E2, E3 of its three null-rule pairs, highest degree
    first: with r = max(E1 / E2, E2 / E3), 80 r^4 E1 where r <= 1/2 shows
    the asymptotic decay, 10 r E1 up to r = 1 (the two meet at 1/2) and
    10 max(E) beyond.  The caller silences the divisions' warnings."""
    r = np.fmax(np.fmax(e1 / e2, e2 / e3), 0.0)
    r2 = r * r
    return np.where(r > 1.0, 10.0 * np.maximum(np.maximum(e1, e2), e3),
                    e1 * np.minimum(10.0 * r, 80.0 * r2 * r2))


def _with_jacobian(y, jac, u):
    """Samples y in the shape of the node matrix u times the jacobian of
    their map; ``jac`` None stands for a unit one, by which a float64
    sample is left as it is (a complex product could flip a zero's sign,
    so other dtypes still take it)."""
    y = np.asarray(y).reshape(u.shape)
    if jac is not None:
        return y * jac
    return y if y.dtype == np.float64 else y * np.ones_like(u)


def _eval_segments(f, tid, kind, anc, lo, hi):
    """GK15 on each segment.

    Returns (value, own_err, floor_err, propagated_err): the last is
    the integral of the inner errors an integrand returns as ``yerr``, or
    None when it returns none.  ``own_err``, the refinable part, is the
    smaller of QUADPACK's scaled |K15 - G7| and :func:`_null_error`,
    capped at |K15 - G7| itself on quartic segments; ``floor_err`` adds
    the rounding of graded node offsets to 50 eps int |f| (see the module
    docstring).

    The wave is evaluated in slices of at most :data:`_WAVE_SLICE`
    segments, one call of ``f`` each, so its nodes, the integrand's
    temporaries and, for a nested integrand, the inner solve they start
    stay bounded however wide the wave.  Each segment's sums are per-row
    reductions rather than matrix-vector products, so no BLAS thread pool
    is started: one over |y| against the K15 weights, one over y against
    those weights and the six null rules together, and one over
    |y - mean|.  A slice of plain segments alone maps no node."""
    parts = []
    for start in range(0, tid.size, _WAVE_SLICE):
        sl = slice(start, start + _WAVE_SLICE)
        k_sl, a_sl = kind[sl], anc[sl]
        mid = 0.5 * (lo[sl] + hi[sl])
        h = 0.5 * (hi[sl] - lo[sl])
        u = mid[:, None] + h[:, None] * _X15
        graded = np.count_nonzero(k_sl)
        x, jac = _map_nodes(k_sl, a_sl, u) if graded else (u, None)

        raw = f(tid[sl].repeat(15), x.ravel())
        yerr = None
        if isinstance(raw, tuple):
            raw, yerr = raw
        y = _with_jacobian(raw, jac, u)
        # the K15 weights are positive, so a sum of |y| is finite only
        # where all its samples are
        sum_abs = np.einsum("ij,j->i", np.abs(y), _W15)
        if np.count_nonzero(np.isfinite(sum_abs)) < h.size:
            raise NonConvergenceError("integrand returned non-finite values")

        sums = np.einsum("ij,kj->ki", y, _GK_ROWS)
        resk = h * sums[0]
        resabs = h * sum_abs
        # one row per null rule, one column per segment
        null = np.abs(sums[1:])
        null *= h
        err_raw = _KG_PER_NULL * null[0]
        pairs = np.hypot(null[0::2], null[1::2])
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(h > 0.0, resk / (2.0 * h), 0.0)
            resasc = h * np.einsum("ij,j->i", np.abs(y - mean[:, None]),
                                   _W15)
            scaled = np.where(
                resasc > 0.0,
                resasc * np.minimum(1.0, (200.0 * err_raw / resasc) ** 1.5),
                err_raw)
            own = np.minimum(scaled, _null_error(*pairs))
            floor = 50.0 * _EPS * resabs
            if graded:
                np.minimum(own, err_raw, out=own,
                           where=k_sl >= _QUARTIC_LEFT)
                _add_offset_floor(floor, k_sl, a_sl, h, u, x, y, pairs[0])
        if yerr is not None:
            yerr = h * np.einsum("ij,j->i", _with_jacobian(yerr, jac, u),
                                 _W15)
        parts.append((resk, own, floor, yerr))
    if len(parts) == 1:
        return parts[0]
    return tuple(None if col[0] is None else np.concatenate(col)
                 for col in zip(*parts))


def _add_offset_floor(floor, kind, anc, h, u, x, y, e1):
    """Add to ``floor`` the rounding of the node offsets of every segment
    square-root graded toward a nonzero anchor (see the module
    docstring), in place.  The terms of the other rows, divisions by
    zero among them, are formed and discarded; the caller silences their
    warnings."""
    graded = _SQRT_KIND[kind] & (anc != 0.0)
    if not np.count_nonzero(graded):
        return
    abs_a = np.abs(anc)
    near = (_EPS * _W15[0] * abs_a * h * np.abs(y[:, 0])
            / np.abs(x[:, 0] - anc))
    np.add(floor, np.minimum(e1, near), out=floor, where=graded)
    # a node with u^2 below the spacing s of a sits at a +/- s, where an
    # inverse-square-root singularity is sqrt(s) / u times smaller than
    # at a +/- u^2; node 0 is the nearest to a
    s = np.spacing(abs_a)
    if np.count_nonzero(graded & (u[:, 0] * u[:, 0] < s)):
        g = graded.nonzero()[0]
        ug, s = u[g], s[g, None]
        floor[g] += h[g] * np.einsum(
            "ij,j->i", np.where(ug * ug < s, np.sqrt(s) / ug, 0.0)
            * np.abs(y[g]), _W15)


class _InheritedError(NonConvergenceError):
    """A task's propagated inner error alone reaches its target.

    Raised by a solve that let its other tasks finish, it carries the
    mask of the tasks ``stopped`` and the ``totals`` (values, errors,
    converged mask) of every task."""

    def __init__(self, message, stopped=None, totals=None):
        super().__init__(message)
        self.stopped = stopped
        self.totals = totals


def _solve_batched(f, edges, rel_tol, abs_tol, grading="sqrt", smooth=None,
                   finish_others=False):
    """Run the batched adaptive loop over independent 1D tasks.

    f(task_indices, x) -> y or (y, yerr); both flat arrays.  Returns
    (values, error_estimates, evaluations, converged_mask), the third
    one count over every task.  ``edges`` holds one row per task;
    ``abs_tol`` is one absolute tolerance for every task or an array of
    one per task; ``grading`` and the optional ``smooth`` mask map each
    task's panels, see :func:`_build_tasks`.  Each task may bisect at most
    :data:`_MAX_SUBDIVISIONS` panels, and each wave is evaluated in
    slices, see :func:`_eval_segments`.

    A ``yerr`` is integrated into each panel's propagated error, kept
    apart from its own error (see the module docstring); a task whose
    propagated error alone reaches its target raises
    :class:`_InheritedError` at once; with ``finish_others`` it is set
    aside instead, and the error is raised once the other tasks have run
    to their end, with every task's totals.

    A bisected segment's halves go after the segments kept, so each
    task's totals sum its segments in the order they were made.  A task's
    bisections so far are its segments beyond its first ones, so they are
    counted only in a wave that could take some task past its cap.
    """
    T = len(edges)
    tid, kind, anc, lo, hi = _build_tasks(edges, grading, smooth)
    if tid.size == 0:
        z = np.zeros(T)
        return z, z.copy(), 0, np.ones(T, dtype=bool)
    first = tid
    val, err, floor, prop = _eval_segments(f, tid, kind, anc, lo, hi)
    evals = 15 * tid.size
    failed = stopped = None

    def totals():
        if val.dtype.kind == "c":
            v = np.empty(T, dtype=val.dtype)
            v.real = np.bincount(tid, val.real, T)
            v.imag = np.bincount(tid, val.imag, T)
        else:
            v = np.bincount(tid, val, T)
        p = 0.0 if prop is None else np.bincount(tid, prop, T)
        return (v, np.bincount(tid, err, T), np.bincount(tid, floor, T), p)

    for _ in range(_MAX_WAVES):
        val_t, err_t, floor_t, prop_t = totals()
        target = np.maximum(abs_tol, rel_tol * np.abs(val_t))
        # what the propagated error leaves of the target for the own one
        budget = target if prop is None else target - prop_t
        need = err_t > budget
        if failed is not None:
            need &= ~failed
        if not np.count_nonzero(need):
            break
        if prop is not None:
            inherited = need & (budget <= 0.0)
            if np.count_nonzero(inherited):
                if stopped is None:
                    k = int(np.argmax(inherited))
                    message = (
                        f"{np.count_nonzero(inherited)} of {T} tasks stopped "
                        f"on inherited error: {prop_t[k]:.3e} against target "
                        f"{target[k]:.3e}")
                if not finish_others:
                    raise _InheritedError(message)
                stopped = inherited if stopped is None else stopped | inherited
                failed = inherited if failed is None else failed | inherited
                need &= ~inherited
                if not np.count_nonzero(need):
                    break
        nseg_t = np.bincount(tid, minlength=T)
        thr = np.where(need, budget / (2.0 * np.maximum(nseg_t, 1)), np.inf)
        split = err > thr[tid]
        n_split = np.count_nonzero(split)
        if not n_split:
            break
        if tid.size - first.size + n_split > _MAX_SUBDIVISIONS:
            over = need & (nseg_t - np.bincount(first, minlength=T)
                           + np.bincount(tid[split], minlength=T)
                           > _MAX_SUBDIVISIONS)
            if np.count_nonzero(over):
                failed = over if failed is None else failed | over
                split &= ~failed[tid]
                n_split = np.count_nonzero(split)
                if not n_split:
                    continue
        if tid.size + n_split > _MAX_TOTAL_SEGMENTS:
            raise NonConvergenceError("segment budget exhausted (global cap)")

        keep = (~split).nonzero()[0]
        at = split.nonzero()[0]
        order = np.concatenate([keep, at, at])
        tid, kind, anc, lo, hi = (a[order] for a in (tid, kind, anc, lo, hi))
        # the left halves, then the right ones
        new = slice(keep.size, None)
        left, right = slice(keep.size, -at.size), slice(-at.size, None)
        mid = 0.5 * (lo[left] + hi[left])
        hi[left], lo[right] = mid, mid
        c_val, c_err, c_floor, c_prop = _eval_segments(
            f, tid[new], kind[new], anc[new], lo[new], hi[new])
        evals += 15 * 2 * at.size
        val = np.concatenate([val[keep], c_val])
        err = np.concatenate([err[keep], c_err])
        floor = np.concatenate([floor[keep], c_floor])
        if prop is not None:
            prop = np.concatenate([prop[keep], c_prop])
    else:
        val_t, err_t, floor_t, prop_t = totals()
        target = np.maximum(abs_tol, rel_tol * np.abs(val_t))

    if prop is not None:
        err_t = err_t + prop_t
    ok = err_t <= target
    if stopped is not None:
        raise _InheritedError(message, stopped, (val_t, err_t + floor_t, ok))
    return val_t, err_t + floor_t, evals, ok


# ---------------------------------------------------------------------------
# the nested driver
# ---------------------------------------------------------------------------

def _limits(lo, hi):
    """Edges of a level whose tasks are single intervals: one row
    [lo, hi] per outer node, each limit a constant or a vectorized
    callable of the outer variables."""
    def edges(*outer):
        n = np.size(outer[0]) if outer else 1
        return np.column_stack([
            np.broadcast_to(np.asarray(s(*outer) if callable(s) else s,
                                       dtype=float), (n,))
            for s in (lo, hi)])
    return edges


def _iterated(f, levels, cfg, strict=True, outer=()):
    """Iterated adaptive integral over nested levels, the one routine of
    every integral in eikamp; a 1D integral is a one-level nest.

    ``levels[k]`` is the spec ``(edges, grading, weight)`` of the k-th
    variable x_k:

    * ``edges(x_0, ..., x_{k-1})`` returns sorted task rows, one per node
      of level k-1 (level 0 is called with the ``outer`` arrays), or
      ``(rows, smooth)`` with a bool mask of the rows' shape marking the
      edges that need a panel but no graded map (C1 knots); a row
      shorter than the others is padded with its last edge;
    * ``grading`` maps the panels of the level, with the mask if any, see
      :func:`_build_tasks`;
    * ``weight(x_0, ..., x_k)`` is None or a factor formed once per node
      of the level and multiplied into every innermost value below it;
      weights belong to outer levels, and the innermost level's is not
      read (a factor there belongs in ``f``).

    ``outer`` holds level-0 outer variables, arrays of one length: level
    0 then has one task per element, ``f`` and every ``edges`` and
    ``weight`` take them first, gathered per node like any outer
    variable, and the result holds per-task value and error arrays.
    Without, level 0 is one task (its ``edges`` takes no argument) and
    the result holds scalars.

    The integrand is ``f(*outer, x_0, ..., x_n)`` times every weight on
    its path.  ``f`` receives each outer variable as a gathered copy of
    its own, which it may overwrite, but must leave ``x_n`` intact.
    Each level's errors propagate into its parent's panel errors.  Inner
    levels keep their parent's relative tolerance; each inner task takes
    the absolute tolerance of the task whose node started it, divided by
    that task's span (at least 1), so every task's tolerance is its own
    and any wave may be sliced.  A level whose propagated error alone
    reaches its target stops the nest, which reruns with every inner
    level 10x, then 100x, then 1000x tighter than its parent.  In a nest
    of several level-0 tasks, a level-0 task that stops is set aside
    while the others finish in the batch, and then climbs the ladder
    alone from 10x; a stop below level 0 names no task, so each task is
    solved again as a one-task nest with a ladder of its own.  Either
    way every task keeps the bits it has alone, and the stopped
    attempts' evaluations are counted with the rest.  With
    ``strict`` an inner task that does not converge raises
    NonConvergenceError; without, its error propagates like any other.
    The outermost level always raises.  Returns an IntegralResult
    counting the innermost evaluations of every attempt.
    """
    innermost = len(levels) - 1
    inner_evals = 0

    def solve(depth, outer, scale, rel_tol, abs_tol, factor):
        nonlocal inner_evals
        edges, grading, weight = levels[depth]
        rows = edges(*outer)
        rows, smooth = rows if isinstance(rows, tuple) else (rows, None)
        if depth < innermost:
            span = np.maximum(rows[:, -1] - rows[:, 0], 1.0)
            child_abs = np.maximum(abs_tol / span / factor, 1e-290)
            child_rel = (rel_tol if factor == 1.0
                         else max(rel_tol / factor, 5e-15))

        def g(tids, x):
            pts = tuple(o[tids] for o in outer) + (x,)
            if depth < innermost:
                s = None if weight is None else weight(*pts)
                if scale is not None:
                    s = scale[tids] if s is None else scale[tids] * s
                return solve(depth + 1, pts, s, child_rel, child_abs[tids],
                             factor)
            # f's temporaries set the peak memory of a wave: the factors
            # from above are gathered only after f, with the outer
            # variables released
            y = f(*pts)
            del pts
            return y if scale is None else y * scale[tids]

        # a level-0 task that stops lets the others finish (see ladder)
        v, e, ev, ok = _solve_batched(g, rows, rel_tol, abs_tol,
                                      grading=grading, smooth=smooth,
                                      finish_others=depth == 0)
        if depth == innermost:
            inner_evals += ev
        if np.count_nonzero(ok) < ok.size and (strict or depth == 0):
            raise _unconverged(depth, ok, e)
        return v, e

    def _unconverged(depth, ok, e):
        return NonConvergenceError(
            f"level-{depth} integrals of a {len(levels)}D nest did not "
            f"converge: {np.count_nonzero(~ok)} of {ok.size} tasks, "
            f"error estimate up to {np.max(e[~ok]):.3e}")

    def ladder(outer, rungs, last=None):
        """(values, errors) of the nest over ``outer``, each attempt's
        inner levels tighter by the next of ``rungs``."""
        for i, factor in enumerate(rungs):
            try:
                return solve(0, outer, None, cfg.rel_tol, cfg.abs_tol, factor)
            except _InheritedError as exc:
                last = exc
                n = np.size(outer[0]) if outer else 1
                if n == 1:
                    continue
                alone = [tuple(o[k:k + 1] for o in outer) for k in range(n)]
                if exc.stopped is None:
                    # a stop below level 0 names no task: each level-0
                    # task climbs a ladder of its own, so a task that
                    # needs none keeps the bits it has alone
                    return tuple(np.concatenate(c) for c in zip(
                        *(ladder(o, rungs) for o in alone)))
                # the other tasks finished in the batch as they would
                # alone; a stopped one goes on alone from the next rung,
                # as its own ladder would
                v, e, ok = exc.totals
                if np.count_nonzero(ok | exc.stopped) < n:
                    raise _unconverged(0, ok | exc.stopped, e) from exc
                for k in exc.stopped.nonzero()[0]:
                    (v[k],), (e[k],) = ladder(alone[k], rungs[i + 1:], exc)
                return v, e
        raise NonConvergenceError(
            f"nested integral did not converge with inner levels "
            f"{_RETRY_TIGHTENING[-1]:g}x tighter: {last}")

    v, e = ladder(outer, _RETRY_TIGHTENING)
    if outer:
        return IntegralResult(value=v, error_estimate=e,
                              evaluations=max(inner_evals, 1))
    value = complex(v[0])
    return IntegralResult(value=value if value.imag else value.real,
                          error_estimate=float(e[0]),
                          evaluations=max(inner_evals, 1))

