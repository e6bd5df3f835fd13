"""Born amplitude models and kinematics.

The scattering pipeline is abstract in the Born amplitude A_B(s, t): any
function with a decaying envelope in q = sqrt(-t) works.  Two families are
provided, the first in two parameterisations:

GAUSSIAN          A_B(s, q) = i g s exp(-q^2 / (2 Lambda^2))
EXPONENTIAL_POLE  A_B(s, q) = i C s exp(t B) = i C s exp(-q^2 B), the
                  same Gaussian in q with g = C and Lambda = 1 / sqrt(2 B)
TABULATED         A_B(s, q) = s [Re a(q) + i Im a(q)] from a (q, Re, Im)
                  grid with monotone cubic interpolation and an
                  exponential tail beyond the last grid point

All models store the reduced amplitude a(q) = A_B(s, q) / s, so tables are
s-independent; the i*g*s normalization convention is adopted and
documented here because the underlying physics leaves it open.

A model whose a(q) has one constant phase, a(q) = phase * r(q) with r
real, says so in ``phase``: 1j for the Gaussian family, 1 or 1j for a
table with an all-zero Im or Re column, None for a general table.  The
amplitude integrals then run on r in real arithmetic and multiply the
phase back in once (see :mod:`eikamp.eikonal`).

Every model carries an envelope |a(q)| <= envelope(q) that decays at least
exponentially; the impact-parameter transform converges absolutely only
under such a bound, and the integrators use envelope crossings to truncate
semi-infinite ranges.  Each model also states the impact parameter beyond
which its eikonal phase is negligible (``chi_b_cutoff``), so no caller
needs to know which family it holds.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import ModelFileError

__all__ = [
    "BornKind",
    "Kinematics",
    "BornModel",
    "GaussianBorn",
    "ExponentialPoleBorn",
    "TabulatedBorn",
    "load_model",
]


class BornKind(Enum):
    GAUSSIAN = "gaussian"
    EXPONENTIAL_POLE = "exponential_pole"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class Kinematics:
    """Mandelstam pair (s, t) with s > 0, t < 0; q = sqrt(-t) in GeV."""

    s: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise ValueError(f"s must be positive and finite, got {self.s!r}")
        if not (math.isfinite(self.t) and self.t < 0.0):
            raise ValueError(f"t must be negative and finite, got {self.t!r}")

    @property
    def q(self):
        return math.sqrt(-self.t)


class BornModel:
    """Common interface of the Born families.

    Subclasses implement ``reduced(q)`` (vectorized complex a(q) =
    A_B/s), ``envelope(q)`` (a decreasing positive bound on |a(q)|),
    ``q_cutoff(threshold)`` (the envelope's crossing point) and
    ``chi_b_cutoff(level)`` (an impact parameter beyond which |chi| <
    level).  ``value`` restores the s factor.  ``chi_closed`` returns a
    closed-form eikonal phase function of b when the family admits one,
    else None.  ``phase`` is the constant phase of a(q) (1 or 1j) when it
    has one, so that a(q) / phase is real, else None.  ``q_grid`` holds
    the nodes where a tabulated a(q) is only C1, else None.
    """

    kind: BornKind
    phase = None
    q_grid = None

    def value(self, s, q):
        return s * self.reduced(q)

    def reduced(self, q):
        raise NotImplementedError

    def envelope(self, q):
        raise NotImplementedError

    def q_cutoff(self, threshold):
        raise NotImplementedError

    def chi_b_cutoff(self, level):
        raise NotImplementedError

    def chi_closed(self):
        return None


class GaussianBorn(BornModel):
    """a(q) = i g exp(-q^2 / (2 lam^2)); the analytic workhorse.

    Its eikonal phase is Gaussian in b with peak chi0 = g lam^2 / (4 pi),
    which makes every pipeline stage checkable in closed form.
    """

    kind = BornKind.GAUSSIAN
    phase = 1j

    def __init__(self, g, lam):
        if not (g > 0.0 and math.isfinite(g)):
            raise ValueError("coupling g must be positive")
        if not (lam > 0.0 and math.isfinite(lam)):
            raise ValueError("scale lam must be positive")
        self.g = float(g)
        self.lam = float(lam)

    def reduced(self, q):
        q = np.asarray(q, dtype=float)
        return 1j * self.g * np.exp(-q * q / (2.0 * self.lam ** 2))

    def envelope(self, q):
        q = np.asarray(q, dtype=float)
        return self.g * np.exp(-q * q / (2.0 * self.lam ** 2))

    def q_cutoff(self, threshold):
        if threshold >= self.g:
            return 0.0
        return self.lam * math.sqrt(2.0 * math.log(self.g / threshold))

    @property
    def chi0(self):
        """Peak eikonal phase magnitude |chi(b=0)| = g lam^2 / (4 pi)."""
        return self.g * self.lam ** 2 / (4.0 * math.pi)

    def chi_closed(self):
        lam, chi0 = self.lam, self.chi0

        def chi(b):
            b = np.asarray(b, dtype=float)
            return 1j * chi0 * np.exp(-(lam * lam) * b * b / 2.0)

        return chi

    def chi_b_cutoff(self, level):
        """The closed inversion of |chi| = chi0 exp(-beta b^2), beta =
        lam^2 / 2, at ``level``; at least 1 / sqrt(beta)."""
        beta = 0.5 * self.lam ** 2
        return math.sqrt(math.log(max(self.chi0 / level, math.e)) / beta)


class ExponentialPoleBorn(GaussianBorn):
    """a(q) = i C exp(-B q^2): exponential-in-t with slope B, the
    Gaussian family with g = C and lam = 1 / sqrt(2 B)."""

    kind = BornKind.EXPONENTIAL_POLE

    def __init__(self, c, slope_b):
        if not (c > 0.0 and math.isfinite(c)):
            raise ValueError("normalization c must be positive")
        if not (slope_b > 0.0 and math.isfinite(slope_b)):
            raise ValueError("slope must be positive")
        super().__init__(c, 1.0 / math.sqrt(2.0 * slope_b))
        self.c = float(c)
        self.slope_b = float(slope_b)

    def reduced(self, q):
        # in B itself, which lam^2 = 1 / (2 B) would round
        q = np.asarray(q, dtype=float)
        return 1j * self.c * np.exp(-self.slope_b * q * q)


class TabulatedBorn(BornModel):
    """Reduced amplitude from a grid (q_i, Re a_i, Im a_i).

    Interpolation is monotone cubic (no overshoot between grid points),
    scipy's PCHIP bit for bit but built and evaluated here
    (:func:`_pchip`, :func:`_cubic`): importing ``scipy.interpolate``
    would add about 0.3 s to a cold start.  Beyond the last point the
    complex value decays as a(q_N) exp(-kappa_tail (q - q_N)) with
    kappa_tail fitted from the magnitudes of the last two grid points.
    Every grid value, M and kappa must be finite.  The stated envelope
    M exp(-kappa q) is validated against the grid at construction and
    must also dominate the fitted tail.  A table whose Re or Im column is
    all zero has one phase and interpolates only its other column.
    """

    kind = BornKind.TABULATED

    def __init__(self, q_grid, re_vals, im_vals, envelope_m, envelope_kappa):
        q = np.asarray(q_grid, dtype=float)
        re = np.asarray(re_vals, dtype=float)
        im = np.asarray(im_vals, dtype=float)
        if q.ndim != 1 or q.size < 3:
            raise ValueError("grid needs at least 3 points")
        if re.shape != q.shape or im.shape != q.shape:
            raise ValueError("grid columns must have equal length")
        if not np.isfinite(np.stack([q, re, im])).all():
            raise ValueError("grid q, Re and Im must be finite")
        if q[0] != 0.0 or np.any(np.diff(q) <= 0.0):
            raise ValueError("q grid must start at 0 and increase strictly")
        if not (0.0 < envelope_m < math.inf
                and 0.0 < envelope_kappa < math.inf):
            raise ValueError("envelope requires finite M > 0 and kappa > 0")
        mag = np.hypot(re, im)
        bound = envelope_m * np.exp(-envelope_kappa * q)
        bad = mag > bound * (1.0 + 1e-9)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"envelope violated at q = {q[i]:g}: |a| = {mag[i]:.6g} > "
                f"M e^(-kappa q) = {bound[i]:.6g}")
        if not mag[-1] < mag[-2]:
            raise ValueError("grid magnitudes must decrease at the end "
                             "(needed for the exponential tail fit)")
        kappa_tail = math.log(mag[-2] / mag[-1]) / (q[-1] - q[-2])
        if kappa_tail < envelope_kappa * (1.0 - 1e-12):
            raise ValueError(
                f"fitted tail decays slower than the envelope: kappa_tail = "
                f"{kappa_tail:.6g} < kappa = {envelope_kappa:.6g}, so the "
                f"envelope would not bound the extrapolated amplitude")
        self.q_grid = q
        # an all-zero column would interpolate to 0.0 everywhere; it is
        # left out, which changes no bit of a(q).  One row of
        # coefficients per interval: a point gathers its four at once
        self._re, self._im = (np.ascontiguousarray(_pchip(q, col).T)
                              if col.any() else None for col in (re, im))
        if any(c is not None and not np.isfinite(c).all()
               for c in (self._re, self._im)):
            raise ValueError("grid too steep: the interpolant's "
                             "coefficients overflow")
        if self._re is None:
            self.phase = 1j
        elif self._im is None:
            self.phase = 1
        self._a_end = complex(re[-1], im[-1])
        self._kappa_tail = kappa_tail
        self.envelope_m = float(envelope_m)
        self.envelope_kappa = float(envelope_kappa)

    def reduced(self, q):
        q = np.asarray(q, dtype=float)
        scalar = q.ndim == 0
        q = np.atleast_1d(q)
        out = np.empty(q.shape, dtype=complex)
        inside = q <= self.q_grid[-1]
        q_in = q[inside]
        # x[i] <= q < x[i+1], and the last interval is closed on the right
        i = np.searchsorted(self.q_grid[1:-1], q_in, side="right")
        s = q_in - self.q_grid[i]
        out[inside] = ((0.0 if self._re is None else _cubic(self._re, i, s))
                       + 1j * (0.0 if self._im is None
                               else _cubic(self._im, i, s)))
        tail = ~inside
        out[tail] = self._a_end * np.exp(
            -self._kappa_tail * (q[tail] - self.q_grid[-1]))
        return out[0] if scalar else out

    def envelope(self, q):
        q = np.asarray(q, dtype=float)
        return self.envelope_m * np.exp(-self.envelope_kappa * q)

    def q_cutoff(self, threshold):
        if threshold >= self.envelope_m:
            return 0.0
        return math.log(self.envelope_m / threshold) / self.envelope_kappa

    def chi_b_cutoff(self, level):
        """Impact parameter beyond which |chi| is certainly below ``level``.

        With |a(q)| <= M exp(-kappa q) the phase obeys the closed Hankel
        transform bound of the envelope,

            |chi(b)| <~ (M / 4 pi) kappa / (kappa^2 + b^2)^(3/2),

        which decays like b^-3; a 30x pad keeps the estimate conservative
        for tables that do not saturate their envelope profile.  The
        quadrature route cannot certify levels this small at such b (the
        J0 oscillation noise floor sits above them), so the cutoff must be
        analytic.
        """
        kappa = self.envelope_kappa
        scale = 30.0 * self.envelope_m * kappa / (4.0 * math.pi * level)
        return max(scale ** (1.0 / 3.0), 12.0 / kappa)


def _pchip(x, y):
    """Coefficients c, shape (4, n - 1), of the monotone piecewise cubic
    through (x, y): on [x_i, x_i+1] it is c[0, i] s^3 + c[1, i] s^2 +
    c[2, i] s + c[3, i] with s = x - x_i.

    The slope at an interior node is Fritsch and Butland's weighted
    harmonic mean of its two secants (SIAM J. Sci. Comput. 5, 1984), or
    zero where they change sign or one vanishes; an end slope is Moler's
    one-sided three-point formula with its two shape fixes (Numerical
    Computing with MATLAB, 2004).  The arithmetic is scipy's
    ``PchipInterpolator``'s, so c is its ``c`` bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    same = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    with np.errstate(divide="ignore"):
        d[1:-1] = np.where(same, 1.0 / ((w1 / m[:-1] + w2 / m[1:])
                                        / (w1 + w2)), 0.0)

    def end(h0, h1, m0, m1):
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
            return 3.0 * m0
        return e

    d[0] = end(h[0], h[1], m[0], m[1])
    d[-1] = end(h[-1], h[-2], m[-1], m[-2])
    # the cubic Hermite form, as scipy's CubicHermiteSpline builds it
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def _cubic(c, i, s):
    """The cubics of rows c[i] = (c0, c1, c2, c3) at s, in scipy's
    ``PPoly`` order: c3 + c2 s, then + c1 s^2, then + c0 s^3, with s^3
    formed as (s s) s."""
    c0, c1, c2, c3 = c.take(i, axis=0).T
    out = c2 * s
    out += c3
    z = s * s
    c1 *= z
    out += c1
    z *= s
    c0 *= z
    out += c0
    return out


def _get_float(section, key, path):
    if key not in section:
        raise ModelFileError(f"{path}: missing key '{key}' in [{section.name}]")
    try:
        return float(section[key])
    except ValueError as exc:
        raise ModelFileError(
            f"{path}: key '{key}' is not a number: {section[key]!r}") from exc


def load_model(path):
    """Parse a model definition file.

    Format (INI-style)::

        [model]
        kind = gaussian            ; or exponential_pole, tabulated
        g = 1.0                    ; gaussian: g, lambda
        lambda = 1.0
        ; exponential_pole: c, b_slope
        ; tabulated: multiline 'points', each row 'q  re  im' giving the
        ; reduced amplitude a(q) = A_B / s
        ; points =
        ;     0.0   0.0   1.0
        ;     0.5   0.0   0.8
        ;     ...

        [envelope]                 ; tabulated models only
        m = 1.0
        kappa = 2.0

    Raises ModelFileError with a location hint on any structural problem.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ModelFileError(f"{path}: parse error: {exc}") from exc

    if "model" not in cp:
        raise ModelFileError(f"{path}: missing [model] section")
    sec = cp["model"]
    kind_raw = sec.get("kind", "").strip().lower()
    try:
        kind = BornKind(kind_raw)
    except ValueError:
        raise ModelFileError(
            f"{path}: unknown kind {kind_raw!r}; expected one of "
            f"{[k.value for k in BornKind]}") from None

    try:
        if kind is BornKind.GAUSSIAN:
            return GaussianBorn(_get_float(sec, "g", path),
                                _get_float(sec, "lambda", path))
        if kind is BornKind.EXPONENTIAL_POLE:
            return ExponentialPoleBorn(_get_float(sec, "c", path),
                                       _get_float(sec, "b_slope", path))
        if "points" not in sec:
            raise ModelFileError(f"{path}: tabulated model needs 'points'")
        rows = []
        for ln in sec["points"].strip().splitlines():
            parts = ln.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ModelFileError(
                    f"{path}: points row needs 'q re im', got {ln.strip()!r}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ModelFileError(
                    f"{path}: non-numeric points row {ln.strip()!r}") from None
        if "envelope" not in cp:
            raise ModelFileError(
                f"{path}: tabulated model needs an [envelope] section")
        env = cp["envelope"]
        arr = np.asarray(rows, dtype=float).reshape(-1, 3)
        return TabulatedBorn(arr[:, 0], arr[:, 1], arr[:, 2],
                             _get_float(env, "m", path),
                             _get_float(env, "kappa", path))
    except ModelFileError:
        raise
    except ValueError as exc:
        raise ModelFileError(f"{path}: invalid model parameters: {exc}") from exc
