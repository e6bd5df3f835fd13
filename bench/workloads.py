"""Workload inputs and the timed work of one round.

A round is the same set of operations every time, so ``failed`` is the
same share of ``attempted`` in every run.  The table workloads drive the
command line, ``eikamp.cli.main(["table", ...])``; ``moments`` drives the
package-level ``f3_eval`` .. ``f6_eval``.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass

import numpy as np

S = 50.0

# The README's Gaussian model (chi0 = g lam^2 / (4 pi) = 0.1997).
GAUSS = {"g": 2.51, "lam": 1.0}
GAUSS_INI = "[model]\nkind = gaussian\ng = 2.51\nlambda = 1.0\n"

# The five-node real table of the test suite, with its envelope.
TABLE_ROWS = ((0.0, 1.0, 0.0), (0.5, 0.87, 0.0), (1.0, 0.55, 0.0),
              (1.5, 0.28, 0.0), (2.0, 0.12, 0.0))
TABLE_ENVELOPE = (2.1, 1.2)
TABLE_INI = ("[model]\nkind = tabulated\npoints =\n"
             + "".join(f"    {q} {re} {im}\n" for q, re, im in TABLE_ROWS)
             + "[envelope]\nm = {}\nkappa = {}\n".format(*TABLE_ENVELOPE))


@dataclass(frozen=True)
class TableSpec:
    """One ``eikamp table`` call: model file text, t-grid and tolerance."""

    model_ini: str
    t_min: float
    t_max: float
    points: int
    rel_tol: float
    abs_tol: float

    def argv(self, model_path, rel_tol=None, abs_tol=None, points=None):
        return ["table", "--model", model_path, "--s", repr(S),
                "--t-min", repr(self.t_min), "--t-max", repr(self.t_max),
                "--points", str(points or self.points),
                "--rel-tol", repr(rel_tol or self.rel_tol),
                "--abs-tol", repr(abs_tol or self.abs_tol),
                "--format", "json"]


TABLES = {
    # default tolerance; t = -2, -1.125, -0.25
    "gauss-table": TableSpec(GAUSS_INI, -2.0, -0.25, 3, 1e-6, 1e-12),
    # default tolerance takes minutes per point on this table
    "tabulated-table": TableSpec(TABLE_INI, -1.0, -1.0, 1, 1e-3, 1e-6),
}


def run_table(eikamp, spec, model_path, **overrides):
    """One ``eikamp table`` call.  Returns (exit code, JSON text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = eikamp.cli.main(spec.argv(model_path, **overrides))
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

MOMENT_COUNTS = {3: 400, 4: 400, 5: 150, 6: 150}
# parameter box; a wider one spreads the F5/F6 evaluation counts so much
# that the per-round total moves by several percent from seed to seed
MOMENT_BOX = (0.5, 2.0)
# every VANISH_EVERY-th draw has one parameter beyond the sum of the others
VANISH_EVERY = 5
# draws keep this relative distance from the support and modulus-one
# boundaries, where the closed forms raise or spike
_MARGIN = 0.05


def _delta4_ratio(p):
    """Delta4^2 / abcd of four parameters, or None for other counts."""
    if p.size != 4:
        return None
    s = p.sum()
    d2 = np.prod(s - 2.0 * p) / 16.0
    return d2 / np.prod(p)


def _draw(rng, n, vanish):
    while True:
        p = rng.uniform(*MOMENT_BOX, n)
        if vanish:
            i = rng.integers(n)
            p[i] = (p.sum() - p[i]) * rng.uniform(1.25, 1.6)
        margin = (2.0 * p.max() - p.sum()) / p.sum()
        if (margin > _MARGIN) if vanish else (margin < -_MARGIN):
            ratio = _delta4_ratio(p)
            if ratio is None or abs(ratio - 1.0) > _MARGIN:
                return tuple(float(x) for x in p)


@dataclass(frozen=True)
class MomentDraws:
    """Seeded parameter tuples per moment order, with the vanishing flags
    and a seeded permutation of each tuple for the invariance check."""

    params: dict
    vanish: dict
    perms: dict

    @property
    def count(self):
        return sum(len(v) for v in self.params.values())

    def head(self, k):
        """The first k draws of each order."""
        return MomentDraws(*({n: v[:k] for n, v in d.items()}
                             for d in (self.params, self.vanish, self.perms)))

    def orders(self, *ns):
        """The draws of the given orders only."""
        return MomentDraws(*({n: d[n] for n in ns}
                             for d in (self.params, self.vanish, self.perms)))


def moment_draws(seed):
    rng = np.random.default_rng(seed)
    params, vanish, perms = {}, {}, {}
    for n, count in MOMENT_COUNTS.items():
        flags = [i % VANISH_EVERY == VANISH_EVERY - 1 for i in range(count)]
        draws = [_draw(rng, n, v) for v in flags]
        params[n] = draws
        vanish[n] = flags
        perms[n] = [tuple(p[i] for i in rng.permutation(n)) for p in draws]
    return MomentDraws(params, vanish, perms)


def run_moments(eikamp, draws, which="params"):
    """Evaluate every draw once.  Returns (values, seconds per order,
    failures): values[n] holds floats for n = 3, 4 and IntegralResults
    for n = 5, 6; a failure is an EikampError, recorded as None."""
    fns = {3: eikamp.f3_eval, 4: eikamp.f4_eval, 5: eikamp.f5_eval,
           6: eikamp.f6_eval}
    values, seconds, failures = {}, {}, 0
    for n, plist in getattr(draws, which).items():
        fn = fns[n]
        out = []
        t0 = time.perf_counter()
        for p in plist:
            try:
                out.append(fn(*p))
            except eikamp.EikampError:
                out.append(None)
                failures += 1
        seconds[n] = time.perf_counter() - t0
        values[n] = out
    return values, seconds, failures


def moment_evals(values):
    """Work counted at the public boundary: the evaluations reported by
    every F5 and F6 result."""
    return sum(r.evaluations for n in (5, 6) for r in values[n]
               if r is not None)
