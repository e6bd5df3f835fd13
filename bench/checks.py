"""Checks of the program's outputs against bench/references.py.

Every check returns a list of failure messages; an empty list passes.
The checks take plain values, so bench/test_checks.py can feed them a
perturbed output and see each one fail.
"""

from __future__ import annotations

import math

import references as R
import workloads as W

# F3/F4 are closed forms on both sides; they differ only by rounding and
# the program's elliptic-K error (about 2e-13 relative)
CLOSED_FORM_RTOL = 1e-10
PERMUTATION_RTOL = {3: 0.0, 4: 1e-14}


def _term(row, name):
    return complex(row[f"re_{name}"], row[f"im_{name}"])


def _within(name, got, ref, ref_err, rel_tol, abs_tol, reported=None):
    """``got`` within the requested tolerance of ``ref``, and a reported
    error not below the deviation the reference can resolve."""
    dev = abs(got - ref)
    allowed = max(rel_tol * abs(ref), abs_tol) + ref_err
    out = []
    if not dev <= allowed:
        out.append(f"{name}: {got} deviates from reference {ref} by "
                   f"{dev:.3e} > {allowed:.3e}")
    if reported is not None and not reported >= dev - ref_err:
        out.append(f"{name}: reported error {reported:.3e} is below the "
                   f"observed deviation {dev:.3e} (reference error "
                   f"{ref_err:.1e})")
    return out


def check_rows(rows, t_grid):
    """Every requested t has a row, in order, with status ok."""
    ts = [r["t"] for r in rows]
    if len(ts) != len(t_grid) or any(
            not math.isclose(a, b, rel_tol=1e-15) for a, b in zip(ts, t_grid)):
        return [f"rows at t = {ts}, expected {list(t_grid)}"]
    return [f"t = {r['t']}: status {r['status']!r}" for r in rows
            if r["status"] != "ok"]


def check_gauss_rows(rows, spec):
    """Closed Gaussian A1, A2, A3, and the assembled amplitude against the
    all-orders series: their difference must be the chi^4 term up to the
    n >= 5 remainder and the reported errors."""
    g, lam = W.GAUSS["g"], W.GAUSS["lam"]
    out = []
    for r in rows:
        t = r["t"]
        a1, a2, a3 = R.gaussian_terms(g, lam, W.S, t)
        out += _within(f"a1(t={t})", _term(r, "a1"), a1, 0.0, 1e-13, 0.0)
        out += _within(f"a2(t={t})", _term(r, "a2"), a2, 0.0, spec.rel_tol,
                       spec.abs_tol, r["a2_error"])
        out += _within(f"a3(t={t})", _term(r, "a3"), a3, 0.0, spec.rel_tol,
                       spec.abs_tol, r["a3_error"])
        series = R.gaussian_series_sum(g, lam, W.S, t)
        t4 = R.gaussian_series_term(4, g, lam, W.S, t)
        rest = abs(R.gaussian_series_sum(g, lam, W.S, t, first=5))
        trunc = _term(r, "a") - series
        slack = rest + r["a2_error"] + r["a3_error"] + 1e-13 * abs(series)
        if not abs(trunc + t4) <= slack:
            out.append(f"assembled(t={t}): truncation error {abs(trunc):.6e} "
                       f"is not the chi^4 term {abs(t4):.6e} within "
                       f"{slack:.3e}")
    return out


def tabulated_reference(t):
    """((a2, err), (a3, err)) of the workload's table at t."""
    return R.tabulated_a2_a3(W.TABLE_ROWS, W.S, t)


def check_tabulated_rows(rows, spec, refs):
    """A1 at a table node is exact; A2 and A3 against the impact-parameter
    moments of chi.  ``refs`` maps t to tabulated_reference(t)."""
    out = []
    a, _, _ = R.tabulated_reduced(W.TABLE_ROWS)
    for r in rows:
        t = r["t"]
        (a2, e2), (a3, e3) = refs[t]
        a1 = W.S * complex(a(math.sqrt(-t)))
        out += _within(f"a1(t={t})", _term(r, "a1"), a1, 0.0, 1e-13, 0.0)
        out += _within(f"a2(t={t})", _term(r, "a2"), a2, e2, spec.rel_tol,
                       spec.abs_tol, r["a2_error"])
        out += _within(f"a3(t={t})", _term(r, "a3"), a3, e3, spec.rel_tol,
                       spec.abs_tol, r["a3_error"])
    return out


def check_moments(draws, values, permuted, rel_tol=1e-6, abs_tol=1e-12):
    """F3/F4 against the closed forms, F5/F6 against scipy quadrature of
    the reductions (within the default tolerance, with honest reported
    errors), permutation invariance, and exact zeros on vanishing draws.

    ``values`` and ``permuted`` are run_moments outputs on
    ``draws.params`` and ``draws.perms``; failed operations (None) are
    skipped, they are counted apart.
    """
    out = []
    closed = {3: R.heron_f3, 4: R.elliptic_f4}
    quad = {5: R.quad_f5, 6: R.quad_f6}
    for n, plist in draws.params.items():
        for i, p in enumerate(plist):
            got, perm = values[n][i], permuted[n][i]
            if got is None or perm is None:
                continue
            name = f"F{n}{p}"
            if n in closed:
                out += _within(name, got, closed[n](*p), 0.0,
                               CLOSED_FORM_RTOL, 0.0)
                # F3 sorts its arguments; F4 multiplies them in the order
                # given, which can move the last bit
                if abs(perm - got) > PERMUTATION_RTOL[n] * abs(got):
                    out.append(f"{name}: permuted value {perm} != {got}")
                v, e = got, 0.0
            else:
                ref, ref_err = quad[n](*p)
                out += _within(name, got.value, ref, ref_err, rel_tol,
                               abs_tol, got.error_estimate)
                bound = 2.0 * (got.error_estimate + perm.error_estimate)
                if not abs(perm.value - got.value) <= bound + abs_tol:
                    out.append(f"{name}: permuted value {perm.value} "
                               f"differs from {got.value} by more than "
                               f"{bound:.3e}")
                v, e = got.value, got.error_estimate
            if draws.vanish[n][i] and not (v == 0.0 and e == 0.0):
                out.append(f"{name}: vanishing draw gave {v} +- {e}")
    return out
