"""Self-test of the benchmark: each check passes on a correct output and
fails on a perturbed one; the tracer computes self times and reports a
missing name as absent.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import math
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import references as R  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

Result = namedtuple("Result", "value error_estimate evaluations")


def _row(t, a1, a2, a3, a2_err, a3_err):
    amp = (a1 - a3) + 1j * a2
    return {"t": t, "re_a1": a1.real, "im_a1": a1.imag, "re_a2": a2.real,
            "im_a2": a2.imag, "re_a3": a3.real, "im_a3": a3.imag,
            "re_a": amp.real, "im_a": amp.imag, "a2_error": a2_err,
            "a3_error": a3_err, "status": "ok"}


def _perturbed(row, **changes):
    out = dict(row)
    for key, factor in changes.items():
        out[key] = row[key] * factor
    return out


# ---------------------------------------------------------------------------
# gauss-table
# ---------------------------------------------------------------------------

GSPEC = W.TABLES["gauss-table"]
GRID = np.linspace(GSPEC.t_min, GSPEC.t_max, GSPEC.points).tolist()


@pytest.fixture(scope="module")
def gauss_rows():
    rows = []
    for t in GRID:
        a1, a2, a3 = R.gaussian_terms(W.GAUSS["g"], W.GAUSS["lam"], W.S, t)
        rows.append(_row(t, a1, a2, a3, 1e-9 * abs(a2), 1e-9 * abs(a3)))
    return rows


def test_gauss_correct_output_passes(gauss_rows):
    assert checks.check_rows(gauss_rows, GRID) == []
    assert checks.check_gauss_rows(gauss_rows, GSPEC) == []


@pytest.mark.parametrize("changes", [
    {"re_a2": 1 + 1e-5},                # outside the requested tolerance
    {"im_a3": 1 + 1e-7},                # inside it, beyond the reported error
    {"im_a1": 1 + 1e-11},               # A1 is exact
    {"im_a": 1 + 1e-4},                 # assembled amplitude off the series
])
def test_gauss_perturbed_output_fails(gauss_rows, changes):
    rows = [_perturbed(r, **changes) if i == 1 else r
            for i, r in enumerate(gauss_rows)]
    assert checks.check_gauss_rows(rows, GSPEC)


def test_row_status_and_grid(gauss_rows):
    bad = [dict(gauss_rows[0], status="failed: x")] + gauss_rows[1:]
    assert checks.check_rows(bad, GRID)
    assert checks.check_rows(gauss_rows[:-1], GRID)


# ---------------------------------------------------------------------------
# tabulated-table
# ---------------------------------------------------------------------------

TSPEC = W.TABLES["tabulated-table"]


@pytest.fixture(scope="module")
def tab_case():
    refs = {-1.0: checks.tabulated_reference(-1.0)}
    (a2, e2), (a3, e3) = refs[-1.0]
    row = _row(-1.0, complex(W.S * 0.55), a2, a3, 1e-4 * abs(a2),
               1e-4 * abs(a3))
    return row, refs


def test_tabulated_reference_is_resolved(tab_case):
    _, refs = tab_case
    (a2, e2), (a3, e3) = refs[-1.0]
    assert e2 < 1e-6 * abs(a2) and e3 < 1e-6 * abs(a3)


def test_tabulated_correct_output_passes(tab_case):
    row, refs = tab_case
    assert checks.check_tabulated_rows([row], TSPEC, refs) == []


@pytest.mark.parametrize("changes", [
    {"re_a2": 1 + 2e-3},
    {"re_a3": 1 + 5e-4},
    {"re_a1": 1 + 1e-11},
])
def test_tabulated_perturbed_output_fails(tab_case, changes):
    row, refs = tab_case
    assert checks.check_tabulated_rows([_perturbed(row, **changes)], TSPEC,
                                       refs)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def moment_case():
    draws = W.moment_draws(7).head(5)
    values = {}
    for n, plist in draws.params.items():
        if n == 3:
            values[n] = [R.heron_f3(*p) for p in plist]
        elif n == 4:
            values[n] = [R.elliptic_f4(*p) for p in plist]
        else:
            quad = R.quad_f5 if n == 5 else R.quad_f6
            values[n] = [Result(v, e + 1e-12 if v else e, 100)
                         for v, e in (quad(*p) for p in plist)]
    return draws, values


def test_moments_correct_output_passes(moment_case):
    draws, values = moment_case
    assert checks.check_moments(draws, values, values) == []


def _swap(values, n, i, new):
    out = {k: list(v) for k, v in values.items()}
    out[n][i] = new
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_closed_form_perturbed_fails(moment_case, n):
    draws, values = moment_case
    bad = _swap(values, n, 0, values[n][0] * (1 + 1e-8))
    assert checks.check_moments(draws, bad, values)  # against the reference
    assert checks.check_moments(draws, values, bad)  # permutation


@pytest.mark.parametrize("n", [5, 6])
def test_reduction_perturbed_fails(moment_case, n):
    draws, values = moment_case
    r = values[n][0]
    wrong = _swap(values, n, 0, r._replace(value=r.value * (1 + 1e-5)))
    assert checks.check_moments(draws, wrong, values)
    shy = _swap(values, n, 0, r._replace(value=r.value * (1 + 1e-7),
                                         error_estimate=1e-15))
    assert checks.check_moments(draws, shy, shy)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_vanishing_draw_must_be_exact_zero(moment_case, n):
    draws, values = moment_case
    i = draws.vanish[n].index(True)
    tiny = 1e-300 if n < 5 else Result(1e-300, 0.0, 1)
    bad = _swap(values, n, i, tiny)
    assert checks.check_moments(draws, bad, bad)


def test_draws_repeat_for_a_seed_and_keep_the_vanishing_share():
    a, b = W.moment_draws(3), W.moment_draws(3)
    assert a == b and a != W.moment_draws(4)
    for n, flags in a.vanish.items():
        assert sum(flags) == W.MOMENT_COUNTS[n] // W.VANISH_EVERY


# ---------------------------------------------------------------------------
# tracer and spec
# ---------------------------------------------------------------------------

def test_self_time_is_duration_less_children():
    tr = spans.Tracer()

    def leaf(x):
        time.sleep(0.02)
        return x

    wrapped_leaf = tr._wrap(leaf, "leaf", points_arg=0)

    def outer(x):
        time.sleep(0.02)
        return wrapped_leaf(x) + wrapped_leaf(x)

    tr._wrap(outer, "outer")(np.zeros(3))
    assert list(tr.parent) == [-1, 0, 0]
    assert list(tr.points) == [0, 3, 3]
    dur, own = tr.durations(), tr.self_times()
    assert np.allclose(own[1:], dur[1:])
    assert math.isclose(own[0], dur[0] - dur[1] - dur[2], abs_tol=1e-12)
    assert 0.015 < own[0] < 0.6 * dur[0]


def test_missing_name_is_absent_and_patches_are_undone(monkeypatch):
    import eikamp
    import eikamp.eikonal

    original = eikamp.eikonal._g_values
    monkeypatch.delattr(eikamp.eikonal, "_x3_breakpoints")
    tr = spans.Tracer()
    tr.install()
    try:
        assert eikamp.eikonal._g_values is not original
        eikamp.f5_eval(1.0, 1.1, 0.9, 1.2, 0.8)
    finally:
        tr.remove()
    assert eikamp.eikonal._g_values is original
    m = tr.layer_metrics()
    assert tr.missing == ["eikamp.eikonal._x3_breakpoints"]
    assert m["eikonal.x3_breakpoints_s"] is None
    assert m["quadrature.points_outer"] > 0 and m["special.k_points"] > 0
    assert set(m) == set(spans.LAYER_METRICS)


def test_benchmark_json_matches_the_spec():
    text = (BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    assert json.loads(text) == run.spec()


def test_references_match_closed_forms():
    # F4(a, b, c, d) -> F3(a, b, c) as d -> 0 (relative 1e-3 at d = 1e-4)
    f3 = R.heron_f3(1.1, 1.3, 1.7)
    assert math.isclose(R.elliptic_f4(1.1, 1.3, 1.7, 1e-4), f3, rel_tol=1e-3)
    # the n >= 4 series tail is what the chi^3 truncation leaves out
    g, lam = W.GAUSS["g"], W.GAUSS["lam"]
    a1, a2, a3 = R.gaussian_terms(g, lam, W.S, -1.0)
    total = R.gaussian_series_sum(g, lam, W.S, -1.0)
    tail = R.gaussian_series_sum(g, lam, W.S, -1.0, first=4)
    assert abs((a1 - a3 + 1j * a2) + tail - total) < 1e-12 * abs(total)
