"""The package acceptance gate.

One test per item in the README's "Acceptance checks" list.  Each test
computes its evidence, records a single PASS/FAIL summary line (printed
in the "acceptance criteria" terminal section at the end of the run) and
then asserts.  All random draws are seeded, so reruns are identical.
"""

import math
import time
from pathlib import Path

import numpy as np

import helpers as H
from conftest import record_acceptance
from eikamp.besselprod import (Branch, _g_values, delta3_sq, f3_eval,
                               f4_classify, f4_eval, f5_eval, f6_eval,
                               weber_integral)
from eikamp.eikonal import (_A2Hat, _a2_with_error, _a3_block,
                            _a3_with_error, assemble_amplitude, compute_terms)
from eikamp.models import GaussianBorn, Kinematics
from eikamp.oracle import (direct_eikonal_amplitude,
                           gaussian_series_amplitude,
                           reference_besselproduct)
from eikamp.quadrature import QuadratureConfig
from eikamp.special import elliptic_k

CHAIN_CFG = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-7)


def _record(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    record_acceptance(f"[criterion {num}] {verdict}: {detail}")
    return ok


def test_01_triangle_moments_against_oracle():
    rng = np.random.default_rng(31415)
    t0 = time.monotonic()
    worst = 0.0
    n = 0
    while n < 20:
        a, b, c = rng.uniform(0.5, 5.0, size=3)
        # stay clearly inside the triangle inequality so neither route
        # sits near the degenerate boundary
        if min(a + b - c, b + c - a, c + a - b) <= 0.15 * (a + b + c):
            continue
        n += 1
        closed = f3_eval(a, b, c)
        ref = reference_besselproduct((a, b, c))
        worst = max(worst, abs(ref.value - closed) / closed)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    assert _record(1, ok,
                   f"20 random triangle moments vs oracle, worst rel dev "
                   f"{worst:.2e} (tol 1e-5), {elapsed:.1f}s (limit 60s)")


def test_02_four_factor_branches_against_oracle():
    rng = np.random.default_rng(20260823)
    sup, sub = [], []
    while len(sup) < 20 or len(sub) < 20:
        q = rng.uniform(0.5, 5.0, size=4)
        rep = f4_classify(*q)
        scale = max(abs(rep.delta_sq), abs(rep.product_abcd))
        # margins keep the draws away from both boundaries, where the
        # closed form is exact but the damped oracle loses digits
        if rep.branch is Branch.SUPER and len(sup) < 20 \
                and rep.delta_sq - rep.product_abcd > 0.3 * scale:
            sup.append(q)
        elif rep.branch is Branch.SUB and len(sub) < 20 \
                and rep.product_abcd - rep.delta_sq > 0.3 * scale \
                and rep.delta_sq > 0.25 * rep.product_abcd:
            sub.append(q)
    worst = 0.0
    for q in sup + sub:
        closed = f4_eval(*q)
        ref = reference_besselproduct(tuple(q))
        worst = max(worst, abs(ref.value - closed) / abs(closed))

    vanish_ok = True
    n_vanish = 0
    while n_vanish < 5:
        q = rng.uniform(0.5, 5.0, size=4)
        srt = sorted(q)
        if srt[-1] <= 1.3 * sum(srt[:-1]):
            continue
        n_vanish += 1
        vanish_ok &= f4_eval(*q) == 0.0
        vanish_ok &= abs(reference_besselproduct(tuple(q)).value) < 1e-6

    jump = reference_besselproduct((1.0, 1.0, 1.0, 3.0))
    inside = 1.0 / (2.0 * math.pi * math.sqrt(3.0))
    jump_dev = abs(jump.value - inside) / inside

    ok = worst <= 1e-5 and vanish_ok and jump_dev <= 1e-4
    assert _record(2, ok,
                   f"20 super + 20 sub vs oracle worst {worst:.2e} "
                   f"(tol 1e-5); 5 vanishing below 1e-6; boundary jump "
                   f"dev {jump_dev:.2e} (tol 1e-4)")


def test_03_fourth_parameter_collapse():
    rng = np.random.default_rng(7)
    worst = 0.0
    n = 0
    while n < 10:
        a, b, c = rng.uniform(0.5, 5.0, size=3)
        if delta3_sq(a, b, c) <= 0.01:
            continue
        n += 1
        f3 = f3_eval(a, b, c)
        f4 = f4_eval(a, b, c, 1e-4)
        worst = max(worst, abs(f4 - f3) / f3)
    ok = worst <= 1e-3
    assert _record(3, ok,
                   f"F4(a,b,c,1e-4) vs F3 over 10 triangles, worst rel "
                   f"{worst:.2e} (tol 1e-3)")


def test_04_dual_route_reductions():
    def dev_bound(r1, r2, factor=2.0, floor=1e-12):
        dev = abs(r1.value - r2.value)
        return dev, factor * (r1.error_estimate + r2.error_estimate) + floor

    checks = []
    rng = np.random.default_rng(41)
    for _ in range(10):
        p = rng.uniform(0.5, 2.5, size=5)
        checks.append(dev_bound(f5_eval(*p), H.f5_eval_symmetric(*p)))

    base = (1.3, 0.9, 1.6, 0.7, 1.1)
    r0 = f5_eval(*base)
    for order in ((1, 0, 3, 2, 4), (2, 3, 0, 1, 4), (4, 2, 1, 3, 0),
                  (3, 4, 2, 0, 1), (2, 0, 4, 1, 3)):
        checks.append(dev_bound(f5_eval(*(base[i] for i in order)), r0))

    rng6 = np.random.default_rng(13)
    for _ in range(5):
        p = rng6.uniform(0.6, 2.0, size=6)
        checks.append(dev_bound(f6_eval(*p),
                                H.f6_eval_chain(*p, cfg=CHAIN_CFG)))

    routes_ok = all(dev <= bound for dev, bound in checks)
    worst_ratio = max(dev / bound for dev, bound in checks)

    vanish_ok = (f5_eval(5.0, 1.0, 0.5, 0.5, 0.5).value == 0.0
                 and H.f5_eval_symmetric(5.0, 1.0, 0.5, 0.5, 0.5).value == 0.0
                 and f6_eval(6.0, 1.0, 1.0, 0.5, 0.5, 0.5).value == 0.0
                 and H.f6_eval_chain(6.0, 1.0, 1.0, 0.5, 0.5, 0.5).value == 0.0)

    ok = routes_ok and vanish_ok
    assert _record(4, ok,
                   f"10 F5 + 5 permuted + 5 F6 dual-route pairs within 2x "
                   f"combined errors (worst dev/bound {worst_ratio:.2f}); "
                   f"n=5,6 vanishing rule exact")


def test_05_gaussian_closed_forms_grid():
    s, lam = 50.0, 1.0
    cfg = QuadratureConfig()
    t0 = time.monotonic()
    worst2 = worst3 = 0.0
    for chi0 in (0.05, 0.1, 0.2, 0.3, 0.5):
        g = 4.0 * math.pi * chi0 / lam ** 2
        m = GaussianBorn(g=g, lam=lam)
        a2hat = _A2Hat(m, cfg)
        for t in (-0.25, -1.0, -4.0):
            kin = Kinematics(s, t)
            a2c = (-math.pi * s * chi0 ** 2 / lam ** 2
                   * math.exp(t / (4.0 * lam ** 2)))
            a3c = (-2j * math.pi * s * chi0 ** 3 / (9.0 * lam ** 2)
                   * math.exp(t / (6.0 * lam ** 2)))
            a2 = _a2_with_error(m, [kin], cfg)[0][0]
            a3 = _a3_with_error(m, [kin], cfg, a2hat)[0][0]
            worst2 = max(worst2, abs(a2 - a2c) / abs(a2c))
            worst3 = max(worst3, abs(a3 - a3c) / abs(a3c))
    elapsed = time.monotonic() - t0
    ok = worst2 <= 1e-6 and worst3 <= 1e-6 and elapsed < 600.0
    assert _record(5, ok,
                   f"A2/A3 vs closed Gaussian forms on the 5x3 grid, worst "
                   f"rel {worst2:.2e} / {worst3:.2e} (tol 1e-6), "
                   f"{elapsed:.0f}s (limit 600s)")


def test_06_truncation_dominated_by_fourth_order():
    s, t, lam = 50.0, -1.0, 1.0
    kin = Kinematics(s, t)
    ratios = []
    for chi0 in (0.1, 0.2, 0.3):
        g = 4.0 * math.pi * chi0
        m = GaussianBorn(g=g, lam=lam)
        asm = assemble_amplitude(compute_terms(m, kin))
        srs = gaussian_series_amplitude(g, lam, kin)
        term4 = ((4.0 * math.pi * s / lam ** 2) * chi0 ** 4 / (24.0 * 4.0)
                 * math.exp(t / (8.0 * lam ** 2)))
        ratios.append(abs(asm - srs) / term4)
    ok = all(0.3 <= r <= 3.0 for r in ratios)
    assert _record(6, ok,
                   "truncation error over fourth-order term at chi0 = "
                   "0.1/0.2/0.3: " + ", ".join(f"{r:.2f}" for r in ratios)
                   + " (required within [0.3, 3])")


def _blocks_integral(hfunc, x1_cap, cfg):
    total = 0.0
    for blk in H.decompose_a3_domain():
        lo, hi = blk.x1_range
        hi = min(hi, x1_cap)
        if hi <= lo:
            continue
        r = H.integrate_nested(hfunc, [(lo, hi), (blk.x2_lower, blk.x2_upper),
                                       (blk.x3_lower, blk.x3_upper)], cfg)
        total += r.value
    return total


def _gaussian_weight_indicator_oracle():
    """Raw-indicator integral of the A3 integrand with Gaussian weights.

    Outer Gauss panels over (x1, x2) with edges on the decomposition
    kinks; inner adaptive x3 integral over the numerically resolved
    indicator support, kernel log-singularities supplied as breakpoints.
    Shares the kernel closed form with production but none of the block
    structure under test.
    """
    inner_cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-10)

    def w(q):
        return np.exp(-0.5 * q * q)

    def inner_x3(x1, x2):
        xp = 0.5 * (x1 + x2)
        xm = 0.5 * (x1 - x2)
        amp = xp * xm * w(xp) * w(xm)
        if amp < 1e-12:
            return 0.0, 0.0

        def f(x3):
            return amp * x3 * w(x3) * _g_values(
                np.full_like(x3, x1), np.full_like(x3, x2), x3)

        total = err = 0.0
        for lo, hi in H.x3_support_segments(x1, x2, min(x1 + 1.0, 13.0),
                                            n_scan=201, iters=50):
            if hi - lo < 1e-13:
                continue
            brk = H.modulus_one_points(xp, xm, lo, hi, n_scan=129)
            r = H.integrate_1d(f, lo, hi, inner_cfg, breakpoints=brk or None)
            total += r.value
            err += r.error_estimate
        return total, err

    x1_nodes, x1_wts = H.gauss_panels(
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0], order=16)
    acc = acc_err = 0.0
    for x1, w1 in zip(x1_nodes, x1_wts):
        x2_edges = [0.0, x1] if x1 <= 1.0 else [0.0, 1.0, x1]
        x2_nodes, x2_wts = H.gauss_panels(x2_edges, order=16)
        for x2, w2 in zip(x2_nodes, x2_wts):
            v, e = inner_x3(float(x1), float(x2))
            acc += w1 * w2 * v
            acc_err += abs(w1 * w2) * e
    return acc, acc_err


def test_07_domain_decomposition_against_indicator():
    tight = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12)

    # unit weight on x1 <= 3: the split must tile the raw region exactly
    blocks_unit = _blocks_integral(lambda x1, x2, x3: np.ones_like(x3),
                                   3.0, tight)
    ind_unit = H.indicator_integral(
        lambda x1, x2, segs: sum(hi - lo for lo, hi in segs), 3.0)
    dev_unit = abs(blocks_unit - ind_unit) / abs(ind_unit)

    # separable exponential weight, x1 truncated where it is ~4e-18
    blocks_exp = _blocks_integral(lambda x1, x2, x3: np.exp(-x1 - x3),
                                  40.0, tight)
    ind_exp = H.indicator_integral(
        lambda x1, x2, segs: math.exp(-x1) * sum(
            math.exp(-lo) - math.exp(-hi) for lo, hi in segs),
        40.0, epsabs=1e-11, epsrel=1e-10)
    dev_exp = abs(blocks_exp - ind_exp) / abs(ind_exp)

    # the production A3 integrand itself (Gaussian model, unit coupling)
    model = GaussianBorn(g=1.0, lam=1.0)
    counters = [0]
    block_sum = 0.0 + 0.0j
    # production integrates the same region in x1 slabs
    for lo, hi in ((0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 8.0),
                   (8.0, 12.0)):
        v, _e = _a3_block(model, 1.0, lo, hi, QuadratureConfig(), 13.0,
                          counters)
        block_sum += v
    oracle_real, oracle_err = _gaussian_weight_indicator_oracle()
    # three factors of i g from the Born amplitudes
    oracle_c = -1j * oracle_real
    dev_model = abs(block_sum - oracle_c) / abs(oracle_c)
    # the comparison is only as sharp as the oracle's own accumulated
    # inner error
    oracle_sharp = oracle_err <= 1e-6 * abs(oracle_real)

    ok = dev_unit <= 1e-6 and dev_exp <= 1e-6 and dev_model <= 1e-6 \
        and oracle_sharp
    assert _record(7, ok,
                   f"five-block vs raw-indicator integrals, rel devs: unit "
                   f"{dev_unit:.2e}, exponential {dev_exp:.2e}, Gaussian "
                   f"model {dev_model:.2e} (tol 1e-6 each)")


def test_08_direct_oracle_vs_series():
    chi0, lam = 0.3, 1.0
    g = 4.0 * math.pi * chi0 / lam ** 2
    m = GaussianBorn(g=g, lam=lam)
    kin = Kinematics(s=50.0, t=-1.0)
    d = direct_eikonal_amplitude(m, kin)
    srs = gaussian_series_amplitude(g, lam, kin)
    dev = abs(d - srs) / abs(srs)
    ok = dev <= 1e-6
    assert _record(8, ok,
                   f"direct oscillatory amplitude vs all-orders series at "
                   f"chi0=0.3, t=-1: rel dev {dev:.2e} (tol 1e-6)")


def test_09_special_function_witnesses():
    rng = np.random.default_rng(99)
    ks = rng.uniform(0.0, 0.95, size=20)
    worst_k = max(abs(float(elliptic_k(k)) - H.k_by_definition(k))
                  / H.k_by_definition(k) for k in ks)
    k0_dev = abs(float(elliptic_k(0.0)) - math.pi / 2.0)

    # the damped two-factor product is a smeared delta(a-b)/a; its mass
    # against the radial measure a da must be exactly one
    b, p = 1.0, 0.1
    mass = H.integrate_1d(lambda a: a * weber_integral(a, b, p), 0.0,
                          b + 40.0 * p,
                          QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)).value
    mass_dev = abs(mass - 1.0)

    ok = worst_k <= 1e-10 and k0_dev <= 4e-16 and mass_dev <= 1e-8
    assert _record(9, ok,
                   f"elliptic K vs defining integral worst {worst_k:.2e} "
                   f"(tol 1e-10); K(0) dev {k0_dev:.1e}; smeared-delta "
                   f"mass dev {mass_dev:.2e} (tol 1e-8)")


def test_10_readme_states_oracle_limitation():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").lower()
    has_regime = "extreme regime" in text
    has_oracle = "oscillatory oracle" in text
    ok = has_regime and has_oracle
    assert _record(10, ok,
                   f"README states the extreme-regime limitation of the "
                   f"oscillatory oracle (found: extreme regime={has_regime}, "
                   f"oscillatory oracle={has_oracle})")
