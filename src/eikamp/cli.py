"""Command-line surface.

Subcommands:

* ``besselprod A1 A2 ... An`` evaluates the Bessel-product moment F_n
  (n = 3..6) in closed/reduced form and prints value, error estimate and
  branch diagnostics.  n = 2 is rejected: that integral is a delta
  distribution delta(a - b)/a, not a number.
* ``table`` runs the amplitude pipeline over a t-grid and writes CSV or
  JSON rows of A1, A2, A3, the assembled amplitude and dsigma/dt.
* ``compare`` runs the pipeline against the direct oscillatory oracle and
  summarizes the relative deviation, failing when it exceeds the
  chi^4-truncation allowance by more than a factor of 10.
* ``selftest`` runs a quick self-contained battery of closed-form checks.

Exit codes: 0 success, 1 comparison/selftest failure or gate refusal,
2 boundary or divergent input, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .besselprod import (f3_eval, f4_classify, f4_eval, f5_eval, f6_eval,
                         delta3_sq, weber_integral)
from .eikonal import (_A2Hat, _gated_build, _table_terms, assemble_amplitude,
                      build_profile, compute_terms, diff_cross_section)
from .exceptions import (BoundaryCaseError, ChiGateError, EikampError,
                         ModelFileError, NonConvergenceError)
from .models import GaussianBorn, Kinematics, load_model
from .oracle import direct_eikonal_amplitude, gaussian_series_amplitude
from .quadrature import QuadratureConfig
from .special import bessel_j0, elliptic_k

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BOUNDARY = 2
EXIT_USAGE = 64

_SCHEMA_VERSION = 1
_TABLE_COLUMNS = ["t", "re_a1", "im_a1", "re_a2", "im_a2", "re_a3", "im_a3",
                  "re_a", "im_a", "dsigma_dt", "a2_error", "a3_error",
                  "status"]
_COMPARE_COLUMNS = ["t", "re_assembled", "im_assembled", "re_direct",
                    "im_direct", "rel_deviation"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken by boundary cases
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    p = _Parser(prog="eikamp",
                description="Oscillation-free eikonal amplitudes and "
                            "Bessel-product integrals")
    p.add_argument("--version", action="version", version=f"eikamp {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    bp = sub.add_parser("besselprod", help="evaluate F_n for n parameters")
    bp.add_argument("params", nargs="+", type=float, metavar="A")
    bp.add_argument("--rel-tol", type=float, default=1e-6)
    bp.add_argument("--abs-tol", type=float, default=1e-12)

    def add_run_flags(sp):
        sp.add_argument("--model", required=True, help="model file path")
        sp.add_argument("--s", type=float, required=True,
                        help="squared energy (GeV^2)")
        sp.add_argument("--t-min", type=float, required=True)
        sp.add_argument("--t-max", type=float, required=True)
        sp.add_argument("--points", type=int, default=11)
        sp.add_argument("--spacing", choices=("linear", "log"),
                        default="linear")
        sp.add_argument("--rel-tol", type=float, default=1e-6)
        sp.add_argument("--abs-tol", type=float, default=1e-12)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None,
                        help="output path (default: stdout)")
        sp.add_argument("--override-chi-gate", action="store_true")

    add_run_flags(sub.add_parser("table", help="amplitude table on a t-grid"))
    add_run_flags(sub.add_parser("compare",
                                 help="pipeline vs oscillatory oracle"))
    sub.add_parser("selftest", help="quick built-in verification battery")
    return p


# ---------------------------------------------------------------------------
# besselprod
# ---------------------------------------------------------------------------

def _tolerance_problem(args):
    """The usage error of tolerances outside (0, 1), or None."""
    if not (0 < args.rel_tol < 1 and 0 < args.abs_tol < 1):
        return "tolerances must be in (0, 1)"
    return None


def _cmd_besselprod(args):
    params = args.params
    n = len(params)
    if n < 2 or n > 6:
        problem = "expected 2 to 6 parameters"
    elif any(not (v > 0.0 and math.isfinite(v)) for v in params):
        problem = "parameters must be positive"
    elif n == 2:
        problem = ("the two-factor integral is not a number: "
                   "int x J0(ax) J0(bx) dx = delta(a - b)/a, a delta "
                   "distribution; smear one scale (n >= 3) to get a finite "
                   "value")
    else:
        problem = _tolerance_problem(args)
    if problem is not None:
        print(f"eikamp besselprod: {problem}", file=sys.stderr)
        return EXIT_USAGE
    cfg = QuadratureConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    try:
        if n == 3:
            value = f3_eval(*params)
            d2 = delta3_sq(*params)
            branch = ("positive support (F3 > 0)" if d2 > 0
                      else "vanishing (no closing triangle)")
            print(f"F3({', '.join(f'{v:g}' for v in params)}) = {value:.12g}")
            print(f"branch: {branch}; Delta3^2 = {d2:.12g}")
            print("error estimate: 0 (closed form)")
        elif n == 4:
            rep = f4_classify(*params)
            value = f4_eval(*params)
            note = f" ({rep.boundary_kind})" if rep.boundary_kind else ""
            print(f"F4({', '.join(f'{v:g}' for v in params)}) = {value:.12g}")
            print(f"branch: {rep.branch.value}{note}; "
                  f"Delta4^2 = {rep.delta_sq:.12g}; abcd = {rep.product_abcd:.12g}")
            print("error estimate: 0 (closed form)")
        else:
            fn = f5_eval if n == 5 else f6_eval
            res = fn(*params, cfg)
            print(f"F{n}({', '.join(f'{v:g}' for v in params)}) = "
                  f"{res.value:.12g}")
            print(f"error estimate: {res.error_estimate:.3g} "
                  f"({res.evaluations} evaluations)")
    except BoundaryCaseError as exc:
        print(f"eikamp besselprod: boundary case: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    except NonConvergenceError as exc:
        print(f"eikamp besselprod: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# table / compare
# ---------------------------------------------------------------------------

def _fmt(x):
    return "%.17g" % x


def _json_number(v):
    """JSON has no NaN or infinity: a non-finite number is written null."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _emit(args, columns, rows, header_kind):
    """Serialize rows (lists matching columns) as CSV or JSON; numbers are
    written with full round-trip precision in both formats."""
    if args.format == "csv":
        lines = [f"# eikamp-{header_kind} schema {_SCHEMA_VERSION} "
                 f"(eikamp {__version__})"]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(
                v if isinstance(v, str) else _fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "schema_version": _SCHEMA_VERSION,
            "generator": f"eikamp {__version__}",
            "kind": header_kind,
            "s": args.s,
            "rows": [{c: _json_number(v) for c, v in zip(columns, row)}
                     for row in rows],
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _run_problem(args):
    """The first usage error of a ``table`` or ``compare`` run that
    argparse cannot catch, or None."""
    if not all(map(math.isfinite, (args.s, args.t_min, args.t_max))):
        return "s, t_min and t_max must be finite"
    if args.points < 1:
        return "points must be >= 1"
    if not (args.t_max < 0.0):
        return "t-grid must be negative: t_max < 0"
    if args.points == 1:
        if args.t_min > args.t_max:
            return "t_min must be <= t_max"
    elif not (args.t_min < args.t_max):
        return "t_min must be < t_max"
    if not (args.s > 0.0):
        return "s must be positive"
    return _tolerance_problem(args)


def _run_setup(args):
    """The model, quadrature config and t-grid rows of a ``table`` or
    ``compare`` run.  A usage error or an unreadable model file exits
    with EXIT_USAGE."""
    problem = _run_problem(args)
    if problem is None:
        try:
            model = load_model(args.model)
        except ModelFileError as exc:
            problem = exc
    if problem is not None:
        print(f"eikamp {args.command}: {problem}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if args.points == 1:
        ts = [args.t_min]
    elif args.spacing == "linear":
        ts = np.linspace(args.t_min, args.t_max, args.points)
    else:
        ts = -np.geomspace(-args.t_min, -args.t_max, args.points)
    cfg = QuadratureConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    return model, cfg, [Kinematics(args.s, float(t)) for t in ts]


def _failed_row(t, exc):
    return [t] + [math.nan] * 11 + [f"failed: {exc}"]


def _cmd_table(args):
    model, cfg, kins = _run_setup(args)
    try:
        # A2 / s depends on neither s nor t: one build serves every row
        a2hat = _gated_build(model, args.s, cfg, args.override_chi_gate)
    except ChiGateError as exc:
        print(f"eikamp table: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except EikampError as exc:
        _emit(args, _TABLE_COLUMNS,
              [_failed_row(kin.t, exc) for kin in kins], "table")
        return EXIT_OK
    rows = []
    for kin, terms in zip(kins, _table_terms(model, kins, cfg, a2hat)):
        if isinstance(terms, EikampError):
            rows.append(_failed_row(kin.t, terms))
            continue
        amp = assemble_amplitude(terms)
        dsig = diff_cross_section(terms, kin)
        rows.append([kin.t, terms.a1.real, terms.a1.imag,
                     terms.a2.real, terms.a2.imag, terms.a3.real,
                     terms.a3.imag, amp.real, amp.imag, dsig,
                     terms.a2_error, terms.a3_error, "ok"])
    _emit(args, _TABLE_COLUMNS, rows, "table")
    return EXIT_OK


def _cmd_compare(args):
    model, cfg, kins = _run_setup(args)
    try:
        # the chi^4 allowance below needs the scanned peak, not a bound
        profile = build_profile(model, args.s, cfg,
                                override_chi_gate=args.override_chi_gate)
        a2hat = _A2Hat(model, cfg)
    except EikampError as exc:
        print(f"eikamp compare: {exc}", file=sys.stderr)
        return EXIT_FAIL
    devs, rows = [], []
    for kin, terms in zip(kins, _table_terms(model, kins, cfg, a2hat)):
        try:
            if isinstance(terms, EikampError):
                raise terms
            approx = assemble_amplitude(terms)
            direct = direct_eikonal_amplitude(model, kin, quad_cfg=cfg)
        except EikampError as exc:
            print(f"eikamp compare: t={kin.t:g}: {exc}", file=sys.stderr)
            return EXIT_FAIL
        dev = abs(approx - direct) / max(abs(direct), 1e-300)
        devs.append(dev)
        rows.append([kin.t, approx.real, approx.imag, direct.real,
                     direct.imag, dev])
    if args.out is not None or args.format == "json":
        _emit(args, _COMPARE_COLUMNS, rows, "compare")
    max_dev = max(devs)
    med_dev = float(np.median(devs))
    # chi^4 truncation allowance plus a quadrature-tolerance floor
    bound = 3.0 * profile.max_abs_chi ** 4 + 50.0 * args.rel_tol
    print(f"compare: {len(devs)} points, max deviation {max_dev:.3e}, "
          f"median {med_dev:.3e}, allowance {bound:.3e}")
    if max_dev > 10.0 * bound:
        print("compare: FAIL: deviation exceeds 10x the chi^4 allowance",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _cmd_selftest(_args):
    checks = []

    def check(name, got, want, tol):
        ok = abs(got - want) <= tol * max(abs(want), 1.0)
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {got:.12g} "
              f"(expected {want:.12g})")

    check("J0(0)", float(bessel_j0(0.0)), 1.0, 1e-15)
    check("J0(2.404825557695773) ~ first zero", float(bessel_j0(2.404825557695773)),
          0.0, 1e-13)
    check("K(0)", float(elliptic_k(0.0)), math.pi / 2.0, 1e-15)
    check("F3(3,4,5)", f3_eval(3, 4, 5), 1.0 / (12.0 * math.pi), 1e-14)
    check("F4(1,1,1,3) support-edge jump", f4_eval(1, 1, 1, 3),
          1.0 / (2.0 * math.pi * math.sqrt(3.0)), 1e-14)
    check("Weber integral (1,1,1)", weber_integral(1, 1, 1),
          0.32251763522457503, 1e-12)
    chi0, lam, s, t = 0.2, 1.0, 50.0, -1.0
    g = 4.0 * math.pi * chi0 / lam ** 2
    model = GaussianBorn(g, lam)
    kin = Kinematics(s, t)
    terms = compute_terms(model, kin, QuadratureConfig())
    a2_closed = -math.pi * s * chi0 ** 2 / lam ** 2 * math.exp(t / (4 * lam ** 2))
    check("Gaussian a2 vs closed form", terms.a2.real, a2_closed, 1e-6)
    a3_closed = -2.0 * math.pi * s * chi0 ** 3 / (9.0 * lam ** 2) \
        * math.exp(t / (6.0 * lam ** 2))
    check("Gaussian a3 vs closed form", terms.a3.imag, a3_closed, 1e-6)
    direct = direct_eikonal_amplitude(model, kin)
    series = gaussian_series_amplitude(g, lam, kin)
    check("direct oracle vs Gaussian series", abs(direct - series) / abs(series),
          0.0, 1e-6)
    if all(checks):
        print(f"selftest: all {len(checks)} checks passed")
        return EXIT_OK
    print(f"selftest: {checks.count(False)} of {len(checks)} checks FAILED",
          file=sys.stderr)
    return EXIT_FAIL


_COMMANDS = {"besselprod": _cmd_besselprod, "table": _cmd_table,
             "compare": _cmd_compare, "selftest": _cmd_selftest}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
