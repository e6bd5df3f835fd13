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
from dataclasses import dataclass

import numpy as np

from . import __version__
from .besselprod import (f3_eval, f4_classify, f4_eval, f5_eval, f6_eval,
                         delta3_sq, weber_integral)
from .eikonal import (_A2Hat, _gated_build, _table_terms, assemble_amplitude,
                      build_profile, compute_terms, diff_cross_section)
from .exceptions import (BoundaryCaseError, ChiGateError, EikampError,
                         ExtrapolationDivergenceError, ModelFileError,
                         NonConvergenceError)
from .models import GaussianBorn, Kinematics, load_model
from .oracle import direct_eikonal_amplitude, gaussian_series_amplitude
from .quadrature import QuadratureConfig
from .special import bessel_j0, elliptic_k

__all__ = ["RunSpec", "main"]

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


@dataclass(frozen=True)
class RunSpec:
    """Validated description of a table/compare run."""

    command: str
    model_path: str
    s: float
    t_min: float
    t_max: float
    count: int
    spacing: str
    rel_tol: float
    abs_tol: float
    fmt: str
    out: str | None
    override_chi_gate: bool = False

    def __post_init__(self):
        if not all(map(math.isfinite, (self.s, self.t_min, self.t_max))):
            raise ValueError("s, t_min and t_max must be finite")
        if self.count < 1:
            raise ValueError("points must be >= 1")
        if not (self.t_max < 0.0):
            raise ValueError("t-grid must be negative: t_max < 0")
        if self.count == 1:
            if self.t_min > self.t_max:
                raise ValueError("t_min must be <= t_max")
        elif not (self.t_min < self.t_max):
            raise ValueError("t_min must be < t_max")
        if self.spacing not in ("linear", "log"):
            raise ValueError("spacing must be linear or log")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if not (self.s > 0.0):
            raise ValueError("s must be positive")
        if not (0 < self.rel_tol < 1 and 0 < self.abs_tol < 1):
            raise ValueError("tolerances must be in (0, 1)")

    def t_grid(self):
        if self.count == 1:
            return np.array([self.t_min])
        if self.spacing == "linear":
            return np.linspace(self.t_min, self.t_max, self.count)
        return -np.geomspace(-self.t_min, -self.t_max, self.count)

    def quad_config(self):
        return QuadratureConfig(rel_tol=self.rel_tol, abs_tol=self.abs_tol)


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

def _cmd_besselprod(args):
    params = args.params
    n = len(params)
    if n < 2 or n > 6:
        print("eikamp besselprod: expected 2 to 6 parameters", file=sys.stderr)
        return EXIT_USAGE
    if any(not (v > 0.0 and math.isfinite(v)) for v in params):
        print("eikamp besselprod: parameters must be positive", file=sys.stderr)
        return EXIT_USAGE
    if n == 2:
        print("eikamp besselprod: the two-factor integral is not a number: "
              "int x J0(ax) J0(bx) dx = delta(a - b)/a, a delta distribution; "
              "smear one scale (n >= 3) to get a finite value",
              file=sys.stderr)
        return EXIT_USAGE
    if not (0 < args.rel_tol < 1 and 0 < args.abs_tol < 1):
        print("eikamp besselprod: tolerances must be in (0, 1)",
              file=sys.stderr)
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
    except ExtrapolationDivergenceError as exc:
        print(f"eikamp besselprod: divergent: {exc}", file=sys.stderr)
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


def _emit(spec, columns, rows, header_kind):
    """Serialize rows (lists matching columns) as CSV or JSON; numbers are
    written with full round-trip precision in both formats."""
    if spec.fmt == "csv":
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
            "s": spec.s,
            "rows": [{c: _json_number(v) for c, v in zip(columns, row)}
                     for row in rows],
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if spec.out is None:
        sys.stdout.write(text)
    else:
        with open(spec.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _spec_from_args(args, command):
    try:
        return RunSpec(command=command, model_path=args.model, s=args.s,
                       t_min=args.t_min, t_max=args.t_max, count=args.points,
                       spacing=args.spacing, rel_tol=args.rel_tol,
                       abs_tol=args.abs_tol, fmt=args.format, out=args.out,
                       override_chi_gate=args.override_chi_gate)
    except ValueError as exc:
        print(f"eikamp {command}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _load_model_or_exit(spec):
    try:
        return load_model(spec.model_path)
    except ModelFileError as exc:
        print(f"eikamp {spec.command}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _failed_row(t, exc):
    return [float(t)] + [math.nan] * 11 + [f"failed: {exc}"]


def _cmd_table(args):
    spec = _spec_from_args(args, "table")
    model = _load_model_or_exit(spec)
    cfg = spec.quad_config()
    try:
        # A2 / s depends on neither s nor t: one build serves every row
        a2hat = _gated_build(model, spec.s, cfg, spec.override_chi_gate)
    except ChiGateError as exc:
        print(f"eikamp table: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except EikampError as exc:
        _emit(spec, _TABLE_COLUMNS,
              [_failed_row(t, exc) for t in spec.t_grid()], "table")
        return EXIT_OK
    rows = []
    kins = [Kinematics(spec.s, float(t)) for t in spec.t_grid()]
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
    _emit(spec, _TABLE_COLUMNS, rows, "table")
    return EXIT_OK


def _cmd_compare(args):
    spec = _spec_from_args(args, "compare")
    model = _load_model_or_exit(spec)
    cfg = spec.quad_config()
    try:
        # the chi^4 allowance below needs the scanned peak, not a bound
        profile = build_profile(model, spec.s, cfg,
                                override_chi_gate=spec.override_chi_gate)
        a2hat = _A2Hat(model, cfg)
    except EikampError as exc:
        print(f"eikamp compare: {exc}", file=sys.stderr)
        return EXIT_FAIL
    devs, rows = [], []
    kins = [Kinematics(spec.s, float(t)) for t in spec.t_grid()]
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
    if spec.out is not None or spec.fmt == "json":
        _emit(spec, _COMPARE_COLUMNS, rows, "compare")
    max_dev = max(devs)
    med_dev = float(np.median(devs))
    # chi^4 truncation allowance plus a quadrature-tolerance floor
    bound = 3.0 * profile.max_abs_chi ** 4 + 50.0 * spec.rel_tol
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


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "besselprod":
        return _cmd_besselprod(args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_selftest(args)


if __name__ == "__main__":
    sys.exit(main())
