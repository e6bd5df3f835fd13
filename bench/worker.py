"""One workload run in a fresh interpreter; started by bench/run.py.

Warms up, repeats whole rounds of the workload's operations until
``--seconds`` have passed, then checks every output against
bench/references.py outside the timed region.  With ``--trace 1`` it
also runs one round under bench/spans.py.  The last line of standard
output is a JSON object for bench/run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads as W
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "bench" / "results"


def _import_eikamp():
    import eikamp
    import eikamp.cli
    import eikamp.special

    where = Path(eikamp.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"eikamp imported from {where}, not from {ROOT}/src")
    return eikamp


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rounds(seconds, round_fn):
    """Run whole rounds until ``seconds`` have passed (at least one).
    Returns [(wall seconds, round result), ...]."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        res = round_fn()
        out.append((time.perf_counter() - t0, res))
        if time.perf_counter() - start >= seconds:
            return out


def _ns_per_point(fn, x, reps=5):
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(x)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) / x.size * 1e9


def _standalone(eikamp, draws):
    """Throughput of single layers on fixed inputs."""
    rng = np.random.default_rng(20151106)
    k = rng.uniform(0.0, 0.999, 1_000_000)
    x = rng.uniform(0.0, 60.0, 1_000_000)
    closed = draws.orders(3, 4)
    walls = []
    for _ in range(5):
        _, secs, _ = W.run_moments(eikamp, closed)
        walls.append(secs[3] + secs[4])
    n34 = closed.count
    return {
        "special.k_ns_per_point": _ns_per_point(eikamp.special.elliptic_k, k),
        "special.j0_ns_per_point": _ns_per_point(eikamp.special.bessel_j0, x),
        "besselprod.f3f4_us_per_call": statistics.median(walls) / n34 * 1e6,
    }


# ---------------------------------------------------------------------------
# table workloads
# ---------------------------------------------------------------------------

class _ReducedCounter:
    """Counts the q-points passed to the model class's ``reduced``."""

    def __init__(self, cls):
        self.cls, self.original, self.points = cls, vars(cls)["reduced"], 0
        counter = self

        def counted(model, q):
            counter.points += np.size(q)
            return counter.original(model, q)

        cls.reduced = counted

    def remove(self):
        self.cls.reduced = self.original


def run_table_workload(eikamp, name, model_path, seconds, trace, seed):
    spec = W.TABLES[name]
    model_cls = type(eikamp.load_model(model_path))
    counter = _ReducedCounter(model_cls)
    # warm-up: the same path at a loose tolerance
    W.run_table(eikamp, spec, model_path, rel_tol=1e-2, abs_tol=1e-6,
                points=1)

    def one_round():
        counter.points = 0
        code, text = W.run_table(eikamp, spec, model_path)
        return code, text, counter.points

    rounds = _rounds(seconds, one_round)
    peak = _peak_rss_mb()
    counter.remove()
    walls = [w for w, _ in rounds]
    outputs = [r for _, r in rounds]
    result = {"wall_s": statistics.median(walls),
              "evals": statistics.median(r[2] for r in outputs),
              "peak_rss_mb": peak}

    if trace:
        (code, text), tracer, layers = _traced_round(
            lambda: W.run_table(eikamp, spec, model_path),
            f"{name}-{seed}", result["wall_s"])
        layers.update(_standalone(eikamp, W.moment_draws(seed)))
        # the table workloads make no F5/F6 calls
        layers.update({"besselprod.f5_s": 0.0, "besselprod.f6_s": 0.0,
                       "besselprod.f5_evals": 0.0,
                       "besselprod.f6_evals": 0.0})
        points = layers["models.reduced_points"]
        outputs.append((code, text, outputs[0][2] if points is None
                        else int(points)))
        result["layers"] = layers
        result["missing"] = tracer.missing

    # ---- checks, outside the timed region --------------------------------
    failures = []
    codes = {r[0] for r in outputs}
    if codes != {0}:
        failures.append(f"eikamp table exit codes {sorted(codes)}")
    if len({r[1] for r in outputs}) != 1:
        failures.append("table output differs between rounds")
    if len({r[2] for r in outputs}) != 1:
        failures.append("evaluation count differs between rounds")
    failed = 0
    try:
        rows = json.loads(outputs[0][1])["rows"]
    except (ValueError, KeyError) as exc:
        rows = []
        failures.append(f"unreadable table output: {exc}")
        failed = spec.points * len(outputs)
    else:
        failed = sum(r["status"] != "ok" for r in rows) * len(outputs)
        t_grid = np.linspace(spec.t_min, spec.t_max, spec.points).tolist()
        failures += checks.check_rows(rows, t_grid)
        good = [r for r in rows if r["status"] == "ok"]
        if name == "gauss-table":
            failures += checks.check_gauss_rows(good, spec)
        else:
            refs = {r["t"]: checks.tabulated_reference(r["t"]) for r in good}
            failures += checks.check_tabulated_rows(good, spec, refs)
    result.update(attempted=spec.points * len(outputs), failed=failed,
                  failures=failures)
    return result


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def run_moments_workload(eikamp, seconds, trace, seed):
    draws = W.moment_draws(seed)
    W.run_moments(eikamp, draws.head(10))  # warm-up

    def one_round():
        return W.run_moments(eikamp, draws)

    rounds = _rounds(seconds, one_round)
    peak = _peak_rss_mb()
    walls = [w for w, _ in rounds]
    outputs = [r for _, r in rounds]
    result = {"wall_s": statistics.median(walls),
              "evals": statistics.median(W.moment_evals(r[0])
                                         for r in outputs),
              "peak_rss_mb": peak}

    if trace:
        traced, tracer, layers = _traced_round(
            one_round, f"moments-{seed}", result["wall_s"])
        outputs.append(traced)
        values, secs, _ = traced
        layers.update(_standalone(eikamp, draws))
        layers.update({
            "besselprod.f5_s": secs[5],
            "besselprod.f6_s": secs[6],
            "besselprod.f5_evals": float(sum(
                r.evaluations for r in values[5] if r is not None)),
            "besselprod.f6_evals": float(sum(
                r.evaluations for r in values[6] if r is not None)),
        })
        result["layers"] = layers
        result["missing"] = tracer.missing

    # ---- checks, outside the timed region --------------------------------
    failures = []
    first = outputs[0][0]
    for values, _, _ in outputs[1:]:
        if values != first:
            failures.append("moment values differ between rounds")
            break
    permuted, _, _ = W.run_moments(eikamp, draws, "perms")
    failures += checks.check_moments(draws, first, permuted)
    result.update(attempted=draws.count * len(outputs),
                  failed=sum(r[2] for r in outputs), failures=failures)
    return result


def _traced_round(round_fn, label, untraced_wall):
    """One round under the tracer, its spans saved.  Returns (round
    result, tracer, per-layer metrics with the tracing overhead against
    the median untraced round)."""
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        out = round_fn()
    finally:
        wall = time.perf_counter() - t0
        tracer.remove()
    tracer.save(RESULTS / f"trace-{label}.npz")
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = wall - untraced_wall
    layers["trace.spans"] = float(len(tracer.kind))
    return out, tracer, layers


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--model", default=None)
    args = p.parse_args(argv)
    eikamp = _import_eikamp()
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.workload == "moments":
        result = run_moments_workload(eikamp, args.seconds, args.trace,
                                      args.seed)
    else:
        result = run_table_workload(eikamp, args.workload, args.model,
                                    args.seconds, args.trace, args.seed)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
