"""The eikamp benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload in turn
    python3 bench/run.py --write-spec    # rewrite BENCHMARK.json

Each run measures set-up in fresh interpreters (bench/setup_probe.py),
then runs the workload in one more fresh interpreter (bench/worker.py),
which repeats whole rounds for the given seconds and checks every output
against references computed apart from eikamp.  Every metric is printed
by name with its unit; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The program is run from the checkout's src/; without it the benchmark
exits with code 2 and prints no result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

RUN_SECONDS = 12
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 160

WORKLOADS = {
    "gauss-table": "Gaussian model at default tolerance: A3's kernel G, "
                   "elliptic K and the nested engine do the work; chi is "
                   "closed and the model is one exponential",
    "tabulated-table": "5-node PCHIP table at rel 1e-3: model evaluation, "
                       "kinks, envelope-driven caps and the gate's J0 "
                       "quadrature, which gauss-table bypasses",
    "moments": "seeded F3..F6 draws incl. vanishing ones: thousands of "
               "small un-nested 1D solves where per-call bookkeeping "
               "dominates",
}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "evals", "unit": "count", "better": "lower", "bound": 0.1},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

PER_LAYER_EXTRA = {
    "special.k_ns_per_point": "ns",
    "special.j0_ns_per_point": "ns",
    "besselprod.f3f4_us_per_call": "us",
    "besselprod.f5_s": "s",
    "besselprod.f6_s": "s",
    "besselprod.f5_evals": "count",
    "besselprod.f6_evals": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def per_layer_units():
    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    units.update(PER_LAYER_EXTRA)
    return units


def spec():
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in per_layer_units().items()],
    }


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # nproc is 2: keep BLAS/OpenMP from spreading the engine's y @ W
    # products over threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _model_file(name):
    if name not in workloads.TABLES:
        return None
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{name}.ini"
    path.write_text(workloads.TABLES[name].model_ini, encoding="utf-8")
    return str(path)


def _setup_seconds(name, model, env):
    """Fresh interpreter to 'ready' from bench/setup_probe.py."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), name]
    if model:
        cmd.append(model)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up of {name} failed (exit {code})")
    return elapsed


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns the result object."""
    env = _env()
    model = _model_file(name)
    setup = [] if trace else [_setup_seconds(name, model, env)
                              for _ in range(SETUP_REPEATS)]
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if model:
        cmd += ["--model", model]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    if trace:
        units = per_layer_units()
        metrics = {n: {"value": out["layers"].get(n), "unit": u}
                   for n, u in units.items()}
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": out["wall_s"],
                  "evals": out["evals"], "peak_rss_mb": out["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in END_TO_END}
    for msg in out["failures"]:
        print(f"CHECK FAILED [{name}]: {msg}")
    for missing in out.get("missing", []):
        print(f"absent [{name}]: {missing} not found; its metrics are null")
    for n, m in metrics.items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name}  {n} = {shown} {m['unit']}")
    if trace:
        print(f"{name}  tracing overhead = "
              f"{out['layers']['trace.overhead_s']:.3f} s over an untraced "
              f"wall_s of {out['wall_s']:.3f} s")
    return {"correct": not out["failures"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if args.write_spec:
        text = json.dumps(spec(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if not (ROOT / "src" / "eikamp" / "__init__.py").is_file():
        print(f"bench: no eikamp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 3
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        for name, res in results.items():
            fh.write(json.dumps({"workload": name, "seed": args.seed,
                                 "seconds": args.seconds,
                                 "trace": args.trace, **res}) + "\n")
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
