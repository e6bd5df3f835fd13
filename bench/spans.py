"""Per-layer trace, installed from outside the program.

The tracer replaces, at run time, the module-level names through which
one layer of eikamp calls the next, with wrappers that record a span
(kind, parent, start, end, points) per call.  Spans are kept in memory in
flat arrays; a span's self time is its duration less the durations of
its child spans.  A name that no longer exists is reported, and the
metrics it feeds come out absent.

Layers and the names wrapped:

  special      eikamp.*._elliptic_k_core               span special.k
  besselprod   eikamp.*._g_values                      span besselprod.g
  models       <model class>.reduced                   span models.reduced
  quadrature   eikamp.*._solve_batched                 span quadrature.solve
               eikamp.quadrature._eval_segments        span quadrature.wave
               the integrand handed to _solve_batched  span quadrature.integrand
  eikonal      eikamp.*.build_profile                  span eikonal.gate
               eikamp.eikonal._a2_with_error           span eikonal.a2
               eikamp.eikonal._a3_with_error           span eikonal.a3
               eikamp.eikonal._a3_block                span eikonal.a3_block<k>
               eikamp.eikonal._x3_breakpoints          span eikonal.x3_breakpoints

"eikamp.*" means every eikamp module that holds the same function under
that name, so calls from every layer are seen.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module holding the original, attribute) -> span kind
_TARGETS = {
    ("eikamp.besselprod", "_elliptic_k_core"): "special.k",
    ("eikamp.eikonal", "_g_values"): "besselprod.g",
    ("eikamp.quadrature", "_solve_batched"): "quadrature.solve",
    ("eikamp.quadrature", "_eval_segments"): "quadrature.wave",
    ("eikamp.eikonal", "build_profile"): "eikonal.gate",
    ("eikamp.eikonal", "_a2_with_error"): "eikonal.a2",
    ("eikamp.eikonal", "_a3_with_error"): "eikonal.a3",
    ("eikamp.eikonal", "_a3_block"): "eikonal.a3_block",
    ("eikamp.eikonal", "_x3_breakpoints"): "eikonal.x3_breakpoints",
}
_N_BLOCKS = 5

# per-layer metric -> (unit, span kind it needs)
LAYER_METRICS = {
    "special.k_points": ("count", "special.k"),
    "special.k_self_s": ("s", "special.k"),
    "besselprod.g_points": ("count", "besselprod.g"),
    "besselprod.g_self_s": ("s", "besselprod.g"),
    "models.reduced_points": ("count", "models.reduced"),
    "models.reduced_self_s": ("s", "models.reduced"),
    "quadrature.points_outer": ("count", "quadrature.solve"),
    "quadrature.points_middle": ("count", "quadrature.solve"),
    "quadrature.points_inner": ("count", "quadrature.solve"),
    "quadrature.waves": ("count", "quadrature.wave"),
    "quadrature.bookkeeping_self_s": ("s", "quadrature.solve"),
    "quadrature.unconverged_inner": ("count", "quadrature.solve"),
    "eikonal.gate_calls": ("count", "eikonal.gate"),
    "eikonal.gate_s": ("s", "eikonal.gate"),
    "eikonal.a2_s": ("s", "eikonal.a2"),
    "eikonal.a3_s": ("s", "eikonal.a3"),
    "eikonal.x3_breakpoints_s": ("s", "eikonal.x3_breakpoints"),
    **{f"eikonal.a3_block{k}_s": ("s", "eikonal.a3_block")
       for k in range(1, _N_BLOCKS + 1)},
    **{f"eikonal.a3_block{k}_points": ("count", "eikonal.a3_block")
       for k in range(1, _N_BLOCKS + 1)},
}


class Tracer:
    """Spans of one traced region; ``install`` patches, ``remove``
    restores every patched name."""

    def __init__(self):
        self.kinds = []
        self._kind_ids = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.depth = array("b")
        self._stack = []
        self._solve_depth = 0
        self._block = 0
        self._block_ordinal = 0
        self._block_points = [0] * (_N_BLOCKS + 1)
        self.unconverged_inner = 0
        self._patches = []
        self.missing = []
        self._missing_kinds = set()

    # -- spans ------------------------------------------------------------

    def _kind_id(self, name):
        if name not in self._kind_ids:
            self._kind_ids[name] = len(self.kinds)
            self.kinds.append(name)
        return self._kind_ids[name]

    def _open(self, kid, points=0):
        i = len(self.kind)
        self.kind.append(kid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.points.append(points)
        self.depth.append(self._solve_depth)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, points_arg=None):
        kid = self._kind_id(name)
        tracer = self

        def traced(*args, **kwargs):
            pts = np.size(args[points_arg]) if points_arg is not None else 0
            i = tracer._open(kid, pts)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return traced

    def _wrap_solve(self, fn):
        kid = self._kind_id("quadrature.solve")
        integrand_kid = self._kind_id("quadrature.integrand")
        tracer = self

        def traced(f, *args, **kwargs):
            def integrand(tids, x):
                n = np.size(x)
                if tracer._block:
                    tracer._block_points[tracer._block] += n
                i = tracer._open(integrand_kid, n)
                try:
                    return f(tids, x)
                finally:
                    tracer._close(i)

            tracer._solve_depth += 1
            i = tracer._open(kid)
            try:
                result = fn(integrand, *args, **kwargs)
            finally:
                tracer._close(i)
                tracer._solve_depth -= 1
            if tracer._solve_depth >= 1:
                tracer.unconverged_inner += int(np.size(result[3])
                                                - np.count_nonzero(result[3]))
            return result

        return traced

    def _wrap_a3(self, fn):
        inner = self._wrap(fn, "eikonal.a3")
        tracer = self

        def traced(*args, **kwargs):
            tracer._block_ordinal = 0
            return inner(*args, **kwargs)

        return traced

    def _wrap_block(self, fn):
        kids = [self._kind_id(f"eikonal.a3_block{k}")
                for k in range(1, _N_BLOCKS + 1)]
        tracer = self

        def traced(*args, **kwargs):
            tracer._block_ordinal += 1
            k = min(tracer._block_ordinal, _N_BLOCKS)
            outer, tracer._block = tracer._block, k
            i = tracer._open(kids[k - 1])
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)
                tracer._block = outer

        return traced

    # -- patching ---------------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        """Replace ``original`` under every eikamp module name bound to
        it."""
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("eikamp") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def install(self):
        import eikamp.models

        for (mod_name, attr), name in _TARGETS.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                self._missing_kinds.add(name)
                continue
            if name == "quadrature.solve":
                wrapper = self._wrap_solve(original)
            elif name == "eikonal.a3":
                wrapper = self._wrap_a3(original)
            elif name == "eikonal.a3_block":
                wrapper = self._wrap_block(original)
            elif name in ("special.k", "besselprod.g"):
                wrapper = self._wrap(original, name, points_arg=0)
            else:
                wrapper = self._wrap(original, name)
            self._patch_everywhere(original, wrapper)

        base = getattr(eikamp.models, "BornModel", None)
        classes = [c for c in vars(eikamp.models).values()
                   if isinstance(c, type) and base is not None
                   and issubclass(c, base) and c is not base
                   and "reduced" in vars(c)]
        if not classes:
            self.missing.append("eikamp.models.BornModel.reduced")
            self._missing_kinds.add("models.reduced")
        for cls in classes:
            original = vars(cls)["reduced"]
            self._patches.append((cls, "reduced", original))
            setattr(cls, "reduced",
                    self._wrap(original, "models.reduced", points_arg=1))

    def remove(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def save(self, path):
        """Write every span to an .npz file."""
        np.savez_compressed(
            path, kinds=np.array(self.kinds), kind=np.asarray(self.kind),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end), points=np.asarray(self.points),
            depth=np.asarray(self.depth))

    def durations(self):
        return np.asarray(self.end) - np.asarray(self.start)

    def self_times(self):
        """Each span's duration less the durations of its child spans."""
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = self.durations()
        has_parent = parent >= 0
        return dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)

    def layer_metrics(self):
        """Every LAYER_METRICS name -> value, or None where the name the
        metric needs was not found."""
        kind = np.asarray(self.kind, dtype=np.int64)
        dur = self.durations()
        self_time = self.self_times()
        points = np.asarray(self.points, dtype=np.int64)
        depth = np.asarray(self.depth, dtype=np.int64)

        def of(name):
            kid = self._kind_ids.get(name)
            return kind == kid if kid is not None else np.zeros_like(kind,
                                                                     bool)

        integrand = of("quadrature.integrand")
        engine = of("quadrature.solve") | of("quadrature.wave")
        values = {
            "special.k_points": points[of("special.k")].sum(),
            "special.k_self_s": self_time[of("special.k")].sum(),
            "besselprod.g_points": points[of("besselprod.g")].sum(),
            "besselprod.g_self_s": self_time[of("besselprod.g")].sum(),
            "models.reduced_points": points[of("models.reduced")].sum(),
            "models.reduced_self_s": self_time[of("models.reduced")].sum(),
            "quadrature.points_outer": points[integrand & (depth == 1)].sum(),
            "quadrature.points_middle": points[integrand & (depth == 2)].sum(),
            "quadrature.points_inner": points[integrand & (depth >= 3)].sum(),
            "quadrature.waves": of("quadrature.wave").sum(),
            "quadrature.bookkeeping_self_s": self_time[engine].sum(),
            "quadrature.unconverged_inner": self.unconverged_inner,
            "eikonal.gate_calls": of("eikonal.gate").sum(),
            "eikonal.gate_s": dur[of("eikonal.gate")].sum(),
            "eikonal.a2_s": dur[of("eikonal.a2")].sum(),
            "eikonal.a3_s": dur[of("eikonal.a3")].sum(),
            "eikonal.x3_breakpoints_s": dur[of("eikonal.x3_breakpoints")].sum(),
        }
        for k in range(1, _N_BLOCKS + 1):
            values[f"eikonal.a3_block{k}_s"] = dur[of(f"eikonal.a3_block{k}")].sum()
            values[f"eikonal.a3_block{k}_points"] = self._block_points[k]
        return {metric: (None if needs in self._missing_kinds
                         else float(values[metric]))
                for metric, (_unit, needs) in LAYER_METRICS.items()}
