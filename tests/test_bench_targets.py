"""The benchmark's tracer wraps eikamp functions by name.

``bench/spans.py`` lists in ``_TARGETS`` the module-level names through
which one layer calls the next, and wraps every Born model class's
``reduced``.  A name that no longer resolves turns its per-layer metrics
into nulls without failing anything, so a refactor that renames or
moves one of them must fail here instead.
"""

import importlib.util
import sys
from pathlib import Path

import eikamp.eikonal
import eikamp.models
from eikamp.models import GaussianBorn, Kinematics
from eikamp.quadrature import QuadratureConfig

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _bench_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_name_resolves():
    targets = _bench_spans()._TARGETS
    assert targets
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if not callable(getattr(sys.modules.get(mod), attr, None))]
    assert not missing, f"names the bench tracer cannot find: {missing}"


def test_every_born_model_defines_reduced():
    base = eikamp.models.BornModel
    classes = [c for c in vars(eikamp.models).values()
               if isinstance(c, type) and issubclass(c, base) and c is not base]
    assert classes
    for cls in classes:
        assert "reduced" in vars(cls), cls.__name__


def test_traced_a3_fills_every_layer_metric():
    # a refactor that calls round a wrapped name leaves its metrics at
    # zero without removing the name; one traced Gaussian A3 must feed
    # every metric, every block, and count each kernel point once
    tracer = _bench_spans().Tracer()
    tracer.install()
    try:
        _value, _err, inner = eikamp.eikonal._a3_g_route(
            GaussianBorn(g=2.51, lam=1.0), Kinematics(s=50.0, t=-1.0),
            QuadratureConfig(rel_tol=1e-3))
    finally:
        tracer.remove()
    metrics = tracer.layer_metrics()
    assert [m for m, v in metrics.items() if v is None] == []
    for k in range(1, 6):
        assert metrics[f"eikonal.a3_block{k}_points"] > 0
    assert metrics["besselprod.g_points"] == inner
    assert metrics["quadrature.unconverged_inner"] == 0
