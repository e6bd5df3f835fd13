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

import eikamp.models

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _bench_targets():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod._TARGETS


def test_every_wrapped_name_resolves():
    targets = _bench_targets()
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
