"""Every name the benchmark tracer wraps still exists where it looks it up.

``bench/spans.py`` replaces module attributes and class methods by name, and
``Tracer.install`` fails on the first one that is missing. A rename or a
deleted re-export in the package would otherwise surface only when a traced
benchmark runs.
"""

import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_spans()._targets()
    assert targets
    missing = []
    for owner, attr, name, _hook in targets:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr} ({name})")
    assert not missing, f"bench/spans.py wraps names that no longer exist: {missing}"
