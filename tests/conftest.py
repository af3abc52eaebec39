import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from listboost.core import make_dataset
from listboost.oig import FiniteClass


@pytest.fixture
def counterexample_dataset():
    return make_dataset([("a", 0), ("b", 1), ("c", 2)], alphabet=(0, 1, 2))


def bench_workloads(monkeypatch):
    """The benchmark's workload module, for its seeded input builders and sizes."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def build_class(rows, columns=None, alphabet=None):
    rows = [tuple(r) for r in rows]
    columns = columns if columns is not None else tuple(range(len(rows[0])))
    return FiniteClass.from_rows(rows, columns, alphabet=alphabet)


@pytest.fixture
def catalog():
    """Tiny classes with hand-derived graph and dimension values."""
    return {
        "point1": build_class([(0,), (1,)]),
        "cube2": build_class(list(itertools.product((0, 1), (0, 1)))),
        "single": build_class([(0, 1, 2)], alphabet=(0, 1, 2)),
        "tri1": build_class([(0,), (1,), (2,)]),
        "hexagon": build_class([(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)]),
        "grid9": build_class(list(itertools.product((0, 1, 2), (0, 1, 2)))),
    }


def planted_dataset(fc, m, seed, target_row=0):
    """m draws over the class columns labeled by the target row."""
    gen = np.random.default_rng(seed)
    xs = gen.integers(0, fc.n, size=m)
    pairs = [(fc.columns[int(x)], int(fc.table[target_row, int(x)])) for x in xs]
    return make_dataset(pairs, alphabet=fc.alphabet)
