"""Fast tests of the benchmark itself: tiny runs of every workload, and faults the checks catch.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
import workloads as W  # noqa: E402
from listboost import compression, core, hedge, recursive  # noqa: E402
from listboost.errors import NonDeterministicLearner  # noqa: E402

RUN = [sys.executable, str(BENCH / "run.py")]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    done = subprocess.run(RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.1",
                                 "--trace", str(trace), "--tiny"],
                          capture_output=True, text=True, timeout=120, cwd=BENCH.parent)
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= W.WORKLOADS[workload].batch
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_same_seed_gives_same_inputs():
    for name, wl in W.WORKLOADS.items():
        size = W.TINY_SIZES[name]
        a, b = wl.inputs(5, size)[0], wl.inputs(5, size)[0]
        assert a.dataset.examples == b.dataset.examples, name


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "boost-erm",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_record_with_one_altered_index_fails_replay(tmp_path):
    inp = W.build_boost_erm(0, 0, W.TINY_SIZES["boost-erm"])
    ds, learner = inp.dataset, inp.spec.learner
    trained = recursive.recursive_boost(ds, inp.spec, inp.config)
    path = tmp_path / "record.json"
    trained.record.dump(path)
    obj = json.loads(path.read_text())
    slot = obj["groups"][0]["slots"][0]  # the hint's first round trains on these
    universal = core.ListFunction.universal(ds.alphabet)

    def predictions(indices):
        return learner.train(ds.subset(indices), universal).predictions_for(ds)

    original = predictions(slot["indices"])
    for j in range(ds.m):
        if not np.array_equal(predictions([j] + slot["indices"][1:]), original):
            break
    else:
        pytest.fail("no one-index change of the first hint sample changes its hypothesis")
    slot["indices"][0] = j
    path.write_text(json.dumps(obj))
    with pytest.raises(NonDeterministicLearner):
        compression.reconstruct(compression.CompressionRecord.load(path), ds, inp.spec)


class _LyingPredictor:
    """A trained booster that answers one training instance with a wrong label."""

    def __init__(self, inner, instance, n_labels):
        self._inner, self._instance, self._n = inner, instance, n_labels

    def predict(self, x):
        y = self._inner.predict(x)
        return (y + 1) % self._n if x == self._instance else y

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_predictor_wrong_on_one_training_instance_fails_consistency(tmp_path):
    wl = W.WORKLOADS["boost-erm"]
    inp = wl.inputs(0, W.TINY_SIZES["boost-erm"])[0]
    out = wl.run(inp, W.Clock(), tmp_path / "record.json")
    assert wl.check(inp, out) == []
    ds = inp.dataset
    out.data["trained"] = _LyingPredictor(out.data["trained"], ds.instances[0],
                                          len(ds.alphabet))
    problems = wl.check(inp, out)
    assert any(p.startswith("prediction differs from the label") for p in problems)


def test_tracer_restores_every_wrapped_attribute():
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans._targets()]
    original_run_hedge = hedge.run_hedge
    tracer = spans.Tracer()
    tracer.install()
    assert hedge.run_hedge is not original_run_hedge
    tracer.uninstall()
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr
