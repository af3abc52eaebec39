"""Weak <-> list learner conversions and the fixed-size list booster."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from listboost import (
    ErmFiniteLearner,
    ErmListLearner,
    InsufficientData,
    InvalidGamma,
    InvalidParams,
    ListDerivedWeakLearner,
    NonDeterministicLearner,
    PhaseFailure,
    RandomStream,
    TooWeakLearner,
    WeakLearnerSpec,
    evaluate_list_error,
    list_boost,
    list_to_weak,
    replay_weak_to_list,
    smallest_k,
    weak_to_list,
)
from listboost.core import make_dataset
from listboost.listlearn import conversion_budgets
from tests.conftest import bench_workloads, build_class, planted_dataset


def test_smallest_k_frozen_values():
    assert smallest_k(0.3) == 4
    assert smallest_k(0.6) == 2
    assert smallest_k(0.5) == 3
    assert smallest_k(0.25) == 5
    assert smallest_k(1.0) == 2


@given(st.floats(min_value=1e-3, max_value=1.0, allow_nan=False))
def test_smallest_k_is_tight(gamma):
    k = smallest_k(gamma)
    assert 1.0 / k < gamma
    assert k == 2 or 1.0 / (k - 1) >= gamma


def test_smallest_k_rejects_bad_gamma():
    with pytest.raises(InvalidGamma):
        smallest_k(0.0)
    with pytest.raises(InvalidGamma):
        smallest_k(1.5)


def test_conversion_params_frozen():
    # Recomputed by hand for gamma=0.3, eps=0.05, delta=0.02: k=4,
    # q=ceil(8 ln 100), r_val=ceil(10 ln(2q/delta) / (eps/k)^2).
    assert smallest_k(0.3) == 4
    assert conversion_budgets(4, 0.05, 0.02) == (37, 525830)

    assert smallest_k(0.4) == 3
    assert conversion_budgets(3, 0.1, 0.02)[0] == 28


def test_conversion_params_validation():
    fc = build_class([(0, 1, 0), (1, 1, 0)], alphabet=(0, 1))
    ds = planted_dataset(fc, m=20, seed=2)
    for epsilon, delta in ((0.5, 0.1), (0.1, 1.0)):
        with pytest.raises(InvalidParams):
            list_to_weak(ds, ErmListLearner(fc, k=1), k=1, epsilon=epsilon, delta=delta,
                         rng=RandomStream(0, ("l2w",)))


@pytest.fixture
def planted():
    rows = [(0, 1, 0, 2), (1, 1, 0, 2), (0, 0, 2, 1)]
    fc = build_class(rows, alphabet=(0, 1, 2))
    return fc, planted_dataset(fc, m=30, seed=17)


def test_weak_to_list_sizes_and_coverage(planted):
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=ds.m)
    res = weak_to_list(ds, spec, gamma=0.6, seed=4)
    assert res.k == 2 and res.sigma == pytest.approx(0.1)
    assert res.consistent_on_train
    assert res.mu.declared_size == 1
    for ex in ds.examples:
        lst = res.predict_list(ex.instance)
        assert 1 <= len(lst) <= res.k - 1
        assert ex.label in lst
    assert evaluate_list_error(res.mu, ds) == 0.0


def test_weak_to_list_replay_and_tamper(planted):
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=8)
    res = weak_to_list(ds, spec, gamma=0.6, T=40, seed=9)
    rep = replay_weak_to_list(res.record, ds, spec)
    for x in ds.unique_instances:
        assert rep.mu(x) == res.mu(x)

    loaded = type(res.record).from_json_dict(res.record.to_json_dict())
    slots = loaded.group("rounds").slots
    last = len(slots) - 1
    slots[last] = type(slots[last])(slot=last, indices=slots[last].indices, pred_hash="bad")
    with pytest.raises(NonDeterministicLearner):
        replay_weak_to_list(loaded, ds, spec)

    del slots[last:]
    with pytest.raises(InvalidParams, match="rounds"):
        replay_weak_to_list(loaded, ds, spec)


def test_weak_to_list_replay_rejects_an_edited_m0(planted):
    # Every round draws m0 indices, so an m0 that is not the recorded
    # samples' length is refused before any round is replayed.
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=8)
    res = weak_to_list(ds, spec, gamma=0.6, T=40, seed=9)
    loaded = type(res.record).from_json_dict(res.record.to_json_dict())
    loaded.meta["m0"] = 3
    with pytest.raises(InvalidParams, match="round 1 has 8 indices, not m0=3"):
        replay_weak_to_list(loaded, ds, spec)


@pytest.mark.parametrize("key,value", [("k", 3), ("k", 4), ("sigma", 0.2)])
def test_weak_to_list_replay_derives_k_and_sigma_from_gamma(planted, key, value):
    # gamma = 0.6 gives k = 2 and sigma = 0.6 - 1/2; an edited k or sigma is
    # refused, not reported back as the replayed result's own.
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=8)
    res = weak_to_list(ds, spec, gamma=0.6, T=40, seed=9)
    loaded = type(res.record).from_json_dict(res.record.to_json_dict())
    loaded.meta[key] = value
    derived = {"k": 2, "sigma": 0.6 - 1 / 2}[key]
    with pytest.raises(InvalidParams, match=re.escape(
            f"meta key {key!r} (replayed {derived!r}, recorded {value!r})")):
        replay_weak_to_list(loaded, ds, spec)


def test_weak_to_list_fails_without_edge(counterexample_dataset):
    ds = counterexample_dataset
    spec = WeakLearnerSpec(TooWeakLearner(), m0=ds.m)
    with pytest.raises(PhaseFailure) as exc:
        weak_to_list(ds, spec, gamma=0.6, T=30, seed=1)
    assert exc.value.phase == 1


def test_erm_list_learner_orders_by_sample_accuracy(planted):
    fc, ds = planted
    mu = ErmListLearner(fc, k=2).train(ds)
    # The planted row (row index of (0,1,0,2) after table sorting) wins every
    # sample point, so it must occupy the first list slot at every instance.
    for ex in ds.examples:
        assert mu(ex.instance)[0] == ex.label
        assert len(mu(ex.instance)) <= 2


def test_list_to_weak_frozen_counts():
    # q = ceil(2 ln(2/0.3)) = 4, r_val = ceil(10 ln(8/0.3) / 0.4^2) = 206.
    fc = build_class([(0, 1, 0), (1, 1, 0)], alphabet=(0, 1))
    ds = planted_dataset(fc, m=4 * 2 + 206, seed=2)
    out = list_to_weak(ds, ErmListLearner(fc, k=1), k=1, epsilon=0.4,
                       delta=0.3, rng=RandomStream(0, ("l2w",)))
    assert out.q == 4 and out.r_val == 206
    assert out.block_size == (ds.m - 206) // 4
    assert out.target_gamma == pytest.approx((1 - 0.8) / 1)
    assert len(out.positions) == 4 and all(j == 0 for j in out.positions)
    assert len(out.val_accuracies) == 4
    # The ERM list learner recovers the planted row, so the winner is exact.
    assert out.val_accuracies[out.chosen] == 1.0

    assert conversion_budgets(2, 0.2, 0.3) == (8, 3977)


def test_list_to_weak_needs_enough_data():
    fc = build_class([(0, 1, 0), (1, 1, 0)], alphabet=(0, 1))
    ds = planted_dataset(fc, m=20, seed=2)
    with pytest.raises(InsufficientData):
        list_to_weak(ds, ErmListLearner(fc, k=1), k=1, epsilon=0.4, delta=0.3,
                     rng=RandomStream(0, ("l2w",)))


def test_list_to_weak_winner_beats_target(planted):
    fc, _ = planted
    ds = planted_dataset(fc, m=1030, seed=6)
    out = list_to_weak(ds, ErmListLearner(fc, k=2), k=2, epsilon=0.4,
                       delta=0.3, rng=RandomStream(3, ("l2w",)))
    hits = sum(1 for ex in ds.examples
               if out.hypothesis.predict(ex.instance) == ex.label)
    assert hits / ds.m >= out.target_gamma - 0.05


def test_list_derived_weak_learner_is_sample_pure(planted):
    fc, _ = planted
    learner = ListDerivedWeakLearner(ErmListLearner(fc, k=1), k=1, epsilon=0.45,
                                     delta=0.3, base_seed=5)
    big = planted_dataset(fc, m=300, seed=1)
    sample = big.subset(range(260))
    h1 = learner.train(sample)
    h2 = learner.train(sample)
    probe = [x for x, _ in ((ex.instance, ex.label) for ex in big.examples)]
    assert [h1.predict(x) for x in probe] == [h2.predict(x) for x in probe]


def test_list_boost_end_to_end(planted):
    fc, _ = planted
    ds = planted_dataset(fc, m=600, seed=12)
    res = list_boost(ds, ErmListLearner(fc, k=2), k0=2, eps0=0.25,
                     delta=0.3, seed=0, T=40)
    assert res.gamma == pytest.approx(0.25)
    assert res.size_bound == math.floor(2 / 0.5) == 4
    assert res.inner.consistent_on_train
    for ex in ds.examples:
        lst = res.predict_list(ex.instance)
        assert ex.label in lst
        assert len(lst) <= res.size_bound
    assert evaluate_list_error(res.mu, ds) == 0.0


def test_list_boost_record_replays_and_a_format_1_one_is_refused(planted):
    # ListDerivedWeakLearner seeds each call from its sample's key ids and labels
    # as bytes; a /1 record was seeded from their reprs, so replay refuses it.
    fc, _ = planted
    ds = planted_dataset(fc, m=200, seed=12)
    res = list_boost(ds, ErmListLearner(fc, k=2), k0=2, eps0=0.25, delta=0.3, seed=0, T=20)
    learner = ListDerivedWeakLearner(ErmListLearner(fc, k=2), 2, 0.25, 0.3, base_seed=0)
    spec = WeakLearnerSpec(learner, res.inner.record.meta["m0"])
    rep = replay_weak_to_list(res.inner.record, ds, spec)
    assert [rep.mu(x) for x in fc.columns] == [res.mu(x) for x in fc.columns]
    res.inner.record.format = "listboost-record/1"
    with pytest.raises(NonDeterministicLearner, match="no longer seeds"):
        replay_weak_to_list(res.inner.record, ds, spec)


def test_evaluate_list_error_counts_misses():
    ds = make_dataset([("a", 0), ("b", 1), ("c", 0), ("d", 1)], alphabet=(0, 1))
    mu = lambda x: (0,)
    assert evaluate_list_error(mu, ds) == 0.5


@pytest.mark.parametrize("seed, sha256", [
    (0, "f315ee3d5696f1ed92a11cec760f60d2572fec136a9db0e09228e74665dcc39f"),
    (5, "7be6940c85b219365ad5c12e6072129d523d6ba4b62ade6c07fc19585dd1526f"),
], ids=["seed0", "seed5"])
def test_tiny_weak_to_list_record_bytes_are_pinned(monkeypatch, tmp_path, seed, sha256):
    # A change that claims "records unchanged" keeps these digests; one that
    # changes the record on purpose recomputes them and says why. The tiny
    # boost-erm input of the benchmark: its ERM rows repeat across the rounds.
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(seed, 0, workloads.TINY_SIZES["boost-erm"])
    res = weak_to_list(inp.dataset, inp.spec, gamma=0.6, T=30, seed=seed)
    assert len(set(res.hedge.score.distinct)) < res.T
    path = tmp_path / "record.json"
    res.record.dump(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
