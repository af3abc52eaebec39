"""Staged list boosting: schedules, consistency, failure modes, replay."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from listboost import (
    AdaptiveResult,
    BoostConfig,
    BrgAuditLog,
    CalibratedBrgOracle,
    ErmFiniteLearner,
    GammaExhausted,
    InvalidParams,
    PhaseFailure,
    RandomStream,
    TooWeakLearner,
    WeakLearnerSpec,
    adaptive_gamma,
    compression_size,
    default_learning_rate,
    default_phase_budget,
    default_round_count,
    recursive_boost,
    replay_boost,
)
from tests.conftest import build_class, planted_dataset


def test_schedule_constants_frozen():
    # Recomputed independently: T = ceil(8 ln m / gamma^2), p = ceil(ln m / gamma),
    # eta = sqrt(ln m / (2 T)).
    assert default_round_count(100, 0.5) == 148
    assert default_phase_budget(100, 0.5) == 10
    assert default_learning_rate(100, 148) == pytest.approx(0.124731741690, abs=1e-12)


@pytest.fixture
def planted():
    rows = [(0, 1, 0, 2, 1), (1, 1, 0, 2, 1), (0, 0, 2, 1, 1), (2, 1, 0, 2, 0)]
    fc = build_class(rows, alphabet=(0, 1, 2))
    return fc, planted_dataset(fc, m=40, seed=21)


def test_erm_run_is_consistent_and_audited(planted):
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=ds.m)
    cfg = BoostConfig.from_defaults(m=ds.m, gamma=0.25, seed=3)
    log = BrgAuditLog()
    res = recursive_boost(ds, spec, cfg, audit_log=log)
    assert res.consistent_on_train
    for ex in ds.examples:
        assert res.predict(ex.instance) == ex.label
    assert log.all_passed
    # ERM nails the target row, so the hint covers in one round and every
    # list is a singleton before any phase runs.
    assert res.hint_result.rounds_run == 1
    assert res.record.meta["phases_run"] == 0
    assert res.oracle_calls == 1


def test_oracle_runs_full_phase_schedule():
    fc = build_class([(0, 1, 0, 2), (1, 1, 0, 2), (0, 0, 2, 1)],
                     alphabet=(0, 1, 2))
    ds = planted_dataset(fc, m=25, seed=8)
    gamma = 0.4
    spec = WeakLearnerSpec(CalibratedBrgOracle(gamma=gamma, margin=0.05), m0=ds.m)
    cfg = BoostConfig.from_defaults(m=ds.m, gamma=gamma, seed=5)
    res = recursive_boost(ds, spec, cfg)
    assert res.consistent_on_train
    phases = res.record.meta["phases_run"]
    assert phases >= 1
    assert res.oracle_calls == res.hint_result.rounds_run + phases * cfg.T
    assert res.compression_size == (res.hint_result.rounds_run * ds.m
                                    + phases * cfg.T * ds.m)
    # Stage lists shrink monotonically down to singletons.
    for x in ds.unique_instances:
        lengths = [len(mu(x)) for mu in res.chain.lists]
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] == 1


def test_too_weak_learner_fails_a_phase(counterexample_dataset):
    ds = counterexample_dataset
    spec = WeakLearnerSpec(TooWeakLearner(), m0=ds.m)
    cfg = BoostConfig.from_defaults(m=ds.m, gamma=0.6, seed=0)
    with pytest.raises(PhaseFailure) as exc:
        recursive_boost(ds, spec, cfg)
    assert exc.value.phase >= 1


def test_phase_failure_zero_when_hint_cannot_cover(counterexample_dataset):
    ds = counterexample_dataset

    class OnlyA(TooWeakLearner):
        def train(self, sample, mu=None):
            h = super().train(sample, mu)
            return h

    spec = WeakLearnerSpec(TooWeakLearner(), m0=ds.m)
    # p=1 gives the hint a single round; both candidate stumps miss at least
    # one point, so coverage cannot complete.
    cfg = BoostConfig(gamma=0.3, T=10, p=1, eta=0.3, seed=0)
    with pytest.raises(PhaseFailure) as exc:
        recursive_boost(ds, spec, cfg)
    assert exc.value.phase == 0
    assert "uncovered" in str(exc.value)


def test_adaptive_halves_until_floor(counterexample_dataset):
    ds = counterexample_dataset
    spec = WeakLearnerSpec(TooWeakLearner(), m0=ds.m)
    with pytest.raises(GammaExhausted) as exc:
        adaptive_gamma(ds, spec, gamma_init=0.6, seed=0)
    # Floor is 1/m = 1/3: attempts at 0.6 and 0.3, then the next halving
    # would cross the floor.
    assert "0.6" in str(exc.value) or "attempts" in str(exc.value)


def test_adaptive_first_attempt_success(planted):
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=ds.m)
    out = adaptive_gamma(ds, spec, gamma_init=0.5, seed=2)
    assert isinstance(out, AdaptiveResult)
    assert out.gamma == 0.5
    assert len(out.attempts) == 1
    assert out.attempts[0].outcome == "success"
    assert out.result.consistent_on_train


def test_replay_reproduces_and_detects_tampering(planted):
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=10)
    cfg = BoostConfig.from_defaults(m=ds.m, gamma=0.3, m0=10, seed=7)
    res = recursive_boost(ds, spec, cfg)
    rep = replay_boost(res.record, ds, spec)
    for ex in ds.examples:
        assert rep.predict(ex.instance) == res.predict(ex.instance)
    assert rep.consistent_on_train == res.consistent_on_train
    assert rep.record.meta["phases_run"] == res.record.meta["phases_run"]

    loaded = type(res.record).from_json_dict(res.record.to_json_dict())
    hint_slots = loaded.group("hint").slots
    hint_slots[0] = type(hint_slots[0])(slot=0, indices=hint_slots[0].indices,
                                        pred_hash="deadbeef")
    from listboost import NonDeterministicLearner

    with pytest.raises(NonDeterministicLearner):
        replay_boost(loaded, ds, spec)


def test_replay_rejects_a_phase_shorter_than_T():
    fc = build_class([(0, 1, 0, 2), (1, 1, 0, 2), (0, 0, 2, 1)],
                     alphabet=(0, 1, 2))
    ds = planted_dataset(fc, m=25, seed=8)
    spec = WeakLearnerSpec(CalibratedBrgOracle(gamma=0.4, margin=0.05), m0=ds.m)
    res = recursive_boost(ds, spec, BoostConfig.from_defaults(m=ds.m, gamma=0.4, seed=5))
    loaded = type(res.record).from_json_dict(res.record.to_json_dict())
    phase = loaded.group("phase-1")
    phase.slots = phase.slots[:-1]
    with pytest.raises(InvalidParams, match="phase-1"):
        replay_boost(loaded, ds, spec)


def _bench_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_replay_rejects_extra_hint_slots(monkeypatch):
    # The tiny boost-erm input of the benchmark, seed 0: its hint empties the
    # residual in two rounds, so a third recorded slot is never replayed.
    workloads = _bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(0, 0, workloads.TINY_SIZES["boost-erm"])
    res = recursive_boost(inp.dataset, inp.spec, inp.config)
    loaded = type(res.record).from_json_dict(res.record.to_json_dict())
    hint_slots = loaded.group("hint").slots
    assert len(hint_slots) == 2
    hint_slots.append(type(hint_slots[0])(slot=2, indices=hint_slots[0].indices,
                                          pred_hash="deadbeef"))
    assert (compression_size(res.record), compression_size(loaded)) == (6620, 6630)
    with pytest.raises(InvalidParams, match="hint"):
        replay_boost(loaded, inp.dataset, inp.spec)


def test_record_meta_round_trip(planted, tmp_path):
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=ds.m)
    cfg = BoostConfig.from_defaults(m=ds.m, gamma=0.25, seed=3)
    res = recursive_boost(ds, spec, cfg)
    meta = res.record.meta
    assert meta["m"] == ds.m
    assert meta["T"] == cfg.T and meta["p"] == cfg.p
    assert meta["compression_safe"] is True
    path = tmp_path / "record.json"
    res.record.dump(path)
    loaded = type(res.record).load(path)
    assert loaded.meta == meta
    assert [g.tag for g in loaded.groups] == [g.tag for g in res.record.groups]
