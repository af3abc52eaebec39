"""Initial-hint construction: residual peeling, coverage, replay fidelity."""

import math

import numpy as np
import pytest

from listboost import (
    BrgAuditLog,
    ConstantLearner,
    ErmFiniteLearner,
    NonDeterministicLearner,
    RandomStream,
    WeakLearnerSpec,
    build_initial_hint,
    default_hint_rounds,
    replay_initial_hint,
)
from listboost.errors import InvalidParams
from tests.conftest import build_class, planted_dataset


def test_default_round_budget_frozen():
    # Recomputed by hand: ceil(ln 60 / 0.25) = ceil(16.376...) = 17.
    assert default_hint_rounds(60, 0.25) == 17
    assert default_hint_rounds(100, 0.5) == 10
    assert default_hint_rounds(2, 0.9) == math.ceil(math.log(2) / 0.9) == 1


@pytest.fixture
def planted():
    fc = build_class([(0, 1, 0, 2), (1, 1, 0, 2), (0, 0, 2, 1)],
                     alphabet=(0, 1, 2))
    return fc, planted_dataset(fc, m=30, seed=13)


def test_perfect_learner_covers_in_one_round(planted):
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=ds.m)
    res = build_initial_hint(ds, spec, p=5, rng=RandomStream(1, ("hint",)))
    assert res.rounds_run == 1
    assert res.covered_all and res.uncovered == ()
    assert res.residual_sizes == [ds.m]
    for ex in ds.examples:
        assert ex.label in res.mu(ex.instance)


def test_hint_lists_respect_round_budget(planted):
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=8)
    p = 6
    res = build_initial_hint(ds, spec, p=p, rng=RandomStream(3, ("hint",)))
    assert res.mu.declared_size == p
    for x in ds.unique_instances:
        lst = res.mu(x)
        assert 1 <= len(lst) <= res.rounds_run
        assert len(set(lst)) == len(lst)


def test_nonlearner_leaves_residual(counterexample_dataset):
    ds = counterexample_dataset
    spec = WeakLearnerSpec(ConstantLearner(0), m0=ds.m)
    res = build_initial_hint(ds, spec, p=4, rng=RandomStream(0, ("hint",)))
    assert not res.covered_all
    # "a" is labeled 0, the other two examples never get covered.
    assert res.uncovered == (1, 2)
    assert res.rounds_run == 4
    assert res.residual_sizes == [3, 2, 2, 2]
    assert res.mu("b") == (0,)


def test_audits_logged_per_round(planted):
    fc, ds = planted
    log = BrgAuditLog()
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=ds.m)
    res = build_initial_hint(ds, spec, p=5, rng=RandomStream(2, ("hint",)),
                             gamma=0.2, audit_log=log)
    assert [a.tag for a in res.audits] == ["hint:j1"]
    assert len(log) == res.rounds_run and log.all_passed
    entry = log.entries[0]
    assert entry.universal and entry.coverage == 1.0
    assert entry.threshold == pytest.approx(0.2)


def test_replay_matches_and_detects_tampering(planted):
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=7)
    res = build_initial_hint(ds, spec, p=6, rng=RandomStream(9, ("hint",)))
    rep = replay_initial_hint(ds, spec, p=6, recorded_slots=res.record_group.slots,
                              draws=res.record_group.draws)
    assert rep.rounds_run == res.rounds_run
    assert rep.covered_all == res.covered_all
    for x in ds.unique_instances:
        assert rep.mu(x) == res.mu(x)
    assert rep.record_group == res.record_group

    bad = list(res.record_group.slots)
    bad[0] = type(bad[0])(slot=bad[0].slot, indices=bad[0].indices,
                          pred_hash="0" * len(bad[0].pred_hash))
    with pytest.raises(NonDeterministicLearner):
        replay_initial_hint(ds, spec, p=6, recorded_slots=bad)


def test_replay_truncated_record_fails(counterexample_dataset):
    ds = counterexample_dataset
    spec = WeakLearnerSpec(ConstantLearner(0), m0=ds.m)
    res = build_initial_hint(ds, spec, p=4, rng=RandomStream(0, ("hint",)))
    with pytest.raises(NonDeterministicLearner):
        replay_initial_hint(ds, spec, p=4, recorded_slots=res.record_group.slots[:2])


def test_round_budget_validation(counterexample_dataset):
    ds = counterexample_dataset
    spec = WeakLearnerSpec(ConstantLearner(0), m0=ds.m)
    with pytest.raises(InvalidParams):
        build_initial_hint(ds, spec, p=0, rng=RandomStream(0, ("hint",)))


def test_record_group_sizes(planted):
    fc, ds = planted
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=5)
    res = build_initial_hint(ds, spec, p=3, rng=RandomStream(4, ("hint",)))
    group = res.record_group
    assert group.tag == "hint"
    assert group.size() == res.rounds_run * 5
    assert all(len(s.indices) == 5 for s in group.slots)
