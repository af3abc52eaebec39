import numpy as np
import pytest

from listboost.core import ListFunction, make_dataset, normalize
from listboost.errors import (
    InvalidGamma,
    InvalidParams,
    NonNumericInstance,
    UnknownInstance,
)
from listboost.weak_learn import (
    BrgAuditLog,
    CalibratedBrgOracle,
    ConstantLearner,
    ErmFiniteLearner,
    RowHypothesis,
    StumpLearner,
    TooWeakLearner,
    TrainContext,
    WeakHypothesis,
    audit_brg,
    audit_from_arrays,
)
from tests.conftest import build_class


def test_audit_threshold_for_explicit_list():
    mu = ListFunction.explicit({"a": (0, 1)}, declared_size=2, name="pair")
    audit = audit_from_arrays(0.62, 0.9, mu, gamma=0.1)
    # (1/2 + 0.1) * 0.9 = 0.54
    assert audit.threshold == pytest.approx(0.54)
    assert audit.passed


def test_audit_threshold_universal_is_plain_gamma():
    mu = ListFunction.universal((0, 1, 2, 3))
    audit = audit_from_arrays(0.21, 0.4, mu, gamma=0.2)
    assert audit.threshold == 0.2
    assert audit.coverage == 1.0  # universal hints always cover
    assert audit.passed


def test_audit_fails_below_threshold():
    mu = ListFunction.explicit({"a": (0, 1)}, declared_size=2)
    audit = audit_from_arrays(0.53, 1.0, mu, gamma=0.1)
    assert not audit.passed


def test_audit_rejects_bad_gamma():
    mu = ListFunction.universal((0, 1))
    with pytest.raises(InvalidGamma):
        audit_from_arrays(0.5, 1.0, mu, gamma=0.0)
    with pytest.raises(InvalidGamma):
        audit_from_arrays(0.5, 1.0, mu, gamma=1.5)


def test_audit_brg_weighted_hand_case():
    # weights (.5, .25, .25); predictor right on the heavy point only
    ds = make_dataset([("a", 0), ("b", 1), ("c", 1)])
    dist = normalize(np.array([2.0, 1.0, 1.0]))
    hyp = WeakHypothesis(predict=lambda x: 0)
    mu = ListFunction.explicit({"a": (0, 1), "b": (0, 1), "c": (0, 1)}, declared_size=2)
    log = BrgAuditLog()
    audit = audit_brg(hyp, ds, dist, mu, gamma=0.2, log=log, tag="hand")
    assert audit.accuracy == pytest.approx(0.5)
    assert audit.coverage == 1.0
    assert audit.threshold == pytest.approx(0.7)
    assert not audit.passed
    assert log.pass_rate == 0.0 and len(log) == 1


def test_erm_finite_learner_picks_best_row():
    fc = build_class([(0, 0), (0, 1), (1, 1)])
    learner = ErmFiniteLearner(fc)
    ds = make_dataset([(0, 0), (1, 1), (1, 1)])
    hyp = learner.train(ds)
    assert [hyp.predict(0), hyp.predict(1)] == [0, 1]


def test_erm_tie_goes_to_first_row():
    fc = build_class([(0, 0), (1, 1)])
    sample = make_dataset([(0, 0), (1, 1)])
    hyp = ErmFiniteLearner(fc).train(sample)
    # both rows hit exactly one point; the first row wins the tie
    assert hyp.predict(0) == 0 and hyp.predict(1) == 0


def test_too_weak_learner_prefers_more_accurate_candidate():
    learner = TooWeakLearner()
    ds = make_dataset([("a", 1), ("b", 1), ("c", 2)])
    hyp = learner.train(ds)
    assert hyp.predict("a") == 1  # second candidate matches a and b here
    ds2 = make_dataset([("a", 0), ("b", 0), ("c", 2)])
    hyp2 = learner.train(ds2)
    assert hyp2.predict("a") == 0


def test_too_weak_learner_rejects_foreign_instances():
    learner = TooWeakLearner()
    with pytest.raises(UnknownInstance):
        learner.train(make_dataset([("q", 0), ("a", 1)]))


def test_stump_learner_splits_one_dimension():
    # y = [x >= 2] is exactly representable by one threshold
    pairs = [((float(v),), int(v >= 2)) for v in range(4)]
    ds = make_dataset(pairs)
    mu = ListFunction.universal(ds.alphabet)
    hyp = StumpLearner().train(ds, mu)
    assert all(hyp.predict(x) == y for (x, y) in pairs)


def test_stump_learner_needs_numeric_tuples():
    ds = make_dataset([("a", 0), ("b", 1)])
    with pytest.raises(NonNumericInstance):
        StumpLearner().train(ds, ListFunction.universal((0, 1)))


def test_constant_learner():
    hyp = ConstantLearner(1).train(make_dataset([("a", 0), ("b", 1)]))
    assert hyp.predict("whatever") == 1


def test_calibrated_oracle_clears_threshold_with_minimal_margin():
    ds = make_dataset([(i, i % 3) for i in range(12)], alphabet=(0, 1, 2))
    mu = ListFunction.explicit({i: (0, 1, 2) for i in range(12)}, declared_size=3)
    ctx = TrainContext(ds, mu)
    dist = normalize(np.ones(12))
    oracle = CalibratedBrgOracle(gamma=0.25)
    hyp = oracle.train_weighted(ctx, dist)
    audit = audit_brg(hyp, ds, dist, mu, gamma=0.25)
    assert audit.passed
    # calibrated: barely above (1/3 + 0.25), not at accuracy 1
    assert audit.accuracy < 0.75


def test_calibrated_oracle_requires_weighted_entry_point():
    with pytest.raises(InvalidParams):
        CalibratedBrgOracle(0.2).train([])


def test_calibrated_oracle_is_flagged_unsafe_for_compression():
    assert CalibratedBrgOracle(0.2).compression_safe is False
    assert ErmFiniteLearner(build_class([(0,), (1,)])).compression_safe is True


def test_predictions_for_calls_predict_once_per_distinct_instance():
    ds = make_dataset([("a", 0), ("b", 1), ("a", 0), ("c", 2), ("b", 0), ("a", 1)],
                      alphabet=(0, 1, 2))
    table = {"a": 2, "b": 0, "c": 1}
    calls = []

    def predict(x):
        calls.append(x)
        return table[x]

    preds = WeakHypothesis(predict=predict).predictions_for(ds)
    assert sorted(calls) == ["a", "b", "c"]
    assert preds.dtype == np.int64
    assert preds.tolist() == [table[x] for x in ds.instances]


def test_row_hypotheses_reject_non_column_instances_and_are_shared_per_row():
    fc = build_class([(0, 1, 2), (1, 1, 0)], columns=("a", "b", "c"), alphabet=(0, 1, 2))
    learner = ErmFiniteLearner(fc)
    first = learner.train(make_dataset([("a", 0), ("c", 2)], alphabet=fc.alphabet))
    again = learner.train(make_dataset([("b", 1), ("a", 0)], alphabet=fc.alphabet))
    other = learner.train(make_dataset([("a", 1)], alphabet=fc.alphabet))
    assert first is again and other is not first
    assert isinstance(first, RowHypothesis)
    assert [first.predict(x) for x in fc.columns] == [0, 1, 2]
    assert first.predictions_for(make_dataset([("c", 0), ("a", 1), ("c", 2)])).tolist() \
        == [2, 0, 2]
    with pytest.raises(UnknownInstance, match="'zzz' is not a class column"):
        first.predictions_for(make_dataset([("a", 0), ("zzz", 1)]))
    with pytest.raises(UnknownInstance, match="'zzz' is not a class column"):
        first.predict("zzz")
    with pytest.raises(UnknownInstance, match="'zzz' is not a class column"):
        learner.train(make_dataset([("zzz", 1)]))


def test_class_columns_are_resolved_once_per_key_table():
    fc = build_class([(0, 1, 2, 1), (1, 1, 0, 2)], columns=("a", "b", "c", "d"),
                     alphabet=(0, 1, 2))
    row, learner = RowHypothesis(fc, 1), ErmFiniteLearner(fc)
    first = make_dataset([("c", 0), ("a", 1), ("c", 2), ("d", 1)])
    second = make_dataset([("b", 0), ("d", 2), ("b", 1)])
    bad = make_dataset([("a", 0), ("zzz", 1)])
    looked_up = []

    class Spy(dict):
        def __getitem__(self, key):
            looked_up.append(key)
            return super().__getitem__(key)

    object.__setattr__(fc, "col_index", Spy(fc.col_index))  # the cached_property's slot
    with pytest.raises(UnknownInstance, match="'zzz' is not a class column"):
        row.predictions_for(bad)  # before any memo
    want = {first: [0, 1, 0, 2], second: [1, 2, 1]}
    for ds in (first, first, second, first, second, second):
        assert row.predictions_for(ds).tolist() == want[ds]
    # one resolution per run of calls on the same key table
    assert looked_up == ["a", "zzz"] + list(first.key_table + second.key_table) * 2
    looked_up.clear()
    for indices in ([0], [2, 1], [1, 1, 0]):  # a subset shares its parent's key table
        learner.train(second.subset(indices))
    assert row.predictions_for(second).tolist() == [1, 2, 1]
    assert looked_up == []
    with pytest.raises(UnknownInstance, match="'zzz' is not a class column"):
        learner.train(bad.subset([0]))  # a failed lookup is not kept
    looked_up.clear()
    assert row.predictions_for(second).tolist() == [1, 2, 1]
    assert looked_up == []  # ``second`` is still the memo
    keys = ["a", "b"]  # a list can change under the same id, so it is never kept
    assert row.predict_distinct(keys).tolist() == [1, 1]
    keys[0] = "c"
    assert row.predict_distinct(keys).tolist() == [0, 1]
