"""Multiplicative-weights loop: vote tables, regret, elimination, replay."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listboost import (
    BoostConfig,
    BrgAuditLog,
    CalibratedBrgOracle,
    CallCountingLearner,
    ConstantLearner,
    EmptyCandidates,
    ErmFiniteLearner,
    InvalidParams,
    ListFunction,
    NonDeterministicLearner,
    RandomStream,
    TooWeakLearner,
    WeakLearnerSpec,
    eliminate_min_label,
    make_dataset,
    replay_hedge,
    run_hedge,
)
from listboost.compression import RecordGroup, hedge_group
from listboost.core import normalize, stable_digest
from listboost.hedge import _BLOCK_CELLS, ScoreTable, _drawn_indices
from listboost.weak_learn import WeakHypothesis
from tests.conftest import bench_workloads, build_class, planted_dataset


def test_default_schedule_frozen():
    # Independently recomputed: ceil(8 ln 100 / 0.25) = 148, ceil(ln 100 / 0.5) = 10.
    cfg = BoostConfig.from_defaults(m=100, gamma=0.5)
    assert cfg.T == 148
    assert cfg.p == 10
    assert cfg.eta == pytest.approx(0.124731741690, abs=1e-12)
    assert cfg.eta == pytest.approx(math.sqrt(math.log(100) / (2 * 148)))


def test_vote_totals_and_shape(counterexample_dataset):
    ds = counterexample_dataset
    mu = ListFunction.universal(ds.alphabet)
    spec = WeakLearnerSpec(TooWeakLearner(), m0=ds.m)
    T = 40
    res = run_hedge(ds, mu, spec, T=T, eta=0.3, rng=RandomStream(5, ("hedge",)))
    assert res.score.total == T
    assert res.score.rows.shape == (len(res.score.slots), ds.m)
    for x in ds.unique_instances:
        counts = res.score.counts(x)
        assert counts.sum() == T
    # Both candidate hypotheses always vote 2 at "c".
    assert res.score.score("c", 2) == T


def test_elimination_never_removes_truth(counterexample_dataset):
    ds = counterexample_dataset
    mu = ListFunction.universal(ds.alphabet)
    spec = WeakLearnerSpec(TooWeakLearner(), m0=ds.m)
    res = run_hedge(ds, mu, spec, T=60, eta=0.25,
                    rng=RandomStream(9, ("hedge",)))
    for ex in ds.examples:
        dropped = eliminate_min_label(res.score, ex.instance, ds.alphabet)
        assert dropped != ex.label


def test_eliminate_tie_breaks_to_lowest_label(counterexample_dataset):
    ds = counterexample_dataset
    mu = ListFunction.universal(ds.alphabet)
    spec = WeakLearnerSpec(ConstantLearner(2), m0=ds.m)
    res = run_hedge(ds, mu, spec, T=12, eta=0.3, rng=RandomStream(1, ("h",)))
    # Labels 0 and 1 both collected zero votes everywhere: tie -> 0.
    assert eliminate_min_label(res.score, "a", (0, 1, 2)) == 0
    assert eliminate_min_label(res.score, "a", (1, 2)) == 1


def test_eliminate_empty_candidates(counterexample_dataset):
    ds = counterexample_dataset
    mu = ListFunction.universal(ds.alphabet)
    spec = WeakLearnerSpec(ConstantLearner(0), m0=ds.m)
    res = run_hedge(ds, mu, spec, T=3, eta=0.3, rng=RandomStream(1, ("h",)))
    with pytest.raises(EmptyCandidates):
        eliminate_min_label(res.score, "a", ())


def test_learner_called_once_per_round(counterexample_dataset):
    ds = counterexample_dataset
    counted = CallCountingLearner(TooWeakLearner())
    spec = WeakLearnerSpec(counted, m0=2)
    run_hedge(ds, ListFunction.universal(ds.alphabet), spec, T=17, eta=0.3,
              rng=RandomStream(0, ("h",)))
    assert counted.calls == 17


def test_regret_bound_holds_and_is_recomputable(counterexample_dataset):
    ds = counterexample_dataset
    mu = ListFunction.universal(ds.alphabet)
    spec = WeakLearnerSpec(TooWeakLearner(), m0=ds.m)
    T, eta = 80, 0.2
    res = run_hedge(ds, mu, spec, T=T, eta=eta, rng=RandomStream(3, ("h",)))
    assert res.regret_satisfied()
    lhs = float(res.alphas.sum())
    for i in range(ds.m):
        rhs = math.log(ds.m) / eta + eta * T + float(res.correct_counts[i])
        assert lhs <= rhs + 1e-6 * max(1.0, abs(rhs))
    assert np.allclose(res.regret_bound_rhs(),
                       [math.log(ds.m) / eta + eta * T + c
                        for c in res.correct_counts])


def test_calibrated_oracle_meets_list_margin():
    fc = build_class([(0, 1, 0, 2), (1, 1, 0, 2), (0, 0, 2, 1)],
                     alphabet=(0, 1, 2))
    ds = planted_dataset(fc, m=20, seed=11)
    cfg = BoostConfig.from_defaults(m=ds.m, gamma=0.3)
    k = 3
    mu = ListFunction.explicit({x: tuple(ds.alphabet) for x in ds.unique_instances},
                               declared_size=k, name="full3")
    log = BrgAuditLog()
    oracle = CalibratedBrgOracle(gamma=cfg.gamma, margin=0.05)
    spec = WeakLearnerSpec(oracle, m0=ds.m)
    res = run_hedge(ds, mu, spec, T=cfg.T, eta=cfg.eta,
                    rng=RandomStream(7, ("h",)), gamma=cfg.gamma,
                    audit_log=log, audit_tag="unit")
    assert log.all_passed and len(log) == cfg.T
    # Aggregate payoff guarantee: every kept pair clears 1/k + gamma/2.
    floor = (1.0 / k + cfg.gamma / 2.0) * cfg.T
    for ex in ds.examples:
        assert res.score.score(ex.instance, ex.label) >= floor - 1e-9


def test_replay_reproduces_scores():
    fc = build_class([(0, 1, 0), (1, 1, 0), (0, 0, 1)], alphabet=(0, 1))
    ds = planted_dataset(fc, m=15, seed=4)
    mu = ListFunction.universal(ds.alphabet)
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=6)
    res = run_hedge(ds, mu, spec, T=25, eta=0.4, rng=RandomStream(8, ("h",)))
    replayed = replay_hedge(ds, mu, spec, res.round_indices, eta=0.4)
    assert np.array_equal(replayed.score.rows[replayed.draws], res.score.rows[res.draws])
    assert np.array_equal(replayed.correct_counts, res.correct_counts)
    assert replayed.round_indices == res.round_indices


_weights = st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e9)),
                    min_size=1, max_size=40).filter(any)


@settings(max_examples=60, deadline=None)
@given(st.lists(_weights, min_size=1, max_size=4), st.integers(0, 2**32 - 1),
       st.integers(1, 50))
def test_draw_is_numpy_choice_from_the_same_generator_state(vectors, seed, m0):
    # One generator serves every round, so the reference advances with it.
    draw = _drawn_indices(RandomStream(seed, ("d",)), "round", m0)
    reference = RandomStream(seed, ("d", "round")).generator()
    for t, weights in enumerate(vectors, 1):
        dist = normalize(weights)
        got = draw(t, dist)
        expected = reference.choice(dist.size, size=m0, replace=True, p=dist.weights)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert np.all(dist.weights[got] > 0)


class _FixedUniforms:
    """A stream whose one generator returns the given uniforms in [0, 1)."""

    def __init__(self, uniforms):
        self.uniforms = np.array(uniforms, dtype=np.float64)

    def child(self, *tags):
        return self

    def generator(self):
        return self

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms


def test_draw_never_returns_a_zero_weight_index():
    # Uniforms on the CDF's steps, and at its ends, land past the zero-weight
    # examples before, between and after the weighted ones.
    dist = normalize([0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0])
    uniforms = [0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0), 0.1, 0.9]
    draw = _drawn_indices(_FixedUniforms(uniforms), "round", len(uniforms))
    assert draw(1, dist).tolist() == [1, 3, 3, 6, 6, 1, 6]


class _FreshClosureLearner(ErmFiniteLearner):
    """ERM rows, each wrapped in a fresh closure: every round is its own slot."""

    def train(self, sample, mu=None):
        return WeakHypothesis(predict=super().train(sample, mu).predict)


def test_two_runs_on_one_stream_draw_the_same_samples():
    # A slot per round, so round_indices are the samples the rounds drew.
    fc = build_class([(0, 1, 0), (1, 1, 0), (0, 0, 1)], alphabet=(0, 1))
    ds = planted_dataset(fc, m=15, seed=4)
    mu = ListFunction.universal(ds.alphabet)
    spec = WeakLearnerSpec(_FreshClosureLearner(fc), m0=6)
    rng = RandomStream(8, ("h",))
    first = run_hedge(ds, mu, spec, T=25, eta=0.4, rng=rng)
    second = run_hedge(ds, mu, spec, T=25, eta=0.4, rng=rng)
    assert first.samples == first.round_indices and len(first.samples) == 25
    assert len(set(first.round_indices)) > 1
    assert second.round_indices == first.round_indices


def test_round_trace_fields(counterexample_dataset):
    ds = counterexample_dataset
    spec = WeakLearnerSpec(TooWeakLearner(), m0=2)
    res = run_hedge(ds, ListFunction.universal(ds.alphabet), spec, T=5,
                    eta=0.3, rng=RandomStream(0, ("h",)))
    assert len(res.rounds) == len(res.draws) == len(res.alphas) == 5
    assert all(len(ix) == 2 for ix in res.round_indices)
    assert all(0.0 <= alpha <= 1.0 for alpha in res.alphas.tolist())


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
def test_public_entry_points_reject_non_finite_or_non_positive_eta(counterexample_dataset, eta):
    # Only the private round loop takes eta = inf (the residual-peeling hint).
    ds = counterexample_dataset
    mu = ListFunction.universal(ds.alphabet)
    spec = WeakLearnerSpec(ConstantLearner(0), m0=2)
    with pytest.raises(InvalidParams):
        run_hedge(ds, mu, spec, T=3, eta=eta, rng=RandomStream(0, ("h",)))
    with pytest.raises(InvalidParams):
        replay_hedge(ds, mu, spec, [(0, 1), (1, 2)], eta=eta)


def test_score_rows_match_a_reference_count_and_evaluate_unseen_instances_once():
    # Slot 3 is never drawn (as a game response that lost its retry): it never votes.
    ds = make_dataset([("a", 0), ("b", 1), ("a", 0), ("c", 2)], alphabet=(0, 1, 2))
    tables = [{"a": 0, "b": 1, "c": 2, "d": 1},
              {"a": 0, "b": 0, "c": 2, "d": 2},
              {"a": 1, "b": 1, "c": 2, "d": 1},
              {"a": 2, "b": 2, "c": 0, "d": 0}]
    calls = Counter()

    def hypothesis(table):
        def predict(x):
            calls[x] += 1
            return table[x]
        return WeakHypothesis(predict=predict)

    hyps = [hypothesis(t) for t in tables]
    rows = np.array([h.predictions_for(ds) for h in hyps])
    for draws in ([0, 1, 2], [0, 2, 0, 1, 0], [1, 1, 0]):
        calls.clear()
        score = ScoreTable(hyps, draws, ds, rows)
        for x in ("a", "b", "c", "d"):  # training instances, then an unseen one
            reference = Counter(tables[s][x] for s in draws)  # a count over every round
            row = score.counts(x)
            assert row.dtype == np.int64
            assert row.tolist() == [reference[y] for y in ds.alphabet]
            assert row.sum() == score.total == len(draws)
        for _ in range(3):
            score.counts("d")
            assert score.score("d", 1) == reference[1]
        assert calls["d"] == len(set(draws)) and sum(calls.values()) == calls["d"]
        assert score.predictions.tolist() == rows[draws].tolist()


def test_a_run_holds_its_slots_and_one_block_of_rounds_not_every_round():
    # m = 10,000 and T = 200, so a (T, m) int64 array would be 16 MB. A run keeps
    # one prediction row and mask per slot and one block of weight rows; the
    # rest of its traced peak is a few m-long working vectors.
    fc = build_class([(0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)], alphabet=(0, 1))
    ds = planted_dataset(fc, m=10_000, seed=0)
    T = 200
    tracemalloc.start()
    try:
        res = run_hedge(ds, ListFunction.universal(ds.alphabet),
                        WeakLearnerSpec(ErmFiniteLearner(fc), m0=5), T=T, eta=0.1,
                        rng=RandomStream(0, ("memory",)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = min(T, max(1, _BLOCK_CELLS // ds.m))
    assert len(res.draws) == T
    assert peak < (len(res.score.slots) + block + 16) * ds.m * 8 < T * ds.m * 8 // 8


class _RowOrClosureLearner(ErmFiniteLearner):
    """ERM rows, every other call wrapped in a fresh closure over the chosen row."""

    calls = 0

    def train(self, sample, mu=None):
        self.calls += 1
        row = super().train(sample, mu)
        return row if self.calls % 2 else WeakHypothesis(predict=row.predict)


@pytest.mark.parametrize("learner_type", [ErmFiniteLearner, _RowOrClosureLearner])
def test_score_rows_match_a_count_over_every_stored_hypothesis(learner_type):
    fc = build_class([(0, 1, 2, 0, 1, 2), (0, 1, 2, 1, 2, 0), (1, 1, 2, 0, 0, 2),
                      (0, 2, 2, 2, 1, 1), (2, 1, 0, 0, 1, 1)], alphabet=(0, 1, 2))
    ds = planted_dataset(fc, m=12, seed=4)
    ds = make_dataset([(x, y) for x, y in zip(ds.instances, ds.labels) if x < 4],
                      alphabet=fc.alphabet)  # columns 4 and 5 stay unseen
    res = run_hedge(ds, ListFunction.universal(ds.alphabet),
                    WeakLearnerSpec(learner_type(fc), m0=3), T=30, eta=0.4,
                    rng=RandomStream(2, ("mixed",)))
    score = res.score
    hypotheses = [score.slots[s] for s in score.draws]
    assert len(score.slots) < score.total == len(hypotheses) == 30
    if learner_type is _RowOrClosureLearner:  # fresh closures count once each
        assert len(score.slots) > 15
    for x in fc.columns:
        reference = np.bincount([h.predict(x) for h in hypotheses], minlength=3)
        assert score.counts(x).dtype == np.int64
        assert score.counts(x).tolist() == reference.tolist()


@pytest.mark.parametrize("learner_type", [ErmFiniteLearner, _RowOrClosureLearner])
def test_round_slots_hash_each_row_as_its_own_tuple_and_check_every_slot(monkeypatch,
                                                                         learner_type):
    # A Hedge run keeps one slot per distinct hypothesis object, in first-draw
    # order, and each round's slot id in draws. Slots that repeat a prediction
    # row share one digest: a fresh closure over a row seen before gets its own
    # slot. The tiny boost-erm input of the benchmark: its five distinct rows
    # start alike.
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(0, 0, workloads.TINY_SIZES["boost-erm"])
    ds = inp.dataset
    res = run_hedge(ds, ListFunction.universal(ds.alphabet),
                    WeakLearnerSpec(learner_type(inp.spec.learner.finite_class), m0=10),
                    T=30, eta=0.4, rng=RandomStream(2, ("mixed",)))
    rows = [tuple(row) for row in res.score.rows[res.draws].tolist()]
    assert len(set(rows)) == 5 and len({row[:5] for row in rows}) == 1
    group = hedge_group("rounds", res)
    slots, draws = group.slots, group.draws
    assert len(draws) == 30 and len(slots) == len(res.score.slots)
    assert list(dict.fromkeys(draws)) == list(range(len(slots)))
    assert [tuple(row) for row in res.score.rows.tolist()] == \
        [rows[draws.index(n)] for n in range(len(slots))]
    assert [s.indices for s in slots] == res.samples == [res.round_indices[draws.index(n)]
                                                         for n in range(len(slots))]
    assert [slots[n].pred_hash for n in draws] == [stable_digest(row) for row in rows]
    assert group.size() == 30 * 10
    assert hedge_group("rounds", res, group) == group
    slot_rows = [rows[draws.index(n)] for n in range(len(slots))]
    repeated = Counter(slot_rows).most_common(1)[0][0]
    at = [n for n, row in enumerate(slot_rows) if row == repeated]
    assert len(at) >= (3 if learner_type is _RowOrClosureLearner else 1)
    for n in at:  # only this one of the slots with identical rows is tampered
        tampered = list(slots)
        tampered[n] = type(slots[n])(slot=n, indices=slots[n].indices, pred_hash="0" * 24)
        with pytest.raises(NonDeterministicLearner, match=f"^rounds slot {n}:"):
            hedge_group("rounds", res, RecordGroup("rounds", tampered, draws))


class _Stop(Exception):
    pass


class _StopOnCall(ErmFiniteLearner):
    """ERM that raises on its ``stop``-th training call."""

    def __init__(self, finite_class, stop):
        super().__init__(finite_class)
        self.stop, self.calls = stop, 0

    def train(self, sample, mu=None):
        self.calls += 1
        if self.calls == self.stop:
            raise _Stop(self.calls)
        return super().train(sample, mu)


def test_a_round_that_raises_leaves_the_rounds_before_it_audited_in_training_and_replay(
        monkeypatch):
    # The full boost-erm seed-0 input, one Hedge run against a two-label hint.
    # The last slot is first drawn mid-run, at round r: training calls the
    # learner there for the r-th time, replay for the (slot + 1)-th. Either way
    # the log holds exactly the audits of rounds 1..r-1, as the whole run's.
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(0, 0, workloads.SIZES["boost-erm"])
    ds, cfg, fc = inp.dataset, inp.config, inp.spec.learner.finite_class
    mu = ListFunction.explicit({x: (y, (y + 1) % 8) for x, y in zip(ds.instances, ds.labels)},
                               declared_size=2, name="pairs")
    whole = BrgAuditLog()
    res = run_hedge(ds, mu, inp.spec, cfg.T, cfg.eta, RandomStream(1, ("h",)), gamma=cfg.gamma,
                    audit_log=whole)
    group = hedge_group("rounds", res)
    last = len(group.slots) - 1
    r = group.draws.index(last) + 1
    assert last >= 2 and 1 < r < cfg.T and len(whole) == cfg.T
    logs = []
    for stop, run in ((r, lambda spec, log: run_hedge(ds, mu, spec, cfg.T, cfg.eta,
                                                        RandomStream(1, ("h",)),
                                                        gamma=cfg.gamma, audit_log=log)),
                      (last + 1, lambda spec, log: replay_hedge(
                          ds, mu, spec, [s.indices for s in group.slots], cfg.eta,
                          gamma=cfg.gamma, audit_log=log, draws=group.draws))):
        logs.append(BrgAuditLog())
        with pytest.raises(_Stop):
            run(WeakLearnerSpec(_StopOnCall(fc, stop), inp.spec.m0), logs[-1])
    assert [repr(a) for a in logs[0].entries] == [repr(a) for a in logs[1].entries] == \
        [repr(a) for a in whole.entries[:r - 1]]
    replayed = replay_hedge(ds, mu, inp.spec, [s.indices for s in group.slots], cfg.eta,
                            gamma=cfg.gamma, draws=group.draws)
    assert replayed.alphas.tobytes() == res.alphas.tobytes()
    assert replayed.final_log_weights.tobytes() == res.final_log_weights.tobytes()
