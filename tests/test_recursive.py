"""Staged list boosting: schedules, consistency, failure modes, replay."""

import hashlib
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from listboost import (
    AdaptiveResult,
    BoostConfig,
    BrgAuditLog,
    CalibratedBrgOracle,
    CallCountingLearner,
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
from listboost.compression import RECORD_FORMAT, CompressionRecord, reconstruct
from listboost.recursive import _phase_denominator
from listboost.weak_learn import RowHypothesis
from tests.conftest import bench_workloads, build_class, planted_dataset


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


def _three_label_dataset():
    fc = build_class([(0, 1, 0, 2), (1, 1, 0, 2), (0, 0, 2, 1)],
                     alphabet=(0, 1, 2))
    return planted_dataset(fc, m=25, seed=8)


def _oracle_run(gamma):
    ds = _three_label_dataset()
    spec = WeakLearnerSpec(CalibratedBrgOracle(gamma=gamma, margin=0.05), m0=ds.m)
    cfg = BoostConfig.from_defaults(m=ds.m, gamma=gamma, seed=5)
    return ds, spec, cfg, recursive_boost(ds, spec, cfg)


@pytest.fixture(scope="module")
def six_phase_run():
    return _oracle_run(0.3)


def test_oracle_runs_full_phase_schedule():
    ds, _spec, cfg, res = _oracle_run(0.4)
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


def test_phase_denominator_rule_on_hand_made_counts():
    lists = [(0, 1), (2, 1), (1,)]
    # T=10, lists of 2: the smallest true vote 4 needs 4 * d > 10, so d = 3 > s
    assert _phase_denominator(lists, np.array([4, 7, 10]), 10, 16) == 3
    # 6 * 2 > 10 already, so d stays at the longest list
    assert _phase_denominator(lists, np.array([6, 7, 10]), 10, 16) == 2
    # no d up to p - j + 1 keeps a vote of 1 (or 0): the cap, and the phase fails
    assert _phase_denominator(lists, np.array([1, 9]), 10, 5) == 5
    assert _phase_denominator(lists, np.array([0, 9]), 10, 5) == 5
    # lists longer than the cap start from the cap
    assert _phase_denominator([(0, 1, 2)], np.array([9]), 10, 2) == 2


def test_each_phase_denominator_is_the_smallest_that_keeps_every_label(six_phase_run):
    ds, spec, cfg, res = six_phase_run
    denominators = res.record.meta["denominators"]
    assert len(denominators) == res.chain.realized_phases >= 2
    above_s = False
    for j, d in enumerate(denominators, start=1):
        mu, score = res.chain.lists[j - 1], res.chain.scores[j - 1]
        s = max(len(mu(x)) for x in ds.unique_instances)
        true_vote = min(score.score(x, int(y)) for x, y in zip(ds.instances, ds.labels))
        assert true_vote * d > cfg.T
        assert d == min(s, cfg.p - j + 1) or true_vote * (d - 1) <= cfg.T
        above_s |= d > s
    assert above_s
    assert res.consistent_on_train
    rep = replay_boost(type(res.record).from_json_dict(res.record.to_json_dict()), ds, spec)
    assert rep.record.meta["denominators"] == denominators


def _drop_last_phase(record):
    record.groups.pop()


def _append_phase(record):
    last = record.groups[-1]
    record.groups.append(type(last)(tag=f"phase-{len(record.groups)}", slots=last.slots))


def _set_denominators(value):
    def tamper(record):
        record.meta["denominators"] = value(record.meta["denominators"])
    return tamper


def _denominators_differ(recorded):
    """The replay's rule gives [3, 3, 3, 3, 3, 2]; the record holds ``recorded``."""
    return re.escape(f"meta key 'denominators' (replayed [3, 3, 3, 3, 3, 2], "
                     f"recorded {recorded})")


@pytest.mark.parametrize("tamper, match", [
    (_drop_last_phase, "phase-6"),
    (_append_phase, "phase-7"),
    (lambda record: record.meta.pop("denominators"), _denominators_differ(None)),
    (_set_denominators(lambda d: d[:-1]), _denominators_differ([3, 3, 3, 3, 3])),
    (_set_denominators(lambda d: d + [1]), _denominators_differ([3, 3, 3, 3, 3, 2, 1])),
    (_set_denominators(lambda d: [0] + d[1:]), _denominators_differ([0, 3, 3, 3, 3, 2])),
    (_set_denominators(lambda d: d[:-1] + [7]), _denominators_differ([3, 3, 3, 3, 3, 7])),
    (_set_denominators(lambda d: [4] + d[1:]), _denominators_differ([4, 3, 3, 3, 3, 2])),
], ids=["drop-last-phase", "extra-phase", "no-denominators", "short-denominators",
        "long-denominators", "zero-denominator", "denominator-above-cap",
        "denominator-not-minimal"])
def test_replay_rejects_mismatched_phase_groups_and_denominators(six_phase_run, tamper,
                                                                 match):
    ds, spec, cfg, res = six_phase_run
    assert res.chain.realized_phases == 6 and cfg.p == 11
    loaded = type(res.record).from_json_dict(res.record.to_json_dict())
    tamper(loaded)
    with pytest.raises(InvalidParams, match=match):
        replay_boost(loaded, ds, spec)


def test_too_weak_learner_fails_a_phase(counterexample_dataset):
    ds = counterexample_dataset
    spec = WeakLearnerSpec(TooWeakLearner(), m0=ds.m)
    cfg = BoostConfig.from_defaults(m=ds.m, gamma=0.6, seed=0)
    with pytest.raises(PhaseFailure) as exc:
        recursive_boost(ds, spec, cfg)
    assert exc.value.phase >= 1


def test_phase_failure_zero_when_hint_cannot_cover(counterexample_dataset):
    ds = counterexample_dataset

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
    ds, spec, _cfg, res = _oracle_run(0.4)
    loaded = type(res.record).from_json_dict(res.record.to_json_dict())
    phase = loaded.group("phase-1")
    phase.slots = phase.slots[:-1]
    with pytest.raises(InvalidParams, match="phase-1"):
        replay_boost(loaded, ds, spec)


def test_replay_rejects_extra_hint_slots(monkeypatch):
    # The tiny boost-erm input of the benchmark, seed 0: its hint empties the
    # residual in two rounds, so a third recorded slot is never replayed, whether
    # no round draws it or a third round does.
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(0, 0, workloads.TINY_SIZES["boost-erm"])
    res = recursive_boost(inp.dataset, inp.spec, inp.config)
    loaded = type(res.record).from_json_dict(res.record.to_json_dict())
    hint = loaded.group("hint")
    assert len(hint.slots) == 2 and hint.draws == [0, 1]
    hint.slots.append(type(hint.slots[0])(slot=2, indices=hint.slots[0].indices,
                                          pred_hash="deadbeef"))
    assert (compression_size(res.record), compression_size(loaded)) == (1340, 1340)
    with pytest.raises(InvalidParams, match="^hint does not draw each slot, in first-draw order$"):
        replay_boost(loaded, inp.dataset, inp.spec)
    hint.draws.append(2)
    assert compression_size(loaded) == 1350
    with pytest.raises(InvalidParams, match="^record does not match its replay at group 'hint'$"):
        replay_boost(loaded, inp.dataset, inp.spec)
    hint.draws[:] = [1, 0, 2]  # every slot drawn, but not in first-draw order
    with pytest.raises(InvalidParams, match="^hint does not draw each slot, in first-draw order$"):
        replay_boost(loaded, inp.dataset, inp.spec)


@pytest.mark.parametrize("key, value, group", [("eta", 5.0, "phase-1"), ("gamma", 0.99, "hint")])
def test_replay_refuses_an_edited_eta_or_gamma_by_its_audit_count(monkeypatch, key, value, group):
    # Replay reuses the recorded samples, so the predictor is unchanged, but the
    # rebuilt audits fail (pass rate 0.826 at eta=5.0, 0 at gamma=0.99), and
    # the group's recorded audit pass count no longer matches.
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(0, 0, workloads.TINY_SIZES["boost-erm"])
    res = recursive_boost(inp.dataset, inp.spec, inp.config)
    assert [g.audits_passed for g in res.record.groups] == [2, 132]
    loaded = type(res.record).from_json_dict(res.record.to_json_dict())
    loaded.meta[key] = value
    with pytest.raises(InvalidParams, match=f"^record does not match its replay at group "
                                            f"'{group}'$"):
        replay_boost(loaded, inp.dataset, inp.spec)


@pytest.mark.parametrize("workload, size", [("boost-erm", "SIZES"),
                                            ("boost-oracle", "TINY_SIZES")])
def test_replay_trains_each_slot_once(monkeypatch, workload, size):
    # The ERM learner returns one object per class row, so the 349 rounds of
    # the full boost-erm seed-0 run hold 9 slots and replay trains 9 times. The
    # calibrated oracle returns a new object on every call: a slot per round.
    workloads = bench_workloads(monkeypatch)
    inp = workloads.WORKLOADS[workload].build(0, 0, getattr(workloads, size)[workload])
    spec = WeakLearnerSpec(CallCountingLearner(inp.spec.learner), inp.spec.m0)
    res = recursive_boost(inp.dataset, spec, inp.config)
    groups = res.record.groups
    rounds, slots = sum(len(g.draws) for g in groups), sum(len(g.slots) for g in groups)
    assert spec.learner.calls == rounds
    assert compression_size(res.record) == res.record.meta["m0"] * rounds
    spec.learner.calls = 0
    reconstruct(res.record, inp.dataset, spec)
    assert spec.learner.calls == slots
    if workload == "boost-erm":
        assert (rounds, slots, compression_size(res.record)) == (349, 9, 2792)
    else:
        assert all(g.draws == list(range(len(g.slots))) for g in groups)
        assert compression_size(res.record) == 8220


@pytest.mark.parametrize("m0", [3, 11])
def test_replay_rejects_an_edited_m0(monkeypatch, m0):
    # Every hint and phase round draws m0 indices, so an m0 that is not the
    # recorded samples' length is refused before any round is replayed.
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(0, 0, workloads.TINY_SIZES["boost-erm"])
    res = recursive_boost(inp.dataset, inp.spec, inp.config)
    loaded = type(res.record).from_json_dict(res.record.to_json_dict())
    assert loaded.meta["m0"] == 10
    loaded.meta["m0"] = m0
    with pytest.raises(InvalidParams, match=f"round 1 has 10 indices, not m0={m0}"):
        replay_boost(loaded, inp.dataset, inp.spec)


def test_replay_names_the_phase_round_whose_sample_is_short(monkeypatch):
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(0, 0, workloads.TINY_SIZES["boost-erm"])
    res = recursive_boost(inp.dataset, inp.spec, inp.config)
    for tag, at in (("phase-1", 4), ("hint", 1)):
        loaded = type(res.record).from_json_dict(res.record.to_json_dict())
        slots, draws = loaded.group(tag).slots, loaded.group(tag).draws
        slots[at] = type(slots[at])(slot=at, indices=slots[at].indices[:-1],
                                    pred_hash=slots[at].pred_hash)
        first = draws.index(at) + 1  # the round that first draws the slot
        with pytest.raises(InvalidParams,
                           match=f"^{tag} round {first} has 9 indices, not m0=10$"):
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


def test_erm_boost_labels_training_sets_by_gather_and_asks_each_row_once(monkeypatch):
    # Scalar predict calls: none while a training set is labelled, and at an
    # unseen column one per distinct hypothesis of each vote table (the
    # hint, then every phase).
    calls = Counter()
    scalar = RowHypothesis.predict

    def counted(self, x):
        calls[x] += 1
        return scalar(self, x)

    monkeypatch.setattr(RowHypothesis, "predict", counted)
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(0, 0, workloads.TINY_SIZES["boost-erm"])
    res = recursive_boost(inp.dataset, inp.spec, inp.config)
    assert not calls
    tables = [res.hint_result.hypotheses] + [s.hypotheses for s in res.chain.scores]
    per_table = sum(len(set(hyps)) for hyps in tables)
    assert per_table < sum(map(len, tables))  # the rounds repeat rows
    for x in inp.columns:
        res.predict(x)
    seen = set(inp.dataset.unique_instances)
    assert all(calls[x] == 0 for x in seen)
    unseen = [x for x in inp.columns if x not in seen]
    assert unseen and all(0 < calls[x] <= per_table for x in unseen)


@pytest.mark.parametrize("seed, sha256", [
    (0, "428384f9ea9fd6f1f4b809c506d70aed5e216ddf7b3a4d9e43290f76ff809d6a"),
    (5, "3ab1812ec709f1d27928c5cb0c803aa7af4a2020bb6528f775cad41d5aefc80d"),
], ids=["seed0", "seed5"])
def test_tiny_erm_boost_record_bytes_are_pinned(monkeypatch, tmp_path, seed, sha256):
    # A change that claims "records unchanged" keeps these digests; one that
    # changes the record on purpose recomputes them and says why.
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(seed, 0, workloads.TINY_SIZES["boost-erm"])
    path = tmp_path / "record.json"
    recursive_boost(inp.dataset, inp.spec, inp.config).record.dump(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_a_record_trained_when_each_round_seeded_its_own_generator_replays_bit_exactly(
        monkeypatch, tmp_path):
    # The tiny boost-erm seed-0 record, dumped when every Hedge round drew from
    # a freshly seeded generator by Generator.choice. Replay reads the recorded
    # indices and never draws, so how they were drawn is not part of the format.
    fixture = Path(__file__).parent / "data" / "boost_erm_tiny_seed0_record1.json"
    assert hashlib.sha256(fixture.read_bytes()).hexdigest() == \
        "1701f73756ccaf73ec08a796a25cd67d5625a31eb8dd18ced78fa85d3d41cd24"
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(0, 0, workloads.TINY_SIZES["boost-erm"])
    record = CompressionRecord.load(fixture)
    assert record.format == "listboost-record/1" != RECORD_FORMAT
    rebuilt = reconstruct(record, inp.dataset, spec=inp.spec)
    assert rebuilt.audit_log.entries and rebuilt.audit_log.all_passed
    assert rebuilt.consistent_on_train
    path = tmp_path / "record.json"
    rebuilt.record.dump(path)
    assert path.read_bytes() == fixture.read_bytes()


def test_boost_seeds_one_generator_per_hedge_run(monkeypatch):
    # The hint and each phase take one generator for all of their rounds.
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(0, 0, workloads.TINY_SIZES["boost-erm"])
    seeded = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        seeded.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    res = recursive_boost(inp.dataset, inp.spec, inp.config)
    phases = res.record.meta["phases_run"]
    assert len(res.record.group("hint").slots) + phases * inp.config.T > 100
    assert len(seeded) == 1 + phases
