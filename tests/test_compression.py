"""Sample-compression accounting: sizes, bounds, records, Monte-Carlo audit."""

import copy
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from listboost import (
    CompressionRecord,
    ErmFiniteLearner,
    HypothesisSlot,
    InvalidParams,
    ListFunction,
    MonteCarloReport,
    NonDeterministicLearner,
    RandomStream,
    RTooLarge,
    RecordGroup,
    SchemeRun,
    WeakLearnerSpec,
    bound_is_vacuous,
    compression_size,
    generalization_bound,
    k_list_pac_learn,
    monte_carlo_compression_check,
    reconstruct,
    recursive_boost,
    replay_boost,
    replay_list_pac,
    replay_weak_to_list,
    run_hedge,
    weak_to_list,
)
from listboost import core
from listboost.compression import slot_group
from listboost.core import make_dataset
from tests.conftest import bench_workloads, build_class, planted_dataset


def _slot(slot, n):
    return HypothesisSlot(slot=slot, indices=tuple(range(n)), pred_hash="")


def test_group_size_counts_indices():
    g = RecordGroup(tag="g", slots=[_slot(0, 3), _slot(1, 5)])
    assert g.size() == 8


def test_group_size_with_draws_counts_repeats():
    # Draws reference slots 0, 1, 1: size = 3 + 5 + 5 = 13.
    g = RecordGroup(tag="g", slots=[_slot(0, 3), _slot(1, 5)], draws=(0, 1, 1))
    assert g.size() == 13


def test_compression_size_sums_groups():
    rec = CompressionRecord(
        pipeline="boost",
        meta={},
        groups=[RecordGroup(tag="a", slots=[_slot(0, 2)]),
                RecordGroup(tag="b", slots=[_slot(0, 4), _slot(1, 1)])],
    )
    assert compression_size(rec) == 7


def test_bound_frozen_values():
    # Recomputed separately: (30 ln 1000 + ln 20) / 970 and
    # (50 ln 1500 + ln 10) / 1450.
    assert generalization_bound(30, 1000, 0.05) == pytest.approx(
        0.216730299632, abs=1e-12)
    assert generalization_bound(50, 1500, 0.1) == pytest.approx(
        0.253768003067, abs=1e-12)
    assert generalization_bound(0, 100, 1.0) == 0.0


def test_bound_monotone_in_r():
    eps = [generalization_bound(r, 500, 0.05) for r in range(0, 400, 25)]
    assert all(a < b for a, b in zip(eps, eps[1:]))


def test_bound_rejects_vacuous_and_bad_params():
    with pytest.raises(RTooLarge):
        generalization_bound(60, 60, 0.05)
    with pytest.raises(RTooLarge):
        generalization_bound(80, 60, 0.05)
    with pytest.raises(InvalidParams):
        generalization_bound(10, 100, 0.0)
    with pytest.raises(InvalidParams):
        generalization_bound(-1, 100, 0.5)
    assert bound_is_vacuous(1.0) and not bound_is_vacuous(0.999)


def test_record_json_round_trip(tmp_path):
    rec = CompressionRecord(
        pipeline="boost",
        meta={"m": 12, "gamma": 0.25},
        groups=[RecordGroup(tag="hint", slots=[
            HypothesisSlot(slot=0, indices=(3, 1, 4), pred_hash="abc123")])],
    )
    path = tmp_path / "rec.json"
    rec.dump(path)
    raw = json.loads(path.read_text())
    assert raw["format"] == "listboost-record/2"
    loaded = CompressionRecord.load(path)
    assert loaded.pipeline == rec.pipeline
    assert loaded.meta == rec.meta
    assert loaded.group("hint").slots[0].indices == (3, 1, 4)
    with pytest.raises(InvalidParams):
        rec.group("nope")


def _slot_rows(kind, monkeypatch):
    """A group's slot indices, its rows as slot_group takes them, and each row's hashed tuple."""
    if kind == "hedge":  # the tiny boost-erm input of the benchmark: 30 rounds, 5 distinct rows
        workloads = bench_workloads(monkeypatch)
        inp = workloads.build_boost_erm(0, 0, workloads.TINY_SIZES["boost-erm"])
        ds = inp.dataset
        res = run_hedge(ds, ListFunction.universal(ds.alphabet),
                        WeakLearnerSpec(inp.spec.learner, m0=10), T=30, eta=0.4,
                        rng=RandomStream(2, ("mixed",)))
        rows = res.score.rows[res.draws]  # a row per round
        return res.round_indices, rows, [tuple(row) for row in rows.tolist()]
    if kind == "wrong-label":  # a min-excluded label per instance, one int64 array per slot
        plain = [(0, 2, 1, 1), (1, 1, 0, 2), (0, 2, 1, 1), (0, 2, 1, 0), (0, 2, 1, 1)]
        return ([(i, i + 1) for i in range(5)], [np.array(r, dtype=np.int64) for r in plain],
                plain)
    plain = [((0,), (1, 2)), ((0,), (1, 2)), ((1,), (0, 2)), ((0,), (1, 2))]  # cover lists
    return [(i,) for i in range(4)], plain, plain


@pytest.mark.parametrize("kind", ["hedge", "wrong-label", "cover"])
def test_slot_group_hashes_rows_once_and_names_a_tampered_slot(monkeypatch, kind):
    # An array row is hashed as the tuple of its entries and a tuple row as it
    # is, once per distinct row; replay names the one tampered slot even when
    # identical rows surround it.
    indices, rows, plain = _slot_rows(kind, monkeypatch)
    digest, hashed = core.stable_digest, []
    monkeypatch.setattr(core, "stable_digest", lambda obj: hashed.append(obj) or digest(obj))
    group = slot_group("g", indices, rows)
    assert len(hashed) == len(set(hashed)) and set(hashed) == set(plain)
    assert [s.pred_hash for s in group.slots] == [digest(row) for row in plain]
    assert [(s.slot, s.indices) for s in group.slots] == list(enumerate(map(tuple, indices)))
    assert slot_group("g", indices, rows, group.slots) == group
    repeated = Counter(plain).most_common(1)[0][0]
    at = [n for n, row in enumerate(plain) if row == repeated]
    assert len(at) >= 3
    for n in at:  # only this one of the identical rows is tampered
        tampered = list(group.slots)
        tampered[n] = HypothesisSlot(slot=n, indices=tampered[n].indices, pred_hash="0" * 24)
        with pytest.raises(NonDeterministicLearner, match=f"^g slot {n}:"):
            slot_group("g", indices, rows, tampered)


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "other/9", "pipeline": "boost",
                                "meta": {}, "groups": []}))
    with pytest.raises(InvalidParams):
        CompressionRecord.load(path)


def test_reconstruct_rejects_unknown_pipeline():
    ds = make_dataset([("a", 0)], alphabet=(0, 1))
    rec = CompressionRecord(pipeline="mystery", meta={}, groups=[])
    with pytest.raises(InvalidParams):
        reconstruct(rec, ds)


def _trained(pipeline, monkeypatch):
    """A small run of each pipeline: its record and what reconstruct needs."""
    if pipeline == "boost":  # the tiny boost-erm input of the benchmark, seed 0
        workloads = bench_workloads(monkeypatch)
        inp = workloads.build_boost_erm(0, 0, workloads.TINY_SIZES["boost-erm"])
        res = recursive_boost(inp.dataset, inp.spec, inp.config)
        return res.record, dict(dataset=inp.dataset, spec=inp.spec)
    if pipeline == "list-boost":
        fc = build_class([(0, 1, 0, 2), (1, 1, 0, 2), (0, 0, 2, 1)], alphabet=(0, 1, 2))
        ds = planted_dataset(fc, m=30, seed=17)
        spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=8)
        res = weak_to_list(ds, spec, gamma=0.6, T=40, seed=9)
        return res.record, dict(dataset=ds, spec=spec)
    workloads = bench_workloads(monkeypatch)  # tiny listpac-oig, seed 0
    inp = workloads.build_listpac_oig(0, 0, workloads.TINY_SIZES["listpac-oig"])
    res = k_list_pac_learn(inp.finite_class, inp.dataset, inp.k, seed=0)
    return res.record, dict(dataset=inp.dataset, finite_class=inp.finite_class)


def test_training_and_replay_build_no_labeled_example(monkeypatch):
    # A sample is a Dataset of integer arrays: boosting the benchmark's
    # boost-erm input and list-PAC learning its listpac-oig input, each with
    # its replay, build no per-example object.
    workloads = bench_workloads(monkeypatch)
    erm = workloads.build_boost_erm(0, 0, workloads.SIZES["boost-erm"])
    pac = workloads.build_listpac_oig(0, 0, workloads.SIZES["listpac-oig"])
    built = []
    init = core.LabeledExample.__init__
    monkeypatch.setattr(core.LabeledExample, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    boosted = recursive_boost(erm.dataset, erm.spec, erm.config)
    reconstruct(boosted.record, erm.dataset, erm.spec)
    listed = k_list_pac_learn(pac.finite_class, pac.dataset, pac.k, seed=0)
    reconstruct(listed.record, pac.dataset, finite_class=pac.finite_class)
    assert built == []
    assert len(erm.dataset.examples) == len(built) == erm.dataset.m  # the spy sees a build


# Each tamper edits a record's JSON dict and returns the message its replay must raise.
def _meta_edit(key, edit):
    def tamper(rec):
        old = rec["meta"][key]
        rec["meta"][key] = edit(old)
        return f"meta key {key!r} (replayed {old!r}, recorded {rec['meta'][key]!r})"
    return tamper


def _slot_index(tag, index):
    def tamper(rec):
        m = rec["meta"]["m"]
        group = next(g for g in rec["groups"] if g["tag"] == tag)
        group["slots"][0]["indices"][0] = index(m)
        return f"group {tag!r} has a slot index outside [0, {m}): slot 0 index {index(m)}"
    return tamper


def _meta_drop(key):
    def tamper(rec):
        del rec["meta"][key]
        return f"record meta has no key {key!r}"
    return tamper


def _non_integer(tag, field, value):
    """Set group ``tag``'s first slot id, first index or first draw to ``value(old)``."""
    def tamper(rec):
        group = next(g for g in rec["groups"] if g["tag"] == tag)
        slot = group["slots"][0]
        if field == "slot":
            slot["slot"] = value(slot["slot"])
            return f"group {tag!r} has a non-integer slot id: {slot['slot']!r}"
        if field == "index":
            slot["indices"][0] = value(slot["indices"][0])
            return f"group {tag!r} slot 0 has a non-integer index: {slot['indices'][0]!r}"
        group["draws"][0] = value(group["draws"][0])
        return f"group {tag!r} draws a non-integer slot id: {group['draws'][0]!r}"
    return tamper


_TAMPERS = {
    "m": _meta_edit("m", lambda v: v + 1),
    "learner": _meta_edit("learner", lambda v: v + "-edited"),
    "alphabet_size": _meta_edit("alphabet_size", lambda v: v + 1),
    "hint_rounds": _meta_edit("hint_rounds", lambda v: v + 1),
    "phases_run": _meta_edit("phases_run", lambda v: v + 1),
    "compression_safe": _meta_edit("compression_safe", lambda v: not v),
    "hint[-1]": _slot_index("hint", lambda m: -1),
    "hint[m]": _slot_index("hint", lambda m: m),
    "phase-1[-1]": _slot_index("phase-1", lambda m: -1),
    "phase-1[m]": _slot_index("phase-1", lambda m: m),
    "rounds[-1]": _slot_index("rounds", lambda m: -1),
    "rounds[m]": _slot_index("rounds", lambda m: m),
    "cover[-1]": _slot_index("cover", lambda m: -1),
    "cover[m]": _slot_index("cover", lambda m: m),
    "round:1[m]": _slot_index("round:1", lambda m: m),
    "hint.slot:str": _non_integer("hint", "slot", str),
    "hint[0]+0.5": _non_integer("hint", "index", lambda i: i + 0.5),
    "rounds[0]:true": _non_integer("rounds", "index", lambda i: True),
    "round:1.draws[0]:float": _non_integer("round:1", "draw", float),
    "game_iters": _meta_edit("game_iters", lambda v: v + 1),
    **{f"no-{key}": _meta_drop(key) for key in ("eta", "T", "m0", "gamma", "d")},
}
_CASES = [("boost", name) for name in (
    "m", "learner", "alphabet_size", "hint_rounds", "phases_run", "compression_safe",
    "hint[-1]", "hint[m]", "phase-1[-1]", "phase-1[m]", "no-eta", "no-T", "no-m0",
    "no-gamma", "hint.slot:str", "hint[0]+0.5")]
_CASES += [("list-boost", name) for name in (
    "m", "learner", "alphabet_size", "compression_safe", "rounds[-1]", "rounds[m]",
    "no-eta", "no-T", "no-m0", "no-gamma", "rounds[0]:true")]
_CASES += [("oig-listpac", name) for name in ("cover[-1]", "cover[m]", "round:1[m]", "no-d",
                                              "round:1.draws[0]:float", "game_iters")]


@pytest.mark.parametrize("pipeline, case", _CASES, ids=[f"{p}:{c}" for p, c in _CASES])
def test_reconstruct_refuses_a_tampered_record(monkeypatch, pipeline, case):
    # One replay contract for every pipeline: a missing meta key or an index
    # outside the sample is refused before replay, and a meta value the
    # replay does not rebuild is refused after it, each naming what is wrong.
    record, inputs = _trained(pipeline, monkeypatch)
    assert record.pipeline == pipeline
    obj = copy.deepcopy(record.to_json_dict())
    match = _TAMPERS[case](obj)
    direct = {"boost": replay_boost, "list-boost": replay_weak_to_list,
              "oig-listpac": replay_list_pac}[pipeline]
    for replay in (reconstruct, direct):
        with pytest.raises(InvalidParams, match=re.escape(match)):
            replay(CompressionRecord.from_json_dict(obj), **inputs)


class _ParitySampler:
    """Ground truth: label = parity of the integer instance, universe 0..9."""

    universe = tuple(range(10))

    def draw(self, m, rng):
        gen = rng.generator()
        xs = gen.integers(0, 10, size=m)
        return make_dataset([(int(x), int(x) % 2) for x in xs], alphabet=(0, 1))

    def true_list_error(self, lists):
        wrong = sum(1 for x in self.universe if (x % 2) not in lists(x))
        return wrong / len(self.universe)


def test_monte_carlo_perfect_scheme_never_fails():
    def scheme(ds, rng):
        return SchemeRun(lists=lambda x: (x % 2,), r=2, consistent=True)

    report = monte_carlo_compression_check(scheme, _ParitySampler(), m=40,
                                           delta=0.1, trials=25, seed=3)
    assert isinstance(report, MonteCarloReport)
    assert report.trials == 25 and report.failures == 0
    assert report.consistent_runs == 25
    assert report.failure_rate == 0.0


def test_monte_carlo_flags_overconfident_scheme():
    # Memorizes nothing and claims r=1: true error 0.5 >> bound.
    def scheme(ds, rng):
        return SchemeRun(lists=lambda x: (0,), r=1, consistent=True)

    report = monte_carlo_compression_check(scheme, _ParitySampler(), m=200,
                                           delta=0.05, trials=10, seed=1)
    assert report.failures == 10
    assert report.failure_rate == 1.0


def test_monte_carlo_vacuous_records_not_failures():
    def scheme(ds, rng):
        return SchemeRun(lists=lambda x: (0,), r=ds.m, consistent=True)

    report = monte_carlo_compression_check(scheme, _ParitySampler(), m=30,
                                           delta=0.05, trials=6, seed=0)
    assert report.vacuous == 6 and report.failures == 0


def test_monte_carlo_requires_trials():
    with pytest.raises(InvalidParams):
        monte_carlo_compression_check(lambda ds, rng: None, _ParitySampler(),
                                      m=10, delta=0.1, trials=0)


def test_inconsistent_runs_do_not_count_against_bound():
    def scheme(ds, rng):
        return SchemeRun(lists=lambda x: (1 - (x % 2),), r=1, consistent=False)

    report = monte_carlo_compression_check(scheme, _ParitySampler(), m=50,
                                           delta=0.1, trials=8, seed=5)
    assert report.consistent_runs == 0
    assert report.failures == 0
