"""One-inclusion graphs: orientations, shattering dimension, list-PAC runs.

The frozen numbers (edge counts, optimal out-degrees, dimensions) were
computed with a separate brute-force enumerator over the same six small
classes before this module existed.
"""

import copy
import hashlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from listboost import (
    BudgetExceeded,
    EmptyClass,
    FiniteClass,
    InvalidParams,
    NonDeterministicLearner,
    NotRealizable,
    RandomStream,
    SearchExhausted,
    UnknownInstance,
    build_oig,
    find_orientation,
    initial_cover,
    k_degree,
    k_list_pac_learn,
    kds_dimension,
    load_finite_class,
    one_inclusion_list_predict,
    oig_list_function,
    replay_list_pac,
    restrict_class,
    save_finite_class,
    wrong_label_learner,
)
from listboost import oig
from listboost.compression import CompressionRecord, reconstruct
from listboost.core import make_dataset, stable_digest
from tests.conftest import bench_workloads, build_class, planted_dataset

# name -> (optimal max out-degree for k=1..3, dimension for k=1..2)
FROZEN = {
    "point1": ((1, 0, 0), (1, 0)),
    "cube2": ((1, 0, 0), (2, 0)),
    "single": ((0, 0, 0), (0, 0)),
    "tri1": ((1, 1, 0), (1, 1)),
    "hexagon": ((1, 0, 0), (2, 1)),
    "grid9": ((2, 1, 0), (2, 2)),
}

EDGE_COUNTS = {"point1": 1, "cube2": 4, "single": 3, "tri1": 1,
               "hexagon": 6, "grid9": 6}


def test_from_rows_sorts_and_dedups():
    fc = FiniteClass.from_rows([(1, 0), (0, 1), (1, 0)], columns=("u", "v"))
    assert fc.size == 2
    assert fc.table.tolist() == [[0, 1], [1, 0]]
    assert fc.alphabet == (0, 1)
    with pytest.raises(ValueError):
        fc.table[0, 0] = 5  # the table is frozen


def test_class_validation():
    with pytest.raises(EmptyClass):
        FiniteClass(table=np.zeros((0, 2), dtype=np.int64), columns=("a", "b"),
                    alphabet=(0,))
    with pytest.raises(InvalidParams):
        FiniteClass(table=np.array([[0, 0], [0, 0]]), columns=("a", "b"),
                    alphabet=(0,))
    with pytest.raises(InvalidParams):
        FiniteClass(table=np.array([[0, 2]]), columns=("a", "b"), alphabet=(0, 1))
    fc = FiniteClass.from_rows([(0, 1)], columns=("a", "b"))
    with pytest.raises(UnknownInstance):
        fc.column_of("zzz")


def test_class_json_round_trip(tmp_path, catalog):
    fc = catalog["hexagon"]
    path = tmp_path / "class.json"
    save_finite_class(fc, path)
    back = load_finite_class(path)
    assert back.fingerprint == fc.fingerprint
    assert back.columns == fc.columns
    assert np.array_equal(back.table, fc.table)


def test_restrict_class_dedups(catalog):
    sub = restrict_class(catalog["grid9"], [0])
    assert sub.size == 3 and sub.n == 1
    with pytest.raises(InvalidParams):
        restrict_class(catalog["grid9"], [])


@pytest.mark.parametrize("name", sorted(EDGE_COUNTS))
def test_edge_counts_match_enumerator(catalog, name):
    graph = build_oig(catalog[name])
    assert len(graph.edges) == EDGE_COUNTS[name]


def test_edge_structure_hexagon(catalog):
    graph = build_oig(catalog["hexagon"])
    assert all(len(e.members) == 2 for e in graph.edges)
    # Every vertex sits on one edge per direction.
    assert all(len(ids) == 2 for ids in graph.incident)
    assert k_degree(graph, 0, 1) == 2
    assert k_degree(graph, 0, 2) == 0


@pytest.mark.parametrize("name", sorted(FROZEN))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_optimal_orientations_match_enumerator(catalog, name, k):
    graph = build_oig(catalog[name])
    orientation = find_orientation(graph, k, strategy="exhaustive")
    assert orientation.optimal
    assert orientation.max_out_degree == FROZEN[name][0][k - 1]
    # Every edge picks exactly min(k, |e|) vertices from its own members.
    for eid, edge in enumerate(graph.edges):
        chosen = orientation.sigma[eid]
        assert len(chosen) == min(k, len(edge.members))
        assert set(chosen) <= set(edge.members)


def test_greedy_never_beats_exhaustive(catalog):
    for name in FROZEN:
        graph = build_oig(catalog[name])
        greedy = find_orientation(graph, 1, strategy="greedy")
        assert greedy.max_out_degree >= FROZEN[name][0][0]
        assert not greedy.optimal or greedy.max_out_degree == 0


def _greedy_by_rescans(graph, k):
    """Reference greedy: recount every alive vertex's degree before each peel."""
    alive = [True] * graph.n_vertices
    alive_sizes = [len(e.members) for e in graph.edges]
    chosen = [[] for _ in graph.edges]
    for _ in range(graph.n_vertices):
        best_v, best_deg = -1, None
        for v in range(graph.n_vertices):
            if not alive[v]:
                continue
            deg = sum(1 for eid in graph.incident[v] if alive_sizes[eid] > k)
            if best_deg is None or deg < best_deg:
                best_v, best_deg = v, deg
        for eid in graph.incident[best_v]:
            if len(chosen[eid]) < k:
                chosen[eid].append(best_v)
            alive_sizes[eid] -= 1
        alive[best_v] = False
    sigma = tuple(tuple(sorted(c)) for c in chosen)
    return sigma, int(oig._out_degrees(graph, sigma).max(initial=0))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_greedy_matches_the_rescanning_reference(catalog, monkeypatch, k):
    workloads = bench_workloads(monkeypatch)
    bench_fc = workloads.build_listpac_oig(0, 0, workloads.SIZES["listpac-oig"]).finite_class
    assert bench_fc.size == 37
    for fc in [*catalog.values(), bench_fc]:
        graph = build_oig(fc)
        greedy = find_orientation(graph, k, strategy="greedy")
        assert (greedy.sigma, greedy.max_out_degree) == _greedy_by_rescans(graph, k)


def test_auto_prefers_exhaustive_within_budget(catalog):
    graph = build_oig(catalog["cube2"])
    auto = find_orientation(graph, 1, strategy="auto")
    assert auto.max_out_degree == 1 and auto.optimal


def test_budget_exceeded_and_greedy_fallback(catalog):
    graph = build_oig(catalog["grid9"])
    with pytest.raises(BudgetExceeded):
        find_orientation(graph, 1, strategy="exhaustive", budget=2)
    fallback = find_orientation(graph, 1, strategy="auto", budget=2)
    assert fallback.strategy == "greedy"
    assert fallback.max_out_degree >= 2


@pytest.mark.parametrize("name", sorted(FROZEN))
@pytest.mark.parametrize("k", (1, 2))
def test_dimension_matches_enumerator(catalog, name, k):
    assert kds_dimension(catalog[name], k) == FROZEN[name][1][k - 1]


def test_dimension_budget(catalog):
    with pytest.raises(BudgetExceeded):
        kds_dimension(catalog["grid9"], 1, budget=0)


def _dimension_downward(fc, k):
    """Reference: every column subset, largest size first, no pruning."""
    for d in range(fc.n, 0, -1):
        for cols in itertools.combinations(range(fc.n), d):
            if oig._shatter_core(np.unique(fc.table[:, cols], axis=0), k):
                return d
    return 0


@pytest.mark.parametrize("k", (1, 2))
def test_upward_dimension_matches_downward_reference(catalog, k):
    classes = list(catalog.values())
    gen = np.random.default_rng(2024)
    for _ in range(16):
        labels = int(gen.integers(2, 4))
        table = gen.integers(0, labels, size=(int(gen.integers(2, 41)), int(gen.integers(1, 6))))
        classes.append(build_class(np.unique(table, axis=0).tolist(),
                                   alphabet=tuple(range(labels))))
    # 3 x 3 grids on the last two columns: the only shattered pair, and the last
    # in combinations order. Of 6 columns' 15 pairs it ends the full batch of 8
    # (1 + 2 + 4 + 8); of 7 columns' 21 it ends the partial last batch of 6.
    for n in (6, 7):
        classes.append(build_class([(0,) * (n - 2) + cell
                                    for cell in itertools.product((0, 1, 2), repeat=2)],
                                   alphabet=(0, 1, 2)))
    dims = [kds_dimension(fc, k) for fc in classes]
    assert dims == [_dimension_downward(fc, k) for fc in classes]
    assert max(dims) >= 2


def test_dimension_search_stops_one_size_past_the_answer(monkeypatch):
    # The listpac-oig benchmark shape: the zero row and every row relabelling
    # one of 12 columns to one of 3 other labels (37 rows, dimension 1).
    rows = [[0] * 12] + [[label if c == col else 0 for c in range(12)]
                         for col in range(12) for label in (1, 2, 3)]
    fc = build_class(rows, alphabet=(0, 1, 2, 3))
    examined = 0
    combinations = itertools.combinations

    def counting(*args):
        nonlocal examined
        for cols in combinations(*args):
            examined += 1
            yield cols

    monkeypatch.setattr(oig.itertools, "combinations", counting)
    assert kds_dimension(fc, 1) == 1
    # one shattered single column, then all 66 pairs; a downward search from
    # d_max = 5 examines 792 + 495 + 220 + 66 + 1 = 1,574
    assert examined <= 67


def test_direction_groups_once_per_graph_and_deletion_round(monkeypatch, catalog):
    calls = 0
    direction_groups = oig._direction_groups

    def counting(*args):
        nonlocal calls
        calls += 1
        return direction_groups(*args)

    monkeypatch.setattr(oig, "_direction_groups", counting)
    build_oig(catalog["grid9"])
    assert calls == 1
    # the listpac-oig benchmark shape: one deletion for the first single
    # column, then the 66 pairs in batches of 1, 2, 4, 8, 16, 32 and 3, each
    # emptied in two deletion rounds
    rows = [[0] * 12] + [[label if c == col else 0 for c in range(12)]
                         for col in range(12) for label in (1, 2, 3)]
    calls = 0
    assert kds_dimension(build_class(rows, alphabet=(0, 1, 2, 3)), 1) == 1
    assert calls <= 15


@pytest.mark.parametrize("name", sorted(FROZEN))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_leave_one_out_misses_equal_out_degree(catalog, name, k):
    """Rotating one query through a full row's sample shares one orientation,
    so the total misses for a row equal its out-degree there."""
    fc = catalog[name]
    graph = build_oig(fc)
    orientation = find_orientation(graph, k, strategy="exhaustive")
    worst = 0
    for row in range(fc.size):
        misses = 0
        full = make_dataset(zip(fc.columns, fc.table[row].tolist()), alphabet=fc.alphabet)
        for j, query in enumerate(fc.columns):
            sample = full.subset([i for i in range(fc.n) if i != j])
            pred = one_inclusion_list_predict(fc, sample, query, k,
                                              strategy="exhaustive")
            if int(fc.table[row, j]) not in pred.labels:
                misses += 1
        assert misses <= orientation.max_out_degree
        worst = max(worst, misses)
    assert worst == FROZEN[name][0][k - 1]


def test_predict_on_revealed_column_is_exact(catalog):
    fc = catalog["hexagon"]
    sample = make_dataset([(fc.columns[0], int(fc.table[0, 0])),
                           (fc.columns[1], int(fc.table[0, 1]))], alphabet=fc.alphabet)
    pred = one_inclusion_list_predict(fc, sample, fc.columns[0], 1)
    assert pred.labels == (int(fc.table[0, 0]),)


def test_predict_rejects_unrealizable_sample(catalog):
    fc = catalog["point1"]  # rows (0,) and (1,) on a single column
    with pytest.raises(NotRealizable):
        one_inclusion_list_predict(
            fc, make_dataset([(fc.columns[0], 0), (fc.columns[0], 1)]), fc.columns[0], 1)


def test_oig_list_function_declares_k(catalog):
    fc = catalog["grid9"]
    mu = oig_list_function(fc, make_dataset([(fc.columns[0], 0)], alphabet=fc.alphabet), k=2)
    assert mu.declared_size == 2
    for c in fc.columns:
        assert 1 <= len(mu(c)) <= 2


def test_initial_cover_frozen_budget_and_coverage(catalog):
    # q = ceil((d+1) ln 2m); hexagon with k=2 has d=1, so m=8 gives
    # ceil(2 ln 16) = 6.
    fc = catalog["hexagon"]
    ds = planted_dataset(fc, m=8, seed=3)
    res = initial_cover(fc, ds, k=2)
    assert res.d == 1 and res.q == 6
    assert res.mu.declared_size == 2 * 6
    for ex in ds.examples:
        assert ex.label in res.mu(ex.instance)
    assert res.rounds_run <= res.q
    for rnd in res.rounds:
        assert len(rnd.subset) <= res.d
        assert rnd.coverage * (res.d + 1) >= rnd.survivors_before
        assert not rnd.fallback


def test_initial_cover_fails_with_understated_dimension(catalog):
    # With d pinned to 0 the only candidate subset is empty, and a single
    # 1-list cannot cover two columns carrying different labels.
    fc = catalog["hexagon"]
    u, v = fc.columns
    ds = make_dataset([(u, 0), (v, 1)], alphabet=fc.alphabet)
    with pytest.raises(SearchExhausted):
        initial_cover(fc, ds, k=1, d=0)


def test_wrong_label_learner_excludes_only_false_labels(catalog):
    fc = catalog["hexagon"]
    ds = planted_dataset(fc, m=6, seed=5)
    res = wrong_label_learner(fc, ds, d=1, rng=RandomStream(2, ("wl",)))
    assert res.p == 3
    assert res.n_u == 4 * 3 * 1
    assert res.max_true_vote < 1.0 / (2 * res.p)
    for ex in ds.examples:
        lst = res.mu(ex.instance)
        assert ex.label in lst
        assert len(lst) == res.p - 1
    # The vote is the game's bag: one draw per round, each naming a slot.
    draws = res.record_group.draws
    assert len(draws) == oig.GAME_ITERS
    assert set(draws) <= set(range(len(res.record_group.slots)))


def test_wrong_label_lists_at_unseen_columns_match_a_recount(monkeypatch):
    # A Hamming-ball class on 12 columns, sampled on 8 of them: at a column the
    # sample never shows, the list comes from asking every bag slot again.
    workloads = bench_workloads(monkeypatch)
    gen = np.random.default_rng(3)
    fc, target = workloads.hamming_ball_class(gen, labels=4, columns=12)
    target = target.copy()
    target[0] = 1
    xs = gen.integers(0, 8, size=12)
    ds = make_dataset([(int(x), int(target[x])) for x in xs], alphabet=fc.alphabet)
    res = wrong_label_learner(fc, ds, d=1, rng=RandomStream(3, ("wl",)))
    p, group = res.p, res.record_group
    unseen = sorted(set(fc.columns) - set(ds.instances))
    assert unseen
    split = False
    for c in unseen:
        votes = np.zeros(p, dtype=np.int64)
        for sid, n in zip(*np.unique(group.draws, return_counts=True)):
            sample = ds.subset(group.slots[sid].indices)
            pred = one_inclusion_list_predict(fc, sample, c, p - 1)
            votes[oig._min_excluded(pred.labels, p)] += n
        top = int(np.argmax(votes))  # ties to the lowest label
        assert res.mu(c) == tuple(y for y in range(p) if y != top), c
        split = split or votes[top] < len(group.draws)
    assert split  # some column's vote is not unanimous


def test_list_pac_learning_hexagon(catalog):
    fc = catalog["hexagon"]
    ds = planted_dataset(fc, m=10, seed=7)
    res = k_list_pac_learn(fc, ds, k=2, seed=1)
    assert res.consistent_on_train
    assert res.mu.declared_size == 2
    for ex in ds.examples:
        assert ex.label in res.mu(ex.instance)
    assert res.p == res.k * res.q
    assert res.record.meta["class_fingerprint"] == fc.fingerprint
    assert res.compression_size == sum(g.size() for g in res.record.groups)


def test_list_pac_single_row_class(catalog):
    fc = catalog["single"]
    ds = make_dataset([(c, int(fc.table[0, i])) for i, c in enumerate(fc.columns)],
                      alphabet=fc.alphabet)
    res = k_list_pac_learn(fc, ds, k=1, seed=0)
    assert res.consistent_on_train and res.d == 0
    assert res.rounds_run == 0
    for i, c in enumerate(fc.columns):
        assert res.mu(c) == (int(fc.table[0, i]),)


def _mixed_grid_dataset(fc):
    # Realizable by the row (u -> 1, v -> 2); the label split across the two
    # columns keeps the cover from collapsing to singletons, so at least one
    # elimination round has to run.
    u, v = fc.columns
    return make_dataset([(u, 1)] * 2 + [(v, 2)] * 4, alphabet=fc.alphabet)


def test_list_pac_runs_elimination_rounds(catalog):
    fc = catalog["grid9"]
    ds = _mixed_grid_dataset(fc)
    res = k_list_pac_learn(fc, ds, k=1, seed=4)
    assert res.consistent_on_train
    assert res.rounds_run >= 1
    for rnd in res.rounds:
        assert rnd.max_true_vote < 1.0 / (2 * rnd.p_j)
    assert res.early_stopped or res.rounds_run == res.p - res.k
    assert res.mu(fc.columns[0]) == (1,) and res.mu(fc.columns[1]) == (2,)


def test_list_pac_rejects_unrealizable(catalog):
    fc = catalog["point1"]
    ds = make_dataset([(fc.columns[0], 0), (fc.columns[0], 1)], alphabet=(0, 1))
    with pytest.raises(NotRealizable):
        k_list_pac_learn(fc, ds, k=1)


def test_replay_list_pac_round_trip(catalog):
    fc = catalog["grid9"]
    ds = _mixed_grid_dataset(fc)
    res = k_list_pac_learn(fc, ds, k=1, seed=4)
    assert res.rounds_run >= 1  # the replay must walk the elimination path
    rep = replay_list_pac(res.record, ds, fc)
    for c in fc.columns:
        assert rep(c) == res.mu(c)

    for tag in ("cover", "round:1"):
        loaded = type(res.record).from_json_dict(res.record.to_json_dict())
        slots = loaded.group(tag).slots
        slots[0] = type(slots[0])(slot=slots[0].slot, indices=slots[0].indices,
                                  pred_hash="f" * len(slots[0].pred_hash))
        with pytest.raises(NonDeterministicLearner, match=f"{tag} slot 0"):
            replay_list_pac(loaded, ds, fc)


def test_replay_list_pac_guards(catalog):
    fc = catalog["grid9"]
    ds = _mixed_grid_dataset(fc)
    res = k_list_pac_learn(fc, ds, k=1, seed=4)
    with pytest.raises(InvalidParams):
        replay_list_pac(res.record, ds, None)
    with pytest.raises(InvalidParams):
        replay_list_pac(res.record, ds, catalog["hexagon"])


def _tiny_listpac(monkeypatch, seed):
    """The tiny listpac-oig input of the benchmark, and its record; one round runs."""
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_listpac_oig(seed, 0, workloads.TINY_SIZES["listpac-oig"])
    res = k_list_pac_learn(inp.finite_class, inp.dataset, inp.k, seed=seed)
    assert res.rounds_run == 1
    return inp, res


def _set_meta(key, value):
    return lambda rec: rec["meta"].__setitem__(key, value(rec["meta"][key]))


def _drop_round_one(rec):
    rec["meta"]["rounds_run"] = 0
    rec["groups"] = [g for g in rec["groups"] if g["tag"] != "round:1"]


def _append_round(rec):
    rec["groups"].append(dict(rec["groups"][-1], tag="round:9"))


def _cover_draws(rec):
    rec["groups"][0]["draws"] = [0] * len(rec["groups"][0]["slots"])


@pytest.mark.parametrize("tamper", [
    _set_meta("rounds_run", lambda v: 0),
    _drop_round_one,
    _set_meta("q", lambda v: v + 1),
    _set_meta("p", lambda v: v + 1),
    _set_meta("m", lambda v: v + 1),
    _set_meta("d", lambda v: v + 1),
    _set_meta("early_stopped", lambda v: not v),
    _append_round,
    _cover_draws,
], ids=["rounds_run=0", "rounds_run=0-without-round:1", "q+1", "p+1", "m+1", "d+1",
        "early_stopped", "appended-round:9", "cover-draws"])
def test_replay_list_pac_rejects_a_record_it_does_not_rebuild(monkeypatch, tamper):
    inp, res = _tiny_listpac(monkeypatch, 0)
    obj = copy.deepcopy(res.record.to_json_dict())
    tamper(obj)
    with pytest.raises((InvalidParams, NonDeterministicLearner)):
        replay_list_pac(CompressionRecord.from_json_dict(obj), inp.dataset, inp.finite_class)


def test_replay_list_pac_names_the_first_difference(monkeypatch):
    inp, res = _tiny_listpac(monkeypatch, 0)
    obj = copy.deepcopy(res.record.to_json_dict())
    obj["meta"]["rounds_run"] = 0
    with pytest.raises(InvalidParams, match="meta key 'rounds_run' .replayed 1, recorded 0"):
        replay_list_pac(CompressionRecord.from_json_dict(obj), inp.dataset, inp.finite_class)
    obj = copy.deepcopy(res.record.to_json_dict())
    _cover_draws(obj)
    with pytest.raises(InvalidParams, match="group 'cover'"):
        replay_list_pac(CompressionRecord.from_json_dict(obj), inp.dataset, inp.finite_class)


def _count_batched(monkeypatch):
    """Record each one_inclusion_lists call as (sample, queries); single-query
    predictions go through it too, so this sees every (sample, query) evaluation."""
    calls = []
    batched = oig.one_inclusion_lists

    def counting(fc, sample, queries, *args, **kwargs):
        calls.append((sample.examples, tuple(queries)))
        return batched(fc, sample, queries, *args, **kwargs)

    monkeypatch.setattr(oig, "one_inclusion_lists", counting)
    return calls


def test_replay_list_pac_predicts_each_slot_once_per_instance(monkeypatch):
    # Every class column is in the sample, so no list is extended past its
    # table: a replay predicts each recorded slot once at each distinct instance.
    inp, res = _tiny_listpac(monkeypatch, 0)
    uniq = inp.dataset.unique_instances
    assert set(uniq) == set(inp.finite_class.columns)
    calls = _count_batched(monkeypatch)
    lists = replay_list_pac(res.record, inp.dataset, inp.finite_class)
    assert [lists(c) for c in inp.finite_class.columns] == \
        [res.mu(c) for c in inp.finite_class.columns]
    n_slots = sum(len(g.slots) for g in res.record.groups)
    assert sum(len(queries) for _, queries in calls) == n_slots * len(uniq)
    # Calls come slot by slot, in record order. A wrong-label slot is one
    # batched call at every instance; a cover slot is one call at its
    # survivors' instances, plus one at the rest when some instance has no
    # survivor left.
    pending = iter(calls)
    for group in res.record.groups:
        for _ in group.slots:
            sample, seen = next(pending)
            n_calls = 1
            while len(seen) < len(uniq):
                more_sample, more = next(pending)
                assert more_sample == sample
                seen, n_calls = seen + more, n_calls + 1
            assert sorted(seen) == sorted(uniq)
            assert n_calls == 1 or (group.tag == "cover" and n_calls == 2)
    assert next(pending, None) is None


def _listpac_size(res):
    """The cover's subsets, plus GAME_ITERS draws of a 4 p_j d-index slot per round."""
    cover = sum(len(s.indices) for s in res.record.group("cover").slots)
    return cover + sum(oig.GAME_ITERS * 4 * rnd.p_j * res.d for rnd in res.rounds)


@pytest.mark.parametrize("seed,sha256", [
    (0, "4addfd11d49cc41dd54d79fcad66ca2a186b2574fa45d432e7fdf15bd2a617f7"),
    (5, "55567960d9826ed45a8537ad1bf9c1da5ffe2035d2b3b746692c6cff59ab1cfa"),
], ids=["seed0", "seed5"])
def test_tiny_listpac_record_bytes_are_pinned(monkeypatch, tmp_path, seed, sha256):
    # A change that claims "records unchanged" keeps these digests; one that
    # changes the record on purpose recomputes them and says why.
    inp, res = _tiny_listpac(monkeypatch, seed)
    assert res.compression_size == _listpac_size(res)
    path = tmp_path / "record.json"
    res.record.dump(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_full_listpac_record_bytes_are_pinned(monkeypatch, tmp_path):
    # The full-size listpac-oig input of the benchmark, seed 0.
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_listpac_oig(0, 0, workloads.SIZES["listpac-oig"])
    res = k_list_pac_learn(inp.finite_class, inp.dataset, inp.k, seed=0)
    path = tmp_path / "record.json"
    res.record.dump(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "1ddf0583ac11bd5773b74345cf73969c1093a21b8f4a167848ec196e7520f201"


def test_listpac_record_size_is_linear_in_k(monkeypatch):
    # Hamming-ball classes of the listpac-oig shape, seed 0: one round runs at
    # every k, and p = k q, so each k adds the same GAME_ITERS 4 q d indices.
    workloads = bench_workloads(monkeypatch)
    sizes = []
    for k in (1, 2, 3):
        inp = workloads.build_listpac_oig(0, 0, dict(workloads.SIZES["listpac-oig"], k=k))
        res = k_list_pac_learn(inp.finite_class, inp.dataset, k, seed=0)
        assert res.consistent_on_train and res.rounds_run == 1
        assert res.compression_size == _listpac_size(res)
        sizes.append(res.compression_size)
    assert sizes == [836, 1668, 2500]


def test_full_listpac_records_stay_small_on_every_seed(monkeypatch):
    workloads = bench_workloads(monkeypatch)
    for seed in range(16):
        inp = workloads.build_listpac_oig(seed, 0, workloads.SIZES["listpac-oig"])
        fc = inp.finite_class
        res = k_list_pac_learn(fc, inp.dataset, inp.k, seed=seed)
        assert res.consistent_on_train, seed
        assert res.compression_size <= 1000, seed
        lists = replay_list_pac(res.record, inp.dataset, fc)
        assert [lists(c) for c in fc.columns] == [res.mu(c) for c in fc.columns], seed


def test_listpac_record_with_sampled_draws_still_replays(monkeypatch, tmp_path):
    # Dumped when a round recorded ceil(8 p^2 ln 2m) draws sampled from its bag;
    # replay votes with whatever draws a record holds.
    fixture = Path(__file__).parent / "data" / "listpac_oig_tiny_seed0_record1.json"
    assert hashlib.sha256(fixture.read_bytes()).hexdigest() == \
        "2d88524f66607fea353d67d81d7d6f31c6cad1709d3728b4b2a428e58fe5119c"
    inp, res = _tiny_listpac(monkeypatch, 0)
    record = CompressionRecord.load(fixture)
    p, m = record.meta["p"], record.meta["m"]
    assert len(record.group("round:1").draws) == math.ceil(8 * p * p * math.log(2 * m))
    lists = reconstruct(record, inp.dataset, finite_class=inp.finite_class)
    columns = inp.finite_class.columns
    assert [lists(c) for c in columns] == [res.mu(c) for c in columns]
    path = tmp_path / "record.json"
    record.dump(path)
    assert path.read_bytes() == fixture.read_bytes()


def _alias_cover_index(rec):
    # The same example, counted from the end: numpy indexing would accept it.
    indices = rec["groups"][0]["slots"][0]["indices"]
    indices[0] -= rec["meta"]["m"]


def _draw_missing_slot(rec):
    group = next(g for g in rec["groups"] if g["tag"] == "round:1")
    assert len(group["slots"]) < 99
    group["draws"][0] = 99


def _round_draws(value):
    def tamper(rec):
        next(g for g in rec["groups"] if g["tag"] == "round:1")["draws"] = value
    return tamper


@pytest.mark.parametrize("tamper,match", [
    (_alias_cover_index, "group 'cover' has a slot index outside"),
    (_draw_missing_slot, "group 'round:1' draws a slot id outside"),
    (_round_draws(None), "group 'round:1' has no draws to vote with"),
    (_round_draws([]), "group 'round:1' has no draws to vote with"),
], ids=["cover-index-from-the-end", "round-draw-99", "round-draws-null", "round-draws-empty"])
def test_replay_list_pac_range_checks_recorded_ids(monkeypatch, tamper, match):
    inp, res = _tiny_listpac(monkeypatch, 0)
    obj = copy.deepcopy(res.record.to_json_dict())
    tamper(obj)
    with pytest.raises(InvalidParams, match=match):
        replay_list_pac(CompressionRecord.from_json_dict(obj), inp.dataset, inp.finite_class)


def _hamming_ball(labels, columns):
    """The all-zero row and every row that relabels exactly one of its columns."""
    rows = [(0,) * columns]
    for col in range(columns):
        for y in range(1, labels):
            rows.append(tuple(y if c == col else 0 for c in range(columns)))
    return build_class(rows, alphabet=tuple(range(labels)))


def _reference_cover(fc, ds, k, d):
    """initial_cover's exhaustive search, scoring every subset at every survivor.

    Returns per round the chosen subset, its coverage, the slot fingerprint,
    how many distinct labelled subsets were scored up to the chosen one, and
    how many distinct instances the round's survivors had.
    """
    q = math.ceil((d + 1) * math.log(2 * ds.m))
    survivors = list(range(ds.m))
    rounds = []
    for _ in range(q):
        if not survivors:
            break
        need = len(survivors)
        scored = set()
        for subset in (c for s in range(min(d, need), -1, -1)
                       for c in itertools.combinations(survivors, s)):
            scored.add(frozenset(ds.examples[i] for i in subset))
            mu = oig_list_function(fc, ds.subset(subset), k)
            covered = [i for i in survivors if int(ds.labels[i]) in mu(ds.instances[i])]
            if len(covered) * (d + 1) >= need:
                break
        digest = stable_digest(tuple(mu(x) for x in ds.unique_instances))
        n_survivor_xs = len({ds.instances[i] for i in survivors})
        rounds.append((tuple(subset), len(covered), digest, len(scored), n_survivor_xs))
        gone = set(covered)
        survivors = [i for i in survivors if i not in gone]
    assert not survivors
    return rounds


@pytest.mark.parametrize("m,d", [(120, None), (40, 2)])
def test_initial_cover_matches_reference_and_scores_each_instance_once(monkeypatch, m, d):
    # Many repeated examples over few columns, sorted by column so that a
    # round tries many subsets: the cover scores each distinct labelled
    # subset once, at each distinct surviving instance.
    fc, k = _hamming_ball(labels=4, columns=12), 1
    xs = np.sort(np.random.default_rng(5).integers(0, fc.n, size=m))
    ds = make_dataset([(fc.columns[x], 0) for x in xs], alphabet=fc.alphabet)
    d = kds_dimension(fc, k) if d is None else d
    ref = _reference_cover(fc, ds, k, d)

    calls = _count_batched(monkeypatch)
    res = initial_cover(fc, ds, k, d=d)
    assert [(r.subset, r.coverage) for r in res.rounds] == [r[:2] for r in ref]
    assert [s.indices for s in res.record_group.slots] == [r[0] for r in ref]
    assert [s.pred_hash for s in res.record_group.slots] == [r[2] for r in ref]
    assert not any(r.fallback for r in res.rounds)
    n_x = len(ds.unique_instances)
    # Per round: every distinct subset scored, plus the slot fingerprint, at
    # every distinct instance; then the concatenated list's table.
    evaluations = sum(len(queries) for _, queries in calls)
    assert evaluations <= sum((r[3] + 1) * n_x for r in ref) + len(ref) * n_x
    # One batched call per scored subset, at the survivors' instances, and one
    # to complete the kept subset's table where survivors miss an instance.
    assert len(calls) == sum(r[3] + (r[4] < n_x) for r in ref)


# ---------------------------------------------------------------------------
# Batched list prediction and row keys against the code they replaced.


def _single_query_reference(fc, sample, query, k, strategy="auto", budget=10**6):
    """The one-query prediction body, one restriction and mask per call."""
    pairs = [(x.instance, int(x.label)) if hasattr(x, "instance") else (x[0], int(x[1]))
             for x in sample]
    q_col = fc.column_of(query)
    col_ids = sorted({fc.column_of(x) for x, _ in pairs} | {q_col})
    sub, graph, orientation = oig._oriented_restriction(fc, tuple(col_ids), k, strategy,
                                                        budget)
    pos = {cid: j for j, cid in enumerate(col_ids)}
    consistent = np.ones(sub.size, dtype=bool)
    for x, y in pairs:
        consistent &= sub.table[:, pos[fc.column_of(x)]] == y
    members = np.nonzero(consistent)[0]
    if members.size == 0:
        raise NotRealizable("no class member is consistent with the sample")
    q_pos = pos[q_col]
    if q_col in {fc.column_of(x) for x, _ in pairs}:
        label = int(sub.table[members[0], q_pos])
        return oig.OigPrediction(labels=(label,), max_out_degree=orientation.max_out_degree,
                                 edge_size=int(members.size), strategy=orientation.strategy,
                                 optimal=orientation.optimal)
    off = tuple(int(v) for v in np.delete(sub.table[members[0]], q_pos))
    eid = graph.edge_id(q_pos, off)
    if eid is None or set(graph.edges[eid].members) != set(int(v) for v in members):
        raise NotRealizable("revealed sample does not select a single edge")
    chosen = orientation.sigma[eid]
    labels = tuple(sorted({int(sub.table[v, q_pos]) for v in chosen}))
    return oig.OigPrediction(labels=labels, max_out_degree=orientation.max_out_degree,
                             edge_size=len(graph.edges[eid].members),
                             strategy=orientation.strategy, optimal=orientation.optimal)


def _outcome(run):
    try:
        return run()
    except NotRealizable as exc:
        return str(exc)


def _catalog_samples(fc):
    """Realizable samples (every row on every column subset, the empty one
    included, some with a column repeated) and unrealizable ones, one of them
    with a label outside the class alphabet."""
    samples = []
    for row in fc.table.tolist():
        full = make_dataset(zip(fc.columns, row), alphabet=fc.alphabet)
        for size in range(fc.n + 1):
            for cols in itertools.combinations(range(fc.n), size):
                samples.append(full.subset(cols + cols[:1]))
                if cols:
                    samples.append(full.subset(cols))
    top = max(fc.alphabet)
    samples.append(make_dataset([(fc.columns[0], 0), (fc.columns[0], top)]))
    samples.append(make_dataset([(fc.columns[-1], top + 1)]))
    return samples


def _assert_batched_matches_loop(fc, k, samples):
    """Every query prefix: the batched call equals the one-query loop, same
    predictions or the same error; so an error comes at the same query."""
    queries = list(fc.columns) + list(fc.columns[::-1])
    errors = set()
    for sample in samples:
        for i in range(len(queries) + 1):
            want = _outcome(lambda: [_single_query_reference(fc, sample.examples, x, k)
                                     for x in queries[:i]])
            got = _outcome(lambda: oig.one_inclusion_lists(fc, sample, queries[:i], k))
            assert got == want, (sample.examples, queries[:i])
            if isinstance(want, str):
                errors.add(want)
    return errors


def _hamming_ball(labels, columns):
    """The all-zero centre and every row one label away from it."""
    rows = [[0] * columns]
    for col, label in itertools.product(range(columns), range(1, labels)):
        rows.append([label if j == col else 0 for j in range(columns)])
    return build_class(rows, alphabet=tuple(range(labels)))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_one_inclusion_lists_match_the_single_query_loop(monkeypatch, catalog, k):
    monkeypatch.setattr(oig, "_ORIENT_CACHE", {})
    # every column pair of the ball restricts to one table, so most
    # restrictions below are served by another restriction's memo entry
    star = _hamming_ball(3, 3)
    errors = set()
    for fc in [*catalog.values(), star]:
        errors |= _assert_batched_matches_loop(fc, k, _catalog_samples(fc))
    assert errors == {"no class member is consistent with the sample"}
    # an exhaustive search past its budget raises on every call: errors are not memoized
    sample, query = make_dataset([(star.columns[0], 0)]), star.columns[1]
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            _single_query_reference(star, sample.examples, query, 1, "exhaustive", 1)
        with pytest.raises(BudgetExceeded):
            oig.one_inclusion_lists(star, sample, [query], 1, "exhaustive", 1)


class _NoHits(dict):
    """An orientation memo that stores entries but never finds one."""

    def get(self, key, default=None):
        return default


def test_orientation_memo_orients_each_distinct_table_once(monkeypatch):
    fc = _hamming_ball(4, 12)
    ds = planted_dataset(fc, 300, 1)  # row 0 is the centre
    calls = {"orient": 0, "validate": 0}
    tables, requests = set(), []
    orient, validate, restrict = (oig.find_orientation, FiniteClass.__post_init__,
                                  oig._oriented_restriction)

    def counting_orient(*args, **kwargs):
        calls["orient"] += 1
        return orient(*args, **kwargs)

    def counting_validate(self):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in (
                "restrict_class", "_oriented_restriction"):
            frame = frame.f_back
        calls["validate"] += frame is not None
        validate(self)

    def recording_restrict(fc, col_ids, k, strategy, budget):
        table = np.unique(fc.table[:, list(col_ids)], axis=0)
        requests.append((table.shape, table.tobytes(), fc.alphabet, k, strategy, budget))
        tables.add(requests[-1])
        return restrict(fc, col_ids, k, strategy, budget)

    monkeypatch.setattr(oig, "find_orientation", counting_orient)
    monkeypatch.setattr(FiniteClass, "__post_init__", counting_validate)
    monkeypatch.setattr(oig, "_oriented_restriction", recording_restrict)
    monkeypatch.setattr(oig, "_ORIENT_CACHE", {})
    fit = k_list_pac_learn(fc, ds, 1, seed=1)
    assert fit.consistent_on_train
    assert len(tables) <= 6
    assert calls == {"orient": len(tables), "validate": len(tables)}

    calls["orient"], requests[:] = 0, []
    monkeypatch.setattr(oig, "_ORIENT_CACHE", _NoHits())
    cold = k_list_pac_learn(fc, ds, 1, seed=1)
    assert calls["orient"] == len(requests) > 40
    assert [fit.mu(x) for x in fc.columns] == [cold.mu(x) for x in fc.columns]
    assert fit.record.to_json_dict() == cold.record.to_json_dict()


def _row_key_tables():
    """Random label tables, duplicates included, a 16 x 260 table over 8 labels,
    and a table whose labels are 0, the largest int64 and a negative one."""
    gen = np.random.default_rng(7)
    tables = [gen.integers(0, int(gen.integers(2, 5)),
                           size=(int(gen.integers(1, 40)), int(gen.integers(1, 7))))
              for _ in range(24)]
    tables.append(gen.integers(0, 8, size=(16, 260)))
    big = np.iinfo(np.int64).max
    tables.append(np.array([[0, big, 0], [big, 0, -1], [0, 0, 0], [big, big, -1],
                            [0, big, 0], [-1, big, big]], dtype=np.int64))
    return tables


def _alphabet(table):
    return tuple(sorted(set(table.ravel().tolist())))


def _oig_reference(table):
    """The one-inclusion edges by np.unique(axis=0): (direction, off, members)."""
    edges = []
    for i in range(table.shape[1]):
        reduced = np.delete(table, i, axis=1)
        _, inverse = np.unique(reduced, axis=0, return_inverse=True)
        groups = {}
        for row, g in enumerate(inverse.ravel()):
            groups.setdefault(int(g), []).append(row)
        edges += [(i, tuple(int(v) for v in reduced[groups[g][0]]), tuple(groups[g]))
                  for g in sorted(groups)]
    return edges


def _shatter_core_reference(rows, k):
    cur = rows
    d = cur.shape[1]
    while cur.shape[0]:
        keep = np.ones(cur.shape[0], dtype=bool)
        for i in range(d):
            reduced = (np.delete(cur, i, axis=1) if d > 1
                       else np.zeros((cur.shape[0], 1), dtype=np.int64))
            _, inverse, counts = np.unique(reduced, axis=0, return_inverse=True,
                                           return_counts=True)
            keep &= counts[inverse.ravel()] >= k + 1
        if keep.all():
            return int(cur.shape[0])
        cur = cur[keep]
    return 0


def test_row_keys_match_unique_rows_reference():
    gen = np.random.default_rng(8)
    tables = _row_key_tables()
    # some class's stacked copies outgrow the cap, so its directions group in batches
    assert any(np.unique(t, axis=0).shape[0] * t.shape[1] * (t.shape[1] + 1) > oig._GROUP_CELLS
               for t in tables)
    for table in tables:
        unique = np.unique(table, axis=0)
        columns, alphabet = tuple(range(table.shape[1])), _alphabet(table)
        if unique.shape[0] < table.shape[0]:
            with pytest.raises(InvalidParams, match="duplicate hypothesis rows"):
                FiniteClass(table=table, columns=columns, alphabet=alphabet)
        else:
            assert FiniteClass(table=table, columns=columns, alphabet=alphabet).size == \
                table.shape[0]
        fc = FiniteClass.from_rows(table, columns, alphabet=alphabet)
        assert np.array_equal(fc.table, unique)
        for _ in range(4):
            cols = gen.choice(fc.n, size=int(gen.integers(1, min(fc.n, 4) + 1)),
                              replace=False).tolist()
            assert np.array_equal(restrict_class(fc, cols).table,
                                  np.unique(fc.table[:, cols], axis=0))

        graph = build_oig(fc)
        assert [(e.direction, e.off, e.members) for e in graph.edges] == \
            _oig_reference(fc.table)
        assert graph.incident == tuple(
            tuple(eid for eid, e in enumerate(graph.edges) if v in e.members)
            for v in range(fc.size))
        for k in (1, 2):
            assert oig._shatter_core(fc.table, k) == _shatter_core_reference(fc.table, k)
